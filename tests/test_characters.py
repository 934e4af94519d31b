import itertools
import random

import pytest

from cdsymbols.characters import (
    _prime_root,
    _quadratic_of_conductor,
    enumerate_characters,
    parse_theta,
    restrict_to_part,
    teichmuller_character,
    unit_group,
)
from cdsymbols.rings import (
    CoeffRing,
    RingElem,
    RingError,
    cyclotomic_polynomial,
    make_coeff_ring,
    multiplicative_order,
    prime_factorization,
)
from dense_reference import ImageCharacter, conductor_by_divisors, quadratic_by_enumeration


def test_unit_group_examples():
    ug5 = unit_group(5)
    assert ug5.generators == (2,) and ug5.orders == (4,)
    ug12 = unit_group(12)
    assert sorted(ug12.orders) == [2, 2]
    ug2 = unit_group(2)
    assert ug2.generators == () and ug2.phi == 1
    with pytest.raises(ValueError):
        unit_group(1)


def test_unit_group_dlog_is_complete_and_unique():
    for N in (5, 8, 12, 16, 24, 35, 45):
        ug = unit_group(N)
        assert len(ug.units) == ug.phi
        for a in ug.units:
            expo = ug.exponents(a)
            val = 1
            for g, t in zip(ug.generators, expo):
                val = val * pow(g, t, N) % N
            assert val == a
        with pytest.raises(ValueError):
            ug.exponents(0)


def test_enumerate_characters_counts_and_closure():
    r5 = make_coeff_ring(5, 1, 4)
    chars = enumerate_characters(5, r5)
    assert len(chars) == 4
    assert sum(c.is_even() for c in chars) == 2
    assert any(c.is_trivial() for c in chars)
    labels = {c.label() for c in chars}
    for a in chars:
        for b in chars:
            assert (a * b).label() in labels
    r12 = make_coeff_ring(3, 1, 4)
    assert len(enumerate_characters(12, r12)) == 4


def test_enumerate_characters_rejects_small_ring():
    r = make_coeff_ring(3, 1, 2)  # Z/3 has only mu_2
    with pytest.raises(RingError):
        enumerate_characters(5, r)


def test_multiplicativity_random_pairs():
    rng = random.Random(21)
    for N, ring in [(5, make_coeff_ring(5, 1, 4)), (12, make_coeff_ring(3, 2, 4)), (35, make_coeff_ring(7, 1, 24))]:
        units = unit_group(N).units
        for chi in enumerate_characters(N, ring):
            for _ in range(100):
                a, b = rng.choice(units), rng.choice(units)
                assert chi(a) * chi(b) == chi(a * b)


def test_orthogonality():
    for N, ring in [(5, make_coeff_ring(5, 1, 4)), (12, make_coeff_ring(3, 1, 4))]:
        ug = unit_group(N)
        for chi in enumerate_characters(N, ring):
            total = ring.zero()
            for a in ug.units:
                total = total + chi(a)
            assert total == (ring.from_int(ug.phi) if chi.is_trivial() else ring.zero())


def test_conductor_examples():
    r12 = make_coeff_ring(3, 1, 4)
    chars = enumerate_characters(12, r12)
    by_label = {c.label(): c for c in chars}
    assert by_label["[0,0]"].conductor() == 1
    # the character nontrivial only on the 4-part: minimal-modulus brute force
    four_part = [c for c in chars if not c.is_trivial() and c.conductor() == 4]
    assert len(four_part) == 1
    trivial_on_three = four_part[0]
    for a in unit_group(12).units:
        if a % 4 == 1:
            assert trivial_on_three(a) == r12.one()
    r35 = make_coeff_ring(7, 1, 24)
    omega = teichmuller_character(5, 7, r35)
    assert omega.conductor() == 7


def test_conductor_two_adic_fact():
    # a conductor divisible by 2 is divisible by 4
    ring = make_coeff_ring(3, 1, 8)
    for N in (8, 16, 24):
        for chi in enumerate_characters(N, ring):
            f = chi.conductor()
            assert f % 2 != 0 or f % 4 == 0


def test_conductor_multiplies_over_crt_components():
    ring = make_coeff_ring(7, 1, 24)
    for chi in enumerate_characters(35, ring):
        f = 1
        for q, e in prime_factorization(35).items():
            f *= restrict_to_part(chi, q**e).conductor()
        assert f == chi.conductor()


def test_conductor_from_exponents_matches_the_divisor_test():
    """The conductor read off the exponents one prime power at a time equals
    the least divisor f of N with chi trivial on the units = 1 mod f, for
    every character mod N < 130 in every GR(p, m), p <= 19, m <= 3, that
    holds them all (the 2-parts 4, 8, ..., 64 included)."""
    count = 0
    for N in range(3, 130):
        phi = unit_group(N).phi
        for p in (3, 5, 7, 11, 13, 17, 19):
            if phi % p == 0 or (phi > 1 and multiplicative_order(p, phi) > 3):
                continue
            for chi in enumerate_characters(N, make_coeff_ring(p, 1, phi)):
                assert chi.conductor() == conductor_by_divisors(chi), (N, p, chi.label())
                count += 1
    assert count > 5000


@pytest.mark.parametrize("N,p", [(5, 7), (8, 3), (12, 5), (15, 7), (16, 3), (21, 5), (24, 5), (35, 7), (40, 3)])
def test_quadratic_of_conductor_matches_the_enumeration(N, p):
    """quad@D tries only the exponent vectors with entries 0 or (q-1)/2, and
    returns the character the enumeration of all phi(N) characters finds,
    or raises the same error, for every divisor D of N."""
    ring = make_coeff_ring(p, 1, unit_group(N).phi)
    for D in (d for d in range(1, N + 1) if N % d == 0):
        try:
            expected = quadratic_by_enumeration(N, ring, D)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{exc}$"):
                _quadratic_of_conductor(N, ring, D)
        else:
            assert _quadratic_of_conductor(N, ring, D) == expected, D
            assert parse_theta(f"quad@{D}", N, p, ring) == expected, D


def test_teichmuller_character_properties():
    ring = make_coeff_ring(7, 1, 24)
    omega = teichmuller_character(5, 7, ring)
    assert omega(-1) == -ring.one()
    assert (omega**2)(-1) == ring.one()
    assert omega.conductor() == 7
    assert not omega.is_even() and (omega**2).is_even()
    r7 = make_coeff_ring(7, 1, 6)
    om = teichmuller_character(1, 7, r7)
    assert om(2).coeffs == (2,)
    with pytest.raises(ValueError):
        teichmuller_character(7, 7, r7)


def test_restrict_to_part():
    ring = make_coeff_ring(7, 1, 24)
    omega = teichmuller_character(5, 7, ring)
    restricted = restrict_to_part(omega, 7)
    assert restricted.conductor() == 7
    for a in unit_group(7).units:
        assert restricted(a) == omega.primitive_eval(a)
    triv = [c for c in enumerate_characters(35, ring) if c.is_trivial()][0]
    assert restrict_to_part(triv, 5).is_trivial()
    with pytest.raises(ValueError):
        restrict_to_part(omega, 10)  # not a unitary divisor of 35
    # omega^2 * chi2 restricted to the 5-part is chi2
    chi2 = parse_theta("quad@5", 35, 7, ring)
    theta = (omega**2) * chi2
    back = restrict_to_part(theta, 5)
    for a in unit_group(5).units:
        assert back(a) == chi2.primitive_eval(a)


def test_even_character_count():
    for N, ring in [(5, make_coeff_ring(5, 1, 4)), (7, make_coeff_ring(7, 1, 6)),
                    (12, make_coeff_ring(3, 1, 4)), (35, make_coeff_ring(7, 1, 24))]:
        chars = enumerate_characters(N, ring)
        assert sum(c.is_even() for c in chars) == unit_group(N).phi // 2


def test_primitive_eval_factors_through_conductor():
    ring = make_coeff_ring(7, 1, 24)
    for chi in enumerate_characters(35, ring):
        f = chi.conductor()
        for a in unit_group(35).units:
            assert chi.primitive_eval(a) == chi(a)
        if f > 1:
            with pytest.raises(ValueError):
                chi.primitive_eval(f)


def test_parse_theta_grammar():
    ring = make_coeff_ring(7, 1, 24)
    t1 = parse_theta("[2,4]", 35, 7, ring)
    t2 = parse_theta("omega^2*quad@5", 35, 7, ring)
    assert t1 == t2
    assert parse_theta("1", 35, 7, ring).is_trivial()
    assert parse_theta("theta=[0,0]", 35, 7, ring).is_trivial()
    omega = teichmuller_character(5, 7, ring)
    assert parse_theta("omega^-2", 35, 7, ring) == omega**-2
    assert parse_theta("omega4", 35, 7, ring) == omega**4
    chi13 = parse_theta("chi@5^2", 35, 7, ring)
    assert chi13 == parse_theta("quad@5", 35, 7, ring)
    with pytest.raises(ValueError):
        parse_theta("chi", 35, 7, ring)  # ambiguous token is an error
    with pytest.raises(ValueError):
        parse_theta("[1]", 35, 7, ring)  # wrong vector length
    q35 = parse_theta("quad@35", 35, 7, ring)
    assert q35.conductor() == 35 and (q35 * q35).is_trivial()
    with pytest.raises(ValueError):
        parse_theta("quad@1", 35, 7, ring)  # no nontrivial character of conductor 1
    r5 = make_coeff_ring(5, 1, 4)
    with pytest.raises(ValueError):
        parse_theta("omega^2", 4, 5, r5)  # omega undefined at level prime to p


def test_over_descends_to_the_prime_subring_and_lifts_back():
    """A character with values in Z/7 moves between GR(7^k, 2) and Z/7^k
    without changing a value; one with a value outside Z/7 does not
    descend, and no map crosses p^k."""
    for k in (1, 2):
        gr, z = make_coeff_ring(7, k, 24), make_coeff_ring(7, k)
        theta = parse_theta("[2,4]", 35, 7, gr)
        down = theta.over(z)
        assert down.ring == z and (down.values == theta.values[:, :1]).all()
        assert down.over(gr) == theta and down.over(gr).label() == "[2,4]"
        assert theta.over(gr) is theta
        with pytest.raises(RingError):
            parse_theta("[1,1]", 35, 7, gr).over(z)
    with pytest.raises(RingError):
        parse_theta("[2,4]", 35, 7, make_coeff_ring(7, 1, 24)).over(make_coeff_ring(7, 2))


def _label_or_error(chi) -> str:
    try:
        return chi.label()
    except RingError as e:
        return f"RingError: {e}"


def _assert_same(chi, ref: ImageCharacter):
    assert (chi.N, chi.ring) == (ref.N, ref.ring)
    assert chi.values.tolist() == ref.values().tolist()
    assert _label_or_error(chi) == _label_or_error(ref)
    assert chi.conductor() == ref.conductor()
    assert chi.is_even() == ref.is_even()


def _canonical_ring(N: int, p: int, k: int):
    """make_coeff_ring(p, k, phi(N)).  At (47, 7, 1) that is GR(7, 22)
    modulo Phi_46, irreducible mod 7 since 7 has order 22 mod 46; it is
    built directly, because make_coeff_ring's lexicographic search would
    try about 7^21 moduli first.  There q - 1 = 7^22 - 1 is near 2^62."""
    if (N, p, k) == (47, 7, 1):
        return CoeffRing(7, 1, 22, tuple(c % 7 for c in cyclotomic_polynomial(46)), 46)
    return make_coeff_ring(p, k, unit_group(N).phi)


@pytest.mark.parametrize(
    "N,p,k",
    [(35, 7, 1), (35, 7, 2), (45, 7, 1), (12, 3, 1), (16, 3, 1),
     (24, 5, 1), (40, 3, 2), (21, 13, 1), (28, 13, 2), (15, 3, 19), (47, 7, 1)],
)
def test_characters_match_image_reference(N, p, k):
    """Exponents on the Teichmueller generator give the characters that
    generator images root_of_unity(ring, o_i)^t_i give in RingElem
    arithmetic: values, labels, conductors, parity, the maps between
    Z/p^k and GR(p^k, m), extension, CRT restriction and omega."""
    ug = unit_group(N)
    ring, prime = _canonical_ring(N, p, k), make_coeff_ring(p, k)
    no_map = make_coeff_ring(p, k + 1 if k == 1 else k - 1)
    labels = list(itertools.product(*map(range, ug.orders)))
    chars = enumerate_characters(N, ring)
    assert [chi.label() for chi in chars] == ["[" + ",".join(map(str, t)) + "]" for t in labels]
    parts = [q**e for q, e in prime_factorization(N).items()]
    # A RingElem product in GR(7, 22) costs about 0.5 ms, so there the
    # reference checks every 15th character.
    stride = 15 if ring.m > 12 else 1
    for chi, t in list(zip(chars, labels))[::stride]:
        ref = ImageCharacter.from_label(N, ring, t)
        _assert_same(chi, ref)
        try:
            down_ref = ref.over(prime)
        except RingError as e:
            with pytest.raises(RingError, match=str(e)):
                chi.over(prime)
        else:
            down = chi.over(prime)
            _assert_same(down, down_ref)
            assert down.over(ring) == chi
            _assert_same(down.over(ring), down_ref.over(ring))
        for target in (chi, ref):
            with pytest.raises(RingError):
                target.over(no_map)
        _assert_same(chi.extend(2 * N), ref.extend(2 * N))
        for D in parts:
            _assert_same(restrict_to_part(chi, D), ref.restrict(D))
    if N % p == 0:
        for r in (ring, prime):
            _assert_same(teichmuller_character(N // p, p, r), ImageCharacter.teichmuller(N // p, p, r))


def test_character_group_operations_make_no_ring_arithmetic(monkeypatch):
    """Products, powers, labels, parity, conductors and the maps between
    rings and moduli are integer operations on the exponents.  Only each
    ring's Teichmueller generator and its residue root mod p, constants
    cached per ring, are made before ring multiplication is switched off."""
    for k in (1, 2):
        gr, prime = make_coeff_ring(7, k, 24), make_coeff_ring(7, k)
        gr.teich_generator(), prime.teich_generator(), _prime_root(gr), _prime_root(prime)
        theta = parse_theta("[2,4]", 35, 7, gr)

        def refuse(*args):
            raise AssertionError("ring arithmetic in a character operation")

        with monkeypatch.context() as patch:
            for name in ("__mul__", "__rmul__", "__pow__"):
                patch.setattr(RingElem, name, refuse)
            chi = theta * theta.inverse() * theta**3
            assert chi.label() == "[2,0]" and (theta**-1).label() == "[2,2]"
            assert theta.is_even() and theta.conductor() == 35
            down = theta.over(prime)
            assert down.over(gr) == theta and down.is_even() and down.conductor() == 35
            assert theta.extend(70).label() == "[2,4]"
            assert restrict_to_part(theta, 5).label() == "[2]"
            assert restrict_to_part(theta, 7).label() == "[4]"
