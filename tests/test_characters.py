import random

import pytest

from cdsymbols.characters import (
    enumerate_characters,
    parse_theta,
    restrict_to_part,
    teichmuller_character,
    unit_group,
)
from cdsymbols.rings import RingError, make_coeff_ring, prime_factorization


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
