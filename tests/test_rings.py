import random

import numpy as np
import pytest

from cdsymbols.rings import (
    RingError,
    chain_ring,
    make_coeff_ring,
    multiplicative_order,
    root_of_unity,
)
from dense_reference import teich_residue_by_full_scan, teichmuller


def brute_order(a, n):
    t, x = 1, a % n
    while x != 1:
        x = x * a % n
        t += 1
    return t


def test_make_coeff_ring_residue_degrees():
    assert make_coeff_ring(5, 1, 4).m == 1
    # oracle: multiplicative order of 7 modulo 20 computed by brute force
    assert brute_order(7, 20) == 4
    assert make_coeff_ring(7, 1, 20).m == 4
    r = make_coeff_ring(3, 2, 2)
    assert r.m == 1 and r.pk == 9


def test_make_coeff_ring_rejects_bad_input():
    with pytest.raises(RingError):
        make_coeff_ring(2, 1, 1)
    with pytest.raises(RingError):
        make_coeff_ring(4, 1, 1)
    with pytest.raises(RingError):
        make_coeff_ring(5, 1, 10)  # e divisible by p
    with pytest.raises(RingError):
        make_coeff_ring(5, 0, 2)


def test_modulus_poly_divides_cyclotomicish():
    ring = make_coeff_ring(7, 2, 24)
    assert ring.m == 2
    f = ring.modulus_poly
    assert f[-1] == 1 and len(f) == 3
    # x^24 = 1 must hold for the power-basis generator
    x = ring.generator()
    assert x**24 == ring.one()
    # the reduction of f mod p has no roots in F_p (degree 2, so irreducible)
    fp = [c % 7 for c in f]
    assert all((fp[0] + fp[1] * a + fp[2] * a * a) % 7 for a in range(7))


def test_root_of_unity_examples():
    for p, k, e in [(5, 2, 4), (7, 1, 6), (7, 2, 24)]:
        ring = make_coeff_ring(p, k, e)
        assert root_of_unity(ring, 1) == ring.one()
        assert root_of_unity(ring, 2) == -ring.one()
    r25 = make_coeff_ring(5, 2, 4)
    z4 = root_of_unity(r25, 4)
    assert z4.coeffs == (7,)
    assert (z4 * z4).coeffs == (24,)  # 7^2 = -1 mod 25
    with pytest.raises(RingError):
        root_of_unity(r25, 3)


def test_root_of_unity_deterministic_and_primitive():
    for p, k, e in [(5, 2, 4), (7, 1, 20), (7, 2, 24), (3, 3, 2)]:
        ring = make_coeff_ring(p, k, e)
        q = ring.q
        for n in [d for d in range(1, q) if (q - 1) % d == 0]:
            z = root_of_unity(ring, n)
            assert z ** n == ring.one()
            again = root_of_unity(make_coeff_ring(p, k, e), n)
            assert z == again
            # Hensel consistency: the reduction has exact order n in the field
            assert ring.residue_order(tuple(c % p for c in z.coeffs)) == n


def test_teichmuller_examples():
    r = make_coeff_ring(5, 2, 4)
    assert teichmuller(r, 1) == r.one()
    assert teichmuller(r, 4) == -r.one()
    assert teichmuller(r, 2).coeffs == (7,)
    assert teichmuller(r, 2) ** 4 == r.one()
    with pytest.raises(RingError):
        teichmuller(r, 5)
    r7 = make_coeff_ring(7, 1, 6)
    assert teichmuller(r7, 2).coeffs == (2,)  # at k = 1 the lift is the identity


def test_teich_generator_scan_from_p_matches_the_scan_from_2():
    """For m > 1 the scan for the canonical residue generator starts at
    c = p; it finds the generator of the scan from c = 2 in every GR(p, m)
    with p <= 13, root order e < 80, 2 <= m <= 4 and p^m <= 3 * 10^4."""
    pairs = [
        (p, e)
        for p in (3, 5, 7, 11, 13)
        for e in range(2, 80)
        if e % p and 2 <= multiplicative_order(p, e) <= 4 and p ** multiplicative_order(p, e) <= 3 * 10**4
    ]
    assert len(pairs) == 92
    for p, e in pairs:
        ring = make_coeff_ring(p, 1, e)
        assert ring.teich_generator().coeffs == teich_residue_by_full_scan(ring), (p, e)


def test_reduction_compatibility():
    rng = random.Random(11)
    for p, e in [(5, 4), (7, 24), (3, 2)]:
        ring3 = make_coeff_ring(p, 3, e)
        for k2 in (1, 2):
            low = ring3.reduce_to(k2)
            assert low == make_coeff_ring(p, k2, e)
            for _ in range(25):
                x = ring3.el([rng.randrange(ring3.pk) for _ in range(ring3.m)])
                y = ring3.el([rng.randrange(ring3.pk) for _ in range(ring3.m)])
                assert (x * y).reduce_to(low) == x.reduce_to(low) * y.reduce_to(low)
                assert (x + y).reduce_to(low) == x.reduce_to(low) + y.reduce_to(low)
                assert (x - y).reduce_to(low) == x.reduce_to(low) - y.reduce_to(low)


def test_unit_criterion_and_inverse():
    rng = random.Random(12)
    for p, k, e in [(5, 2, 4), (7, 2, 24), (3, 3, 2)]:
        ring = make_coeff_ring(p, k, e)
        for _ in range(50):
            x = ring.el([rng.randrange(ring.pk) for _ in range(ring.m)])
            expected_unit = any(c % p for c in x.coeffs)
            assert x.is_unit() == expected_unit
            if expected_unit:
                assert x * x.inverse() == ring.one()
            else:
                with pytest.raises(RingError):
                    x.inverse()


def test_ring_arithmetic_is_associative_and_distributive():
    rng = random.Random(13)
    ring = make_coeff_ring(7, 2, 24)
    for _ in range(60):
        x, y, z = (ring.el([rng.randrange(ring.pk) for _ in range(ring.m)]) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x


def test_valuation_and_powers():
    ring = make_coeff_ring(5, 3, 4)
    x = ring.from_int(7)
    assert x ** 0 == ring.one()
    assert x ** -1 == x.inverse()


def test_chain_ring_allows_two():
    r = chain_ring(2, 3)
    assert r.pk == 8
    assert multiplicative_order(3, 8) == 2
    with pytest.raises(RingError):
        chain_ring(6, 1)


def test_vector_helpers_match_scalar_ops():
    rng = random.Random(14)
    ring = make_coeff_ring(7, 2, 24)
    row = ring.vzeros(5)
    elems = []
    for i in range(5):
        e = ring.el([rng.randrange(ring.pk) for _ in range(ring.m)])
        elems.append(e)
        row[i] = e.as_array()
    s = ring.el([rng.randrange(ring.pk) for _ in range(ring.m)])
    scaled = ring.vscale(row, s.as_array())
    for i in range(5):
        assert tuple(int(c) for c in scaled[i]) == (s * elems[i]).coeffs


@pytest.mark.parametrize("p,e,top", [(3, 2, 19), (7, 24, 10), (13, 24, 8)])
def test_precision_ladder_straddles_int64_bound(p, e, top):
    """Up to the largest k with 2 m p^(2k) <= 2^63 the vector helpers agree
    with scalar RingElem arithmetic, extremes included; above it the ring
    is rejected."""
    rng = random.Random(1000 * p + top)
    for k in range(top - 2, top + 3):
        if k > top:
            with pytest.raises(RingError, match="2\\^63"):
                make_coeff_ring(p, k, e)
            continue
        ring = make_coeff_ring(p, k, e)
        top_elem = ring.el([ring.pk - 1] * ring.m)
        for _ in range(40):
            elems = [ring.el([rng.randrange(ring.pk) for _ in range(ring.m)]) for _ in range(4)]
            elems.append(top_elem)
            row = np.array([x.coeffs for x in elems], dtype=np.int64)
            for s in (ring.el([rng.randrange(ring.pk) for _ in range(ring.m)]), top_elem):
                scaled = ring.vscale(row, s.as_array())
                assert [tuple(int(c) for c in r) for r in scaled] == [(s * x).coeffs for x in elems]
                assert ring.vscale(row[:1], s.as_array()).tolist() == [list((s * elems[0]).coeffs)]
        # the widest (c,d)-generator combination, at its extreme, stays exact
        top_row = np.full((1, ring.m), ring.pk - 1, dtype=np.int64)
        s0 = t0 = ring.pk - 1
        combo = (top_row * (s0 * t0 % ring.pk) - top_row * s0 - top_row * t0 + top_row) % ring.pk
        exact = ((ring.pk - 1) * (s0 * t0 % ring.pk - s0 - t0 + 1)) % ring.pk
        assert combo.tolist() == [[exact] * ring.m]
    if e == 2:
        with pytest.raises(RingError, match="2\\^63"):
            chain_ring(p, top + 1)
