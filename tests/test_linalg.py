import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdsymbols.linalg import (
    HowellAccumulator,
    elementary_divisors,
    format_divisors,
    howell_form,
)
from cdsymbols.rings import chain_ring, make_coeff_ring
from dense_reference import membership


def span_set(rows, pk, n):
    """Oracle: enumerate the span as a set of coefficient tuples."""
    S = {(0,) * n}
    for r in rows:
        r = [int(x) % pk for x in r]
        S = {tuple((s[i] + c * r[i]) % pk for i in range(n)) for s in S for c in range(pk)}
    return S


def test_identity_rows_are_fixed():
    ring = chain_ring(3, 2)
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    sub = howell_form(rows, ring, ncols=3)
    assert sub.nrows() == 3
    assert [list(r[:, 0]) for r in sub.rows] == rows


def test_z4_example_span():
    ring = chain_ring(2, 2)
    sub = howell_form([[2, 0], [1, 1]], ring, ncols=2)
    got = span_set([r[:, 0] for r in sub.rows], 4, 2)
    want = span_set([[2, 0], [1, 1]], 4, 2)
    assert got == want and len(want) == 8


def test_principal_multiple_row():
    rng = random.Random(3)
    ring = chain_ring(5, 2)
    for _ in range(20):
        x = [rng.randrange(25) for _ in range(3)]
        if not any(v % 5 for v in x):
            continue
        sub = howell_form([[5 * v % 25 for v in x]], ring, ncols=3)
        assert sub.nrows() == 1
        j = sub.pivot_cols[0]
        assert sub.pivot_vals[0] >= 1
        assert int(sub.rows[0][j, 0]) == 5 ** sub.pivot_vals[0]


def test_membership_basics():
    ring = chain_ring(3, 2)
    sub = howell_form([[0, 1]], ring, ncols=2)
    ok, wit = membership([0, 0], sub)
    assert ok and wit == {}
    ok, wit = membership([0, 5], sub)
    assert ok and len(wit) == 1
    ok, wit = membership([1, 0], sub)
    assert not ok and wit is None
    with pytest.raises(ValueError):
        membership([1, 0, 0], sub)


def test_membership_witness_recombines_exactly():
    rng = random.Random(4)
    ring = chain_ring(5, 2)
    for _ in range(30):
        rows = [[rng.randrange(25) for _ in range(4)] for _ in range(3)]
        sub = howell_form(rows, ring, ncols=4)
        combo = np.zeros(4, dtype=np.int64)
        for r in rows:
            combo = (combo + rng.randrange(25) * np.array(r)) % 25
        ok, wit = membership(combo, sub)
        assert ok
        total = ring.vzeros(4)
        cols = list(sub.pivot_cols)
        for j, q in wit.items():
            total = (total + ring.vscale(sub.rows[cols.index(j)], q)) % 25
        assert list(total[:, 0]) == list(combo)


def test_elementary_divisors_examples():
    ring = chain_ring(5, 2)
    B = howell_form([[1, 0], [0, 1]], ring, ncols=2)
    assert elementary_divisors(B, B) == []
    A = howell_form([[5, 0], [0, 5]], ring, ncols=2)
    assert format_divisors(elementary_divisors(A, B), ring) == ["5", "5"]
    B1 = howell_form([[1, 0]], ring, ncols=2)
    A1 = howell_form([[5, 0]], ring, ncols=2)
    assert format_divisors(elementary_divisors(A1, B1), ring) == ["5"]
    with pytest.raises(ValueError):
        elementary_divisors(B, A)


def test_elementary_divisors_match_coset_counts():
    rng = random.Random(6)
    ring = chain_ring(5, 2)
    for _ in range(25):
        brows = [[rng.randrange(25) for _ in range(3)] for _ in range(2)]
        B = howell_form(brows, ring, ncols=3)
        arows = [
            list((np.array(brows[0]) * rng.randrange(25) + np.array(brows[1]) * rng.randrange(25)) % 25)
        ]
        A = howell_form(arows, ring, ncols=3)
        divs = elementary_divisors(A, B)
        size_ratio = len(span_set(brows, 25, 3)) // len(span_set(arows, 25, 3))
        assert math.prod(5**e for e in divs) == size_ratio


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (5, 2)])
def test_howell_oracle_random(p, k):
    rng = random.Random(100 * p + k)
    ring = chain_ring(p, k)
    pk = p**k
    for _ in range(30):
        n = rng.randint(1, 4)
        nrows = rng.randint(0, 3)
        rows = [[rng.randrange(pk) for _ in range(n)] for _ in range(nrows)]
        sub = howell_form(rows, ring, ncols=n)
        assert span_set(rows, pk, n) == span_set([r[:, 0] for r in sub.rows], pk, n)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert howell_form(shuffled, ring, ncols=n) == sub


def test_howell_oracle_galois_ring():
    rng = random.Random(7)
    ring = make_coeff_ring(3, 2, 8)  # GR(9, 2)
    assert ring.m == 2

    def enc(row):
        return tuple(int(c) for entry in row for c in entry)

    def gr_span(rows):
        ring_elems = [
            ring.el((a, b)) for a in range(9) for b in range(9)
        ]
        S = {enc(ring.vzeros(2))}
        for r in rows:
            S = {
                enc((np.array(s, dtype=np.int64).reshape(2, 2) + ring.vscale(r, c.as_array())) % 9)
                for s in S
                for c in ring_elems
            }
        return S

    for _ in range(6):
        rows = [
            np.array([[rng.randrange(9) for _ in range(2)] for _ in range(2)], dtype=np.int64)
            for _ in range(rng.randint(1, 2))
        ]
        sub = howell_form(rows, ring, ncols=2)
        assert gr_span(rows) == gr_span(list(sub.rows))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(st.integers(min_value=0, max_value=8), min_size=3, max_size=3), min_size=0, max_size=4),
    st.randoms(use_true_random=False),
)
def test_howell_membership_closed_under_combinations(rows, rnd):
    ring = chain_ring(3, 2)
    sub = howell_form(rows, ring, ncols=3)
    combo = np.zeros(3, dtype=np.int64)
    for r in rows:
        combo = (combo + rnd.randrange(9) * np.array(r, dtype=np.int64)) % 9
    assert membership(combo, sub)[0]
    acc = HowellAccumulator(ring, 3, [np.array(r, dtype=np.int64).reshape(3, 1) for r in rows])
    assert acc.length == sub.length


def test_empty_input_is_zero_module():
    ring = chain_ring(3, 2)
    sub = howell_form([], ring)
    assert sub.nrows() == 0 and sub.length == 0


# ---------------------------------------------------------------------------
# batched insertion: reduce_rows and add_rows against row-at-a-time code

KERNEL_RINGS = [
    pytest.param(lambda: chain_ring(2, 2), id="Z/4"),
    pytest.param(lambda: chain_ring(2, 3), id="Z/8"),
    pytest.param(lambda: chain_ring(3, 2), id="Z/9"),
    pytest.param(lambda: chain_ring(5, 2), id="Z/25"),
    pytest.param(lambda: make_coeff_ring(7, 1, 24), id="GR(7,2)"),
    pytest.param(lambda: make_coeff_ring(7, 2, 24), id="GR(49,2)"),
]


def _random_stack(rng, ring, nrows, ncols):
    """Rows with a random p-power factor, so pivots of every valuation occur."""
    rows = rng.integers(0, ring.pk, size=(nrows, ncols, ring.m))
    scale = ring.p ** rng.integers(0, ring.k + 1, size=(nrows, 1, 1))
    return rows * scale % ring.pk


def _reduce_reference(acc, vec):
    """Full reduction of one row, one pivot column at a time with vscale."""
    ring = acc.ring
    for j in sorted(acc.pivots):
        q = vec[j] // ring.p ** acc.vals[j]
        vec = (vec - ring.vscale(acc.pivots[j], q)) % ring.pk
    return vec


@pytest.mark.parametrize("make_ring", KERNEL_RINGS)
def test_reduce_rows_is_rowwise_canonical_reduction(make_ring):
    ring = make_ring()
    rng = np.random.default_rng(ring.pk * 10 + ring.m)
    for trial in range(6):
        ncols = int(rng.integers(3, 7))
        acc = HowellAccumulator(ring, ncols)
        for row in _random_stack(rng, ring, int(rng.integers(1, ncols + 2)), ncols):
            acc.add(row)
        V = _random_stack(rng, ring, 12, ncols)
        R = acc.reduce_rows(V)
        span = acc.finalize().rows
        for v, r in zip(V, R):
            assert np.array_equal(r, _reduce_reference(acc, v))
            assert np.array_equal(r, acc.reduce_full(v))
            assert acc.contains((v - r) % ring.pk)
            for j in acc.pivots:
                assert (r[j] < ring.p ** acc.vals[j]).all()
            # a canonical representative: shifting by the span changes nothing
            coeffs = rng.integers(0, ring.pk, size=(len(span), ring.m))
            shift = sum((ring.vscale(s, c) for s, c in zip(span, coeffs)), ring.vzeros(ncols))
            assert np.array_equal(acc.reduce_rows(((v + shift) % ring.pk)[None])[0], r)


@pytest.mark.parametrize("make_ring", KERNEL_RINGS)
def test_add_rows_matches_sequential_add(make_ring):
    ring = make_ring()
    rng = np.random.default_rng(ring.pk * 10 + ring.m + 1)
    for trial in range(6):
        ncols = int(rng.integers(2, 7))
        base = _random_stack(rng, ring, int(rng.integers(0, 3)), ncols)
        stack = _random_stack(rng, ring, int(rng.integers(1, 128)), ncols)
        # repeats and members of the span must be skipped, not double counted
        stack = np.concatenate([stack[:2], base, stack])
        seq = HowellAccumulator(ring, ncols, list(base))
        batched = seq.copy()
        for row in stack:
            seq.add(row)
        before = batched.length
        grew = batched.add_rows(stack)
        assert batched.finalize() == seq.finalize()
        assert grew == (batched.length > before)
        assert batched.add_rows(stack) is False


@pytest.mark.parametrize("make_ring", KERNEL_RINGS)
def test_add_rows_replaces_pivots_and_saturates_like_add(make_ring):
    """A stack whose elimination must replace a pivot, take the row of least
    valuation where a row of larger valuation comes first, and keep a pivot
    that only a saturation row reaches.  Over the span of p e0:
    e0 + e1 replaces the pivot p e0, which moves on to -p e1; p e2 + e3
    saturates to p^(k-1) e3; p e4 precedes e4 + e5, the pivot at column 4,
    and leaves -p e5.  Each row is scaled by a random unit.  Then random
    stacks shorter than the number of columns."""
    ring = make_ring()
    p, k, pk = ring.p, ring.k, ring.pk
    rng = np.random.default_rng(ring.pk * 10 + ring.m + 2)
    e = np.zeros((6, 6, ring.m), dtype=np.int64)
    e[np.arange(6), np.arange(6), 0] = 1
    rows = [e[0] + e[1], p * e[2] + e[3], p * e[4], e[4] + e[5]]
    for trial in range(6):
        base = HowellAccumulator(ring, 6, [ring.vscale(p * e[0] % pk, _random_unit(rng, ring))])
        stack = np.stack([ring.vscale(r % pk, _random_unit(rng, ring)) for r in rows])
        seq = base.copy()
        for row in stack:
            seq.add(row)
        batched = base.copy()
        assert batched.add_rows(stack)
        assert batched.finalize() == seq.finalize()
        if k >= 2:
            assert base.vals == {0: 1}
            assert batched.vals == {0: 0, 1: 1, 2: 1, 3: k - 1, 4: 0, 5: 1}
    # random stacks too short to fill the ambient, so that a lost pivot or
    # saturation row is not covered by the other rows
    for trial in range(40):
        ncols = int(rng.integers(4, 9))
        base = HowellAccumulator(ring, ncols, list(_random_stack(rng, ring, int(rng.integers(0, 3)), ncols)))
        stack = _random_stack(rng, ring, int(rng.integers(1, ncols)), ncols)
        seq = base.copy()
        for row in stack:
            seq.add(row)
        batched = base.copy()
        batched.add_rows(stack)
        assert batched.finalize() == seq.finalize()


def _random_unit(rng, ring):
    while True:
        u = rng.integers(0, ring.pk, size=ring.m)
        if (u % ring.p).any():
            return u
