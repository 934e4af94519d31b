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
from cdsymbols.symbols import FULL, build_presentation
from dense_reference import basis_dicts, greedy_accumulator, greedy_add, greedy_reduce, membership


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
    assert len(sub.mat) == 3
    assert [list(r[:, 0]) for r in sub.mat] == rows


def test_z4_example_span():
    ring = chain_ring(2, 2)
    sub = howell_form([[2, 0], [1, 1]], ring, ncols=2)
    got = span_set([r[:, 0] for r in sub.mat], 4, 2)
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
        assert len(sub.mat) == 1
        j = sub.cols[0]
        assert sub.pvals[0] >= 1
        assert int(sub.mat[0][j, 0]) == 5 ** sub.pvals[0]


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
        cols = list(sub.cols)
        for j, q in wit.items():
            total = (total + ring.vscale(sub.mat[cols.index(j)], q)) % 25
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
        assert span_set(rows, pk, n) == span_set([r[:, 0] for r in sub.mat], pk, n)
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
        assert gr_span(rows) == gr_span(list(sub.mat))


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
    assert len(sub.mat) == 0 and sub.length == 0


# ---------------------------------------------------------------------------
# the stack kernels reduce_rows and add_rows against row-at-a-time greedy
# insertion (dense_reference.greedy_add), which shares no insertion code with them

KERNEL_RINGS = [
    pytest.param(lambda: chain_ring(7, 1), id="Z/7"),
    pytest.param(lambda: chain_ring(43, 1), id="Z/43"),
    pytest.param(lambda: chain_ring(2, 2), id="Z/4"),
    pytest.param(lambda: chain_ring(2, 3), id="Z/8"),
    pytest.param(lambda: chain_ring(3, 2), id="Z/9"),
    pytest.param(lambda: chain_ring(3, 3), id="Z/27"),
    pytest.param(lambda: chain_ring(5, 2), id="Z/25"),
    pytest.param(lambda: make_coeff_ring(7, 1, 24), id="GR(7,2)"),
    pytest.param(lambda: make_coeff_ring(7, 2, 24), id="GR(49,2)"),
    pytest.param(lambda: make_coeff_ring(3, 3, 8), id="GR(27,2)"),
]


def _random_stack(rng, ring, nrows, ncols):
    """Rows with a random p-power factor, so pivots of every valuation occur."""
    rows = rng.integers(0, ring.pk, size=(nrows, ncols, ring.m))
    scale = ring.p ** rng.integers(0, ring.k + 1, size=(nrows, 1, 1))
    return rows * scale % ring.pk


def _reduce_reference(acc, vec):
    """Full reduction of one row, one pivot column at a time with vscale."""
    ring = acc.ring
    pivots, vals = basis_dicts(acc)
    for j in sorted(pivots):
        q = vec[j] // ring.p ** vals[j]
        vec = (vec - ring.vscale(pivots[j], q)) % ring.pk
    return vec


@pytest.mark.parametrize("make_ring", KERNEL_RINGS)
def test_reduce_rows_is_rowwise_canonical_reduction(make_ring):
    ring = make_ring()
    rng = np.random.default_rng(ring.pk * 10 + ring.m)
    for trial in range(6):
        ncols = int(rng.integers(3, 7))
        acc = greedy_accumulator(ring, ncols, _random_stack(rng, ring, int(rng.integers(1, ncols + 2)), ncols))
        V = _random_stack(rng, ring, 12, ncols)
        R = acc.reduce_rows(V)
        span = acc.finalize().mat
        for v, r in zip(V, R):
            assert np.array_equal(r, _reduce_reference(acc, v))
            assert not greedy_reduce(acc, (v - r) % ring.pk).any()
            for j, pv in basis_dicts(acc)[1].items():
                assert (r[j] < ring.p**pv).all()
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
        seq = greedy_accumulator(ring, ncols, base)
        batched = seq.copy()
        for row in stack:
            greedy_add(seq, row)
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
    and leaves -p e5.  A second stack ties the pivot p e0: p e0 + e1 and
    p e0 + p e2 + e3 have valuation 1 at column 0, like the pivot, so any
    of the three may become the pivot there, and the form must not depend
    on which.  Each row is scaled by a random unit.  Then random stacks
    shorter than the number of columns."""
    ring = make_ring()
    p, k, pk = ring.p, ring.k, ring.pk
    rng = np.random.default_rng(ring.pk * 10 + ring.m + 2)
    e = np.zeros((6, 6, ring.m), dtype=np.int64)
    e[np.arange(6), np.arange(6), 0] = 1
    stacks = [
        ([e[0] + e[1], p * e[2] + e[3], p * e[4], e[4] + e[5]], {0: 0, 1: 1, 2: 1, 3: k - 1, 4: 0, 5: 1}),
        ([p * e[0] + e[1], p * e[0] + p * e[2] + e[3]], {0: 1, 1: 0, 2: 1, 3: k - 1}),
    ]
    for rows, vals in stacks:
        for trial in range(6):
            base = greedy_accumulator(ring, 6, [ring.vscale(p * e[0] % pk, _random_unit(rng, ring))])
            stack = np.stack([ring.vscale(r % pk, _random_unit(rng, ring)) for r in rows])
            seq = base.copy()
            for row in stack:
                greedy_add(seq, row)
            batched = base.copy()
            assert batched.add_rows(stack)
            assert batched.finalize() == seq.finalize()
            if k >= 2:
                assert basis_dicts(base)[1] == {0: 1}
                assert basis_dicts(batched)[1] == vals
    # random stacks too short to fill the ambient, so that a lost pivot or
    # saturation row is not covered by the other rows
    for trial in range(40):
        ncols = int(rng.integers(4, 9))
        base = greedy_accumulator(ring, ncols, _random_stack(rng, ring, int(rng.integers(0, 3)), ncols))
        stack = _random_stack(rng, ring, int(rng.integers(1, ncols)), ncols)
        seq = base.copy()
        for row in stack:
            greedy_add(seq, row)
        batched = base.copy()
        batched.add_rows(stack)
        assert batched.finalize() == seq.finalize()


def _random_unit(rng, ring):
    while True:
        u = rng.integers(0, ring.pk, size=ring.m)
        if (u % ring.p).any():
            return u


def _sparse_stack(rng, ring, nrows, ncols):
    """Rows with 2 or 3 nonzero entries, each with a random p-power factor."""
    rows = np.zeros((nrows, ncols, ring.m), dtype=np.int64)
    for row in rows:
        cols = rng.choice(ncols, size=int(rng.integers(2, 4)), replace=False)
        entries = rng.integers(1, ring.pk, size=(len(cols), ring.m))
        row[cols] = entries * ring.p ** rng.integers(0, ring.k, size=(len(cols), 1)) % ring.pk
    return rows


@pytest.mark.parametrize("make_ring", KERNEL_RINGS)
def test_add_rows_tall_sparse_stacks_match_greedy(make_ring):
    """Stacks far narrower than the ambient, with 2-3 nonzeros per row.
    The first part builds the lazy replacement: over pivots e_a and p e_c
    with a < c far apart, the row e_a + u e_c first reaches column c after
    column a is cleared, with a unit entry there, and replaces the pivot
    p e_c, which rejoins the rows and is cleared to zero."""
    ring = make_ring()
    p, pk = ring.p, ring.pk
    rng = np.random.default_rng(ring.pk * 10 + ring.m + 3)
    for trial in range(4):
        ncols = int(rng.integers(60, 200))
        a, c = sorted(rng.choice(ncols, size=2, replace=False))
        e = np.zeros((2, ncols, ring.m), dtype=np.int64)
        e[0, a, 0] = e[1, c, 0] = 1
        base_rows = np.concatenate([[e[0], p * e[1]], _sparse_stack(rng, ring, 3, ncols)])
        base = greedy_accumulator(ring, ncols, base_rows)
        reach = (e[0] + ring.vscale(e[1], _random_unit(rng, ring))) % pk
        stack = np.concatenate([_sparse_stack(rng, ring, int(rng.integers(10, 40)), ncols), [reach]])
        rng.shuffle(stack)
        seq = base.copy()
        for row in stack:
            greedy_add(seq, row)
        batched = base.copy()
        grew = batched.add_rows(stack)
        assert batched.finalize() == seq.finalize()
        assert batched.length == seq.length and grew
        assert basis_dicts(batched)[1][c] == 0


@pytest.mark.parametrize("k", [1, 2])
def test_add_rows_ambient_relations_match_greedy(k):
    """The ambient relation module at N = 35 (576 columns, 864 rows, GR(7^k, 2)),
    in one add_rows call and by greedy insertion."""
    ring = make_coeff_ring(7, k, 24)
    sp = build_presentation(35, FULL, ring)
    rows = sp.dense_relation_rows()
    batched = HowellAccumulator(ring, sp.nsym)
    assert batched.add_rows(rows)
    seq = greedy_accumulator(ring, sp.nsym, rows)
    assert batched.length == seq.length
    assert batched.finalize() == seq.finalize()


@pytest.mark.parametrize("make_ring", KERNEL_RINGS)
def test_add_rows_empty_stack_changes_nothing(make_ring):
    ring = make_ring()
    rng = np.random.default_rng(ring.pk * 10 + ring.m + 4)
    acc = greedy_accumulator(ring, 5, _random_stack(rng, ring, 3, 5))
    before = acc.finalize()
    length = acc.length
    assert acc.add_rows(np.zeros((0, 5, ring.m), dtype=np.int64)) is False
    assert acc.length == length and acc.finalize() == before


@pytest.mark.parametrize("make_ring", KERNEL_RINGS)
def test_copy_is_a_snapshot_the_source_cannot_grow(make_ring):
    """The basis arrays are replaced, never written into: a copy keeps its
    span while the source grows, and then the two compare unequal."""
    ring = make_ring()
    rng = np.random.default_rng(ring.pk * 10 + ring.m + 5)
    acc = HowellAccumulator(ring, 6, _random_stack(rng, ring, 2, 6))
    snap = acc.copy()
    kept = (snap.mat.copy(), snap.cols.copy(), snap.pvals.copy(), snap.length)
    assert snap == acc and acc.finalize() == acc
    assert acc.add_rows(np.eye(6, dtype=np.int64)[..., None] * ring.one().as_array())
    assert np.array_equal(snap.mat, kept[0]) and np.array_equal(snap.cols, kept[1])
    assert np.array_equal(snap.pvals, kept[2]) and snap.length == kept[3] < acc.length
    assert snap != acc
    assert HowellAccumulator(ring, 6) != HowellAccumulator(ring, 5)
    assert HowellAccumulator(ring, 6) != HowellAccumulator(chain_ring(ring.p, ring.k + 1), 6)


# ---------------------------------------------------------------------------
# exactness of the wide product (CoeffRing.vcombine) at the int64 bound


def _exact_combination(ring, coeffs, rows):
    """sum_t coeffs[b, t] rows[t] in Python integers, one RingElem product at a time."""
    out = np.zeros((len(coeffs), rows.shape[1], ring.m), dtype=np.int64)
    for b, row_coeffs in enumerate(coeffs):
        for j in range(rows.shape[1]):
            total = ring.zero()
            for c, row in zip(row_coeffs, rows):
                total = total + ring.el(tuple(int(x) for x in c)) * ring.el(tuple(int(x) for x in row[j]))
            out[b, j] = total.coeffs
    return out


def test_wide_product_is_chunked_below_the_int64_bound():
    """Z/(2^31 - 1) passes check_int64_precision with a chunk of 2 terms.  A
    product of width 4 whose unchunked int64 sum wraps still equals the
    exact combination, and reduce_rows and add_rows against 4 unit pivots
    still match the greedy reference."""
    ring = chain_ring(2**31 - 1, 1)
    pk = ring.pk
    assert ring.chunk == 2
    rng = np.random.default_rng(31)
    coeffs = rng.integers(pk - 2**20, pk, size=(6, 4, 1))
    rows = rng.integers(pk - 2**20, pk, size=(4, 5, 1))
    wrapped = coeffs[..., 0] @ rows[..., 0] % pk  # one unchunked int64 sum
    exact = _exact_combination(ring, coeffs, rows)
    assert not np.array_equal(wrapped, exact[..., 0])
    assert np.array_equal(ring.vcombine(coeffs, rows), exact)
    ncols = 7
    acc = greedy_accumulator(ring, ncols, rng.integers(pk - 2**20, pk, size=(4, ncols, 1)))
    assert basis_dicts(acc)[1] == {0: 0, 1: 0, 2: 0, 3: 0}
    V = rng.integers(pk - 2**20, pk, size=(8, ncols, 1))
    for v, r in zip(V, acc.reduce_rows(V)):
        assert np.array_equal(r, _reduce_reference(acc, v))
    seq = acc.copy()
    for row in V[:2]:
        greedy_add(seq, row)
    batched = acc.copy()
    assert batched.add_rows(V[:2])
    assert batched.finalize() == seq.finalize()


@pytest.mark.parametrize("p,e,top", [(3, 2, 19), (7, 24, 10), (13, 24, 8)])
def test_kernels_match_greedy_at_the_precision_tops(p, e, top):
    """At the tops of test_precision_ladder_straddles_int64_bound (Z/3^19,
    GR(7^10, 2), GR(13^8, 2)) reduce_rows and add_rows match the greedy
    reference, with entries p^k - 1 among the rows.  Z/3^19 and GR(13^8, 2)
    have product chunks of 6 and 13 terms and get more unit pivots than
    that, so their products run in several chunks."""
    ring = make_coeff_ring(p, top, e)
    pk = ring.pk
    ncols = min(ring.chunk + 3, 16)
    rng = np.random.default_rng(pk % 1000 + top)
    top_row = np.full((1, ncols, ring.m), pk - 1, dtype=np.int64)
    # echelon rows with unit leads, the first all p^k - 1
    base = rng.integers(0, pk, size=(ncols - 2, ncols, ring.m))
    for i, row in enumerate(base):
        row[:i] = 0
        row[i] = (1,) + (0,) * (ring.m - 1)
    base[0] = top_row[0]
    acc = greedy_accumulator(ring, ncols, base)
    assert (acc.pvals == 0).sum() == ncols - 2
    assert ncols - 2 > ring.chunk or ring.chunk > 100
    V = np.concatenate([rng.integers(0, pk, size=(6, ncols, ring.m)), top_row, top_row * 0 + 1])
    for v, r in zip(V, acc.reduce_rows(V)):
        assert np.array_equal(r, _reduce_reference(acc, v))
        assert not greedy_reduce(acc, (v - r) % pk).any()
    # over the span of p times some rows (non-unit pivots), and over acc
    for start in (greedy_accumulator(ring, ncols, base[:3] * p % pk), acc):
        seq = start.copy()
        for row in V:
            greedy_add(seq, row)
        batched = start.copy()
        assert batched.add_rows(V)
        assert batched.finalize() == seq.finalize()
