import random
from math import gcd

import numpy as np
import pytest

from cdsymbols.linalg import HowellAccumulator
from cdsymbols.rings import make_coeff_ring
from cdsymbols.characters import unit_group
from cdsymbols.symbols import _orbit_data, build_presentation, enumerate_symbols
from dense_reference import (
    canonical_pair,
    cd_symbol,
    cusp0_agreement,
    dense_relation_rows,
    diamond_action,
    diamond_perm,
    orbit_frame_by_table,
    orbits,
    relation_coeffs,
    relation_rows,
    vector_to_dict,
)


def brute_count(N, variant):
    seen = set()
    for u in range(N):
        for v in range(N):
            if gcd(gcd(u, v), N) != 1:
                continue
            if variant == "cusp0" and (u == 0 or v == 0):
                continue
            seen.add(min((u, v), ((-u) % N, (-v) % N)))
    return len(seen)


def rank_mod_p_oracle(rows, p):
    """Independent row reduction over F_p (dense Gaussian elimination)."""
    mat = [[int(x) % p for x in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    col = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] % p), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                c = mat[r][col]
                mat[r] = [(a - c * b) % p for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def test_symbol_counts():
    assert len(enumerate_symbols(5, "full")) == 12 == brute_count(5, "full")
    assert len(enumerate_symbols(5, "cusp0")) == 8 == brute_count(5, "cusp0")
    assert len(enumerate_symbols(4, "full")) == 6 == brute_count(4, "full")
    for N in (7, 9, 12, 35):
        for variant in ("full", "cusp0"):
            assert len(enumerate_symbols(N, variant)) == brute_count(N, variant)
    with pytest.raises(ValueError):
        enumerate_symbols(3, "full")
    with pytest.raises(ValueError):
        enumerate_symbols(5, "plain")


def test_enumerate_symbols_matches_the_loop():
    """The grid form gives the same tuple, in the same order, as the double
    loop over (u, v) that keeps each canonical unimodular pair."""
    for N in range(4, 61):
        for variant in ("full", "cusp0"):
            want = []
            for u in range(N):
                for v in range(N):
                    if gcd(gcd(u, v), N) != 1:
                        continue
                    if variant == "cusp0" and (u == 0 or v == 0):
                        continue
                    if (u, v) == canonical_pair(N, u, v):
                        want.append((u, v))
            assert enumerate_symbols(N, variant) == tuple(want)


def presentation_dim(N, variant, ring):
    sp = build_presentation(N, variant, ring)
    acc = HowellAccumulator(ring, sp.nsym, list(dense_relation_rows(sp)))
    return sp, sp.nsym * ring.k - acc.length


def test_presentation_dimensions_full():
    r5 = make_coeff_ring(5, 1, 4)
    sp, dim = presentation_dim(5, "full", r5)
    assert dim == 3
    assert rank_mod_p_oracle([row[:, 0] for row in dense_relation_rows(sp)], 5) == sp.nsym - 3
    r7 = make_coeff_ring(7, 1, 6)
    sp7, dim7 = presentation_dim(7, "full", r7)
    assert dim7 == 5
    assert rank_mod_p_oracle([row[:, 0] for row in dense_relation_rows(sp7)], 7) == sp7.nsym - 5


def test_presentation_dimension_cusp0_and_full_space_image():
    # The abstract cuspidal-at-zero quotient at N = 5 has length 2, while its
    # image inside the full space has length 1; both are reported and the
    # disagreement is expected (the presentation is universal, not minimal).
    r5 = make_coeff_ring(5, 1, 4)
    sp, dim = presentation_dim(5, "cusp0", r5)
    assert dim == 2
    assert rank_mod_p_oracle([row[:, 0] for row in dense_relation_rows(sp)], 5) == sp.nsym - 2
    agree = cusp0_agreement(5, r5)
    assert agree["abstract_length"] == 2
    assert agree["submodule_length"] == 1
    assert agree["agree"] is False


def test_cusp0_natural_map_carries_relations():
    ring = make_coeff_ring(5, 1, 4)
    full = build_presentation(5, "full", ring)
    cusp = build_presentation(5, "cusp0", ring)
    acc = HowellAccumulator(ring, full.nsym, list(dense_relation_rows(full)))
    for row in dense_relation_rows(cusp):
        mapped = ring.vzeros(full.nsym)
        for i, (u, v) in enumerate(cusp.symbols):
            if row[i].any():
                mapped[full.idx(u, v)] = (mapped[full.idx(u, v)] + row[i]) % ring.pk
        assert acc.contains(mapped)


def test_diamond_action():
    ring = make_coeff_ring(5, 1, 4)
    sp = build_presentation(5, "full", ring)
    n = sp.nsym
    assert np.array_equal(diamond_perm(sp, 1), np.arange(n))
    assert np.array_equal(diamond_perm(sp, -1 % 5), np.arange(n))
    rng = random.Random(31)
    units = unit_group(5).units
    for _ in range(50):
        a, b = rng.choice(units), rng.choice(units)
        assert np.array_equal(diamond_perm(sp, a)[diamond_perm(sp, b)], diamond_perm(sp, a * b))
    with pytest.raises(ValueError):
        diamond_perm(sp, 5)
    # the frame of every level against the one built through the action table
    for N in range(4, 90):
        for variant in ("full", "cusp0"):
            want = orbit_frame_by_table(N, variant)
            sp = build_presentation(N, variant, ring)
            assert np.array_equal(want["action"], diamond_action(sp))
            assert enumerate_symbols(N, variant) == sp.symbols == want["symbols"]
            reps, orbit_of, trans, image, partner, first, (rows, coeffs) = _orbit_data(N, variant)
            assert reps == orbits(sp)[0] == want["reps"]
            got = dict(
                u=sp.u, v=sp.v, table=sp.table, relation_rows=relation_rows(sp), relation_coeffs=relation_coeffs(sp),
                orbit_of=orbit_of, trans=trans, image=image, partner=partner, first=first,
                parabolic_rows=rows, parabolic_coeffs=coeffs,
            )
            for name, array in got.items():
                assert array.dtype == want[name].dtype and np.array_equal(array, want[name]), (N, variant, name)
                assert not array.flags.writeable


def test_diamond_preserves_relation_span():
    ring = make_coeff_ring(3, 1, 4)
    sp = build_presentation(12, "full", ring)
    rows = dense_relation_rows(sp)
    acc = HowellAccumulator(ring, sp.nsym, list(rows))
    rng = random.Random(32)
    units = unit_group(12).units
    for _ in range(20):
        a = rng.choice(units)
        row = rows[rng.randrange(len(rows))]
        moved = np.zeros_like(row)
        moved[diamond_perm(sp, a)] = row
        assert acc.contains(moved)


def test_cd_symbol_explicit_value():
    ring = make_coeff_ring(5, 1, 4)
    sp = build_presentation(5, "full", ring)
    vec = cd_symbol(sp, 7, 7, 1, 2)
    # independent evaluation: canonicalize the four terms by hand
    N, pk = 5, 5
    expected = {}
    for pair, coeff in [((1, 2), 49 * 49), ((1, 14), -49), ((7, 2), -49), ((7, 14), 1)]:
        key = canonical_pair(N, *pair)
        expected[key] = (expected.get(key, 0) + coeff) % pk
    assert vector_to_dict(sp, vec) == {k: (v,) for k, v in expected.items() if v}
    assert vector_to_dict(sp, vec) == {(1, 2): (1,), (1, 4): (1,), (2, 2): (1,), (2, 4): (1,)}


def test_cd_symbol_congruent_c_gives_zero():
    ring = make_coeff_ring(5, 2, 4)
    sp = build_presentation(5, "full", ring)
    # c = 1 mod N and mod p^k; d arbitrary
    c = 1 + 6 * 5 * 25
    assert not cd_symbol(sp, c, 7, 1, 2).any()
    assert not cd_symbol(sp, c, 13, 2, 1).any()


def test_cd_symbol_swap_antisymmetry():
    ring = make_coeff_ring(5, 1, 4)
    sp = build_presentation(5, "full", ring)
    acc = HowellAccumulator(ring, sp.nsym, list(dense_relation_rows(sp)))
    rng = random.Random(33)
    for _ in range(25):
        u, v = sp.symbols[rng.randrange(sp.nsym)]
        c = rng.choice([7, 11, 13, 17, 19, 23])
        d = rng.choice([7, 11, 13, 17, 19, 23])
        total = (cd_symbol(sp, c, d, u, v) + cd_symbol(sp, d, c, -v % 5, u)) % ring.pk
        assert acc.contains(total)


def test_cd_symbol_rejects_bad_parameters():
    ring = make_coeff_ring(5, 1, 4)
    sp = build_presentation(5, "full", ring)
    with pytest.raises(ValueError):
        cd_symbol(sp, 5, 7, 1, 2)  # gcd(c, 6N) != 1
    with pytest.raises(ValueError):
        cd_symbol(sp, 7, 3, 1, 2)
    with pytest.raises(ValueError):
        cd_symbol(sp, 1, 7, 1, 2)  # c must exceed 1
    with pytest.raises(ValueError):
        cd_symbol(sp, 7, 7, 0, 0)  # not a symbol


def test_cd_symbol_class_invariance():
    # the vector depends on c only through c mod N and c mod p^k
    ring = make_coeff_ring(5, 2, 4)
    sp = build_presentation(5, "full", ring)
    L = 150  # lcm(6N, p^k)
    v1 = cd_symbol(sp, 7, 11, 1, 2)
    v2 = cd_symbol(sp, 7 + 2 * L, 11 + L, 1, 2)
    assert np.array_equal(v1, v2)


def test_parabolic_row_with_zero_sum_forces_diagonal_symbol():
    # the u + v = 0 instance of the three-term relation makes [1:1] a boundary
    ring = make_coeff_ring(5, 1, 4)
    sp = build_presentation(5, "full", ring)
    acc = HowellAccumulator(ring, sp.nsym, list(dense_relation_rows(sp)))
    e11 = ring.vzeros(sp.nsym)
    e11[sp.idx(1, 1), 0] = 1
    assert acc.contains(e11)


def test_quotient_dimension_invariant_under_relabeling():
    rng = random.Random(34)
    ring = make_coeff_ring(3, 1, 4)
    sp = build_presentation(12, "full", ring)
    base = HowellAccumulator(ring, sp.nsym, list(dense_relation_rows(sp))).length
    for _ in range(5):
        perm = list(range(sp.nsym))
        rng.shuffle(perm)
        shuffled = [row[perm] for row in dense_relation_rows(sp)]
        assert HowellAccumulator(ring, sp.nsym, shuffled).length == base


def test_orbits_partition_and_transporters():
    ring = make_coeff_ring(7, 1, 24)
    sp = build_presentation(35, "full", ring)
    reps, orbit_of, trans = orbits(sp)
    assert sorted(set(int(x) for x in orbit_of)) == list(range(len(reps)))
    # every stabilizer is {1, -1}: the eigenspaces have one column per orbit
    assert (np.bincount(orbit_of) == unit_group(35).phi // 2).all()
    for i in range(sp.nsym):
        rep = reps[int(orbit_of[i])]
        a = int(trans[i])
        assert int(diamond_perm(sp, a)[rep]) == i


# rings at N = 12, 15 and 35: Z/p^k (p = 1 mod phi(N)) and GR(p^k, 2)
RELATION_GRID = [
    pytest.param(12, 5, id="N12-Z/5^k"),
    pytest.param(12, 7, id="N12-GR(7^k,2)"),
    pytest.param(15, 17, id="N15-Z/17^k"),
    pytest.param(15, 7, id="N15-GR(7^k,2)"),
    pytest.param(35, 73, id="N35-Z/73^k"),
    pytest.param(35, 7, id="N35-GR(7^k,2)"),
]


def reference_relation_rows(sp):
    """The sign and parabolic rows, built one symbol at a time with idx: per
    symbol [u:v] in order, [u:v] + [-v:u] when [u:v] comes first of the
    pair, then [u:v] - [u:u+v] - [u+v:v] unless a cusp0 term would vanish."""
    ring = sp.ring
    rows = []
    for i, (u, v) in enumerate(sp.symbols):
        terms = []
        if i <= sp.idx(-v, u):
            terms.append([(i, 1), (sp.idx(-v, u), 1)])
        if sp.variant == "full" or (u + v) % sp.N:
            terms.append([(i, 1), (sp.idx(u, u + v), -1), (sp.idx(u + v, v), -1)])
        for term in terms:
            row = ring.vzeros(sp.nsym)
            for j, c in term:
                row[j, 0] += c
            rows.append(row % ring.pk)
    return np.stack(rows)


@pytest.mark.parametrize("N,p", RELATION_GRID)
def test_relation_terms_densify_to_reference_rows(N, p):
    for k in (1, 2):
        ring = make_coeff_ring(p, k, unit_group(N).phi)
        assert ring.m == (2 if p == 7 else 1)
        for variant in ("full", "cusp0"):
            sp = build_presentation(N, variant, ring)
            dense = dense_relation_rows(sp)
            assert len(relation_rows(sp)) == len(dense)
            assert np.array_equal(dense, reference_relation_rows(sp))
