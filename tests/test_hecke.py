import random

import numpy as np
import pytest

from cdsymbols.characters import enumerate_characters, parse_theta, teichmuller_character, unit_group
from cdsymbols.eigen import _scatter, build_eigen_context, check_generation, eigensymbol_free
from cdsymbols.hecke import (
    QuotientSpec,
    quotient_rows,
    t2_eisenstein_relations,
    trivial_Ul_relations,
)
from cdsymbols.linalg import HowellAccumulator
from cdsymbols.rings import make_coeff_ring
from cdsymbols.symbols import build_presentation
from dense_reference import (
    apply_matrix,
    basis_dicts,
    diamond_perm,
    idempotent_projector,
    reference_projection,
    t2_eisenstein_relations_loop,
)


def scenario(p, k, M, variant="full"):
    N = M * p
    ring = make_coeff_ring(p, k, unit_group(N).phi)
    return N, ring, build_presentation(N, variant, ring)


def test_quotient_spec_validation():
    spec = QuotientSpec(trivial_u=(7, 5))
    assert spec.trivial_u == (5, 7)
    assert spec.label() == "trivU:5,7"
    with pytest.raises(ValueError):
        QuotientSpec(trivial_u=(4,)).validate(12, "full")
    with pytest.raises(ValueError):
        QuotientSpec(trivial_u=(11,)).validate(35, "full")
    with pytest.raises(ValueError):
        QuotientSpec(t2=True).validate(12, "cusp0")  # even level
    with pytest.raises(ValueError):
        QuotientSpec(t2=True).validate(35, "full")  # full variant without override
    QuotientSpec(t2=True, t2_allow_full=True).validate(35, "full")
    assert QuotientSpec().label() == "none"
    assert QuotientSpec(t2=True).label() == "t2eis"


def test_trivial_ul_relations_idempotent():
    N, ring, sp = scenario(7, 1, 5)
    rows = sp.dense_relation_rows(trivial_Ul_relations(sp, 7))
    acc1 = HowellAccumulator(ring, sp.nsym, np.concatenate([sp.dense_relation_rows(), rows]))
    acc2 = HowellAccumulator(ring, sp.nsym, np.concatenate([sp.dense_relation_rows(), rows, rows]))
    assert acc1.finalize() == acc2.finalize()


def test_trivial_ul_relations_are_diamond_stable():
    N, ring, sp = scenario(3, 1, 4)
    rows = sp.dense_relation_rows(trivial_Ul_relations(sp, 2))
    acc = HowellAccumulator(ring, sp.nsym, np.concatenate([sp.dense_relation_rows(), rows]))
    rng = random.Random(51)
    units = unit_group(12).units
    for row in rows[:10]:
        a = rng.choice(units)
        moved = np.zeros_like(row)
        moved[diamond_perm(sp, a)] = row
        assert acc.contains(moved)


@pytest.mark.parametrize("p,M,ell", [(7, 5, 5), (7, 5, 7), (5, 9, 3)])
@pytest.mark.parametrize("variant", ["full", "cusp0"])
def test_trivial_ul_relations_match_definition(p, M, ell, variant):
    """One row [ell u : v] - sum of [u' : v] over all u' mod N with
    ell u' = ell u, per symbol [w : v] with ell | w, in symbol order."""
    N, ring, sp = scenario(p, 1, M, variant)
    want = []
    for (w, z) in sp.symbols:
        if w % ell:
            continue
        row = ring.vzeros(sp.nsym)
        row[sp.idx(w, z), 0] += 1
        for u in range(N):
            if ell * u % N == w:
                row[sp.idx(u, z), 0] -= 1
        want.append(row % ring.pk)
    got = sp.dense_relation_rows(trivial_Ul_relations(sp, ell))
    assert len(got) == len(want) > 0
    assert np.array_equal(got, np.stack(want))


def test_u_operator_identity_at_35():
    # in the trivial-U_7 quotient: (1 - chi^{-1}(7)) alpha^{7g,h} = 6 alpha^{g,h}
    N, ring, sp = scenario(7, 1, 5)
    rows = sp.dense_relation_rows(trivial_Ul_relations(sp, 7))
    theta = parse_theta("[2,2]", N, 7, ring)
    rel = HowellAccumulator(ring, sp.nsym, list(sp.dense_relation_rows()) + list(rows))
    rng = random.Random(52)
    chars = enumerate_characters(N, ring)
    checked = 0
    while checked < 15:
        chi = rng.choice(chars)
        if chi.conductor() % 7 == 0 or chi.conductor() not in (1, 5):
            continue
        g, h = rng.choice([(1, 1), (1, 5), (5, 1)])
        psi = theta * chi.inverse()
        chi7 = chi.primitive_eval(7)
        lhs = ring.vscale(
            eigensymbol_free(sp, chi, psi, 7 * g, h),
            np.array((ring.one() - chi7.inverse()).coeffs, dtype=np.int64),
        )
        rhs = ring.vscale(
            eigensymbol_free(sp, chi, psi, g, h),
            np.array(ring.from_int(6).coeffs, dtype=np.int64),
        )
        assert rel.contains((lhs - rhs) % ring.pk)
        checked += 1


def test_u_operator_t_less_than_s_at_45():
    # N = 45 has a square factor: U_3 with t = 1 < s = 2 gives
    # alpha^{3g,h} = 3 alpha^{g,h} in the trivial-U_3 quotient
    N, ring, sp = scenario(5, 1, 9)
    rows = sp.dense_relation_rows(trivial_Ul_relations(sp, 3))
    theta = parse_theta("[0,0]", N, 5, ring)
    rel = HowellAccumulator(ring, sp.nsym, list(sp.dense_relation_rows()) + list(rows))
    chars = enumerate_characters(N, ring)
    rng = random.Random(53)
    checked = 0
    while checked < 8:
        chi = rng.choice(chars)
        if 15 % chi.conductor():
            continue  # need f_chi | N / 3
        psi = theta * chi.inverse()
        g, h = rng.choice([(1, 1), (1, 5), (5, 1)])
        lhs = eigensymbol_free(sp, chi, psi, 3 * g, h)
        rhs = ring.vscale(
            eigensymbol_free(sp, chi, psi, g, h),
            np.array(ring.from_int(3).coeffs, dtype=np.int64),
        )
        assert rel.contains((lhs - rhs) % ring.pk)
        checked += 1


def test_t2_relations_reject_bad_setups():
    N, ring, sp = scenario(3, 1, 4)  # N = 12 even
    with pytest.raises(ValueError):
        t2_eisenstein_relations(sp)
    N5, ring5, sp5 = scenario(5, 1, 1)
    with pytest.raises(ValueError):
        t2_eisenstein_relations(sp5)  # full variant without override
    idx, coeffs = t2_eisenstein_relations(sp5, allow_full=True)
    assert idx.shape == coeffs.shape == (sp5.nsym, 6)
    # omega^2 needs p | N; the global rows do not
    sp9 = build_presentation(9, "cusp0", make_coeff_ring(5, 1, 6))
    theta = next(c for c in enumerate_characters(9, sp9.ring) if c.is_even())
    with pytest.raises(ValueError):
        quotient_rows(sp9, 5, QuotientSpec(t2=True), theta)
    assert len(quotient_rows(sp9, 5, QuotientSpec(t2=True, t2_global=True), theta)) == 1


@pytest.mark.parametrize("p,M,variant", [(7, 5, "cusp0"), (5, 9, "cusp0"), (5, 3, "full"), (11, 1, "cusp0")])
def test_t2_relations_match_the_orbit_loop(p, M, variant):
    """The dense projector of e_{omega^2} applied to the six-term rows of
    the admissible orbit representatives gives the per-orbit loop of
    dense_reference, row for row and in order, over Z/p^k and over the
    Galois ring of the characters mod N, at k = 1 and 2."""
    N = M * p
    for k in (1, 2):
        for ring in (make_coeff_ring(p, k), make_coeff_ring(p, k, unit_group(N).phi)):
            sp = build_presentation(N, variant, ring)
            idx, coeffs = t2_eisenstein_relations(sp, allow_full=True)
            reps = np.isin(idx[:, 4], sp.orbits()[0])  # the term -2[u:v] is the symbol [u:v]
            P = idempotent_projector(sp, teichmuller_character(M, p, ring) ** 2)
            rows = [apply_matrix(ring, P, row) for row in sp.dense_relation_rows((idx[reps], coeffs[reps]))]
            expected = t2_eisenstein_relations_loop(sp, ring, p)
            assert len(rows) == len(expected) > 0
            assert np.array_equal(np.stack(rows), np.stack(expected)), (N, k, str(ring))


# (p, k, M, variant, ring degree m) of the T2 projection check
T2_PROJECTION_POOL = [
    (5, 1, 1, "cusp0", 1),
    (7, 2, 1, "cusp0", 1),
    (13, 1, 1, "cusp0", 1),
    (5, 2, 3, "full", 2),
    (3, 2, 5, "cusp0", 2),
    (7, 1, 5, "full", 2),
    (7, 1, 5, "cusp0", 2),
]


@pytest.mark.parametrize("p,k,M,variant,m", T2_PROJECTION_POOL)
def test_t2_block_is_the_projection_of_the_eisenstein_rows(p, k, M, variant, m):
    """For every even theta, the dense reference projection of the
    e_{omega^2} rows of dense_reference.t2_eisenstein_relations_loop equals
    the scattered six-term rows of the same orbit representatives when
    theta = omega^2, and is zero otherwise; quotient_rows gives the
    six-term block to omega^2 alone under `t2eis`, and to every theta under
    `t2eis-global`."""
    N = M * p
    ring = make_coeff_ring(p, k, unit_group(N).phi)
    assert ring.m == m
    sp = build_presentation(N, variant, ring)
    omega2 = teichmuller_character(M, p, ring) ** 2
    loop = np.stack(t2_eisenstein_relations_loop(sp, ring, p))
    idx, coeffs = t2_eisenstein_relations(sp, allow_full=True)
    reps = np.isin(idx[:, 4], sp.orbits()[0])  # the term -2[u:v] is the symbol [u:v]
    eisenstein = QuotientSpec(t2=True, t2_allow_full=variant == "full")
    everywhere = QuotientSpec(t2=True, t2_global=True, t2_allow_full=variant == "full")
    thetas = [c for c in enumerate_characters(N, ring) if c.is_even()]
    assert omega2 in thetas and len(thetas) > 1
    for theta in thetas:
        ctx = build_eigen_context(sp, p, M, theta)
        want = reference_projection(sp, theta, loop)
        ring_coeffs = coeffs[reps][..., None] * ring.one().as_array()
        got = _scatter(ring, ctx.col_of, ctx.scalars, len(ctx.basis), idx[reps], ring_coeffs)
        if theta == omega2:
            assert want.any() and np.array_equal(got, want)
        else:
            assert not want.any()
        assert len(quotient_rows(sp, p, eisenstein, theta)) == (theta == omega2)
        assert len(quotient_rows(sp, p, everywhere, theta)) == 1


def test_t2_relation_vector_matches_independent_evaluation():
    """e_{omega^2} of the six-term row of [1:1], evaluated by hand, is the
    dense projector applied to that row of the block."""
    N, ring, sp = scenario(5, 1, 1, variant="cusp0")
    idx, coeffs = t2_eisenstein_relations(sp)
    # independent evaluation for the orbit of (1, 1)
    omega2 = teichmuller_character(1, 5, ring) ** 2
    inv_phi = ring.from_int(4).inverse()
    expected = ring.vzeros(sp.nsym)
    for a in unit_group(5).units:
        coeff = (omega2.inverse()(a) * inv_phi).coeffs
        for pair, c in [((2 * a, a), 1), ((2 * a, 2 * a), 1), ((2 * a, 2 * a), 1),
                        ((a, 2 * a), 1), ((a, a), -2), ((2 * a, 2 * a), -1)]:
            i = sp.idx(*pair)
            expected[i] = (expected[i] + c * np.array(coeff, dtype=np.int64)) % ring.pk
    row = list(idx[:, 4]).index(sp.idx(1, 1))  # the term -2[u:v]
    dense = sp.dense_relation_rows((idx[row : row + 1], coeffs[row : row + 1]))[0]
    assert np.array_equal(apply_matrix(ring, idempotent_projector(sp, omega2), dense), expected)


def test_criterion_scenarios_pass_at_k1():
    r = check_generation(7, 1, 5, "Mp", "full", "omega^2*quad@5", QuotientSpec(trivial_u=(7,)))
    assert (r.case, r.equal, r.claim_ok) == ("U-ii", True, True)
    r = check_generation(3, 1, 4, "Mp", "cusp0", "[1,1]", QuotientSpec(trivial_u=(2,)))
    assert (r.case, r.equal, r.claim_ok) == ("U-iii", True, True)
    r = check_generation(5, 1, 1, "Mp", "cusp0", "omega^2", QuotientSpec(t2=True))
    assert (r.case, r.equal, r.claim_ok) == ("T2", True, True)


def test_t2_condition_is_not_vacuous():
    # without the T2 condition the omega^2 cusp0 eigenspace is strictly
    # bigger than the (c,d)-span; the condition collapses both
    before = check_generation(5, 1, 1, "Mp", "cusp0", "omega^2")
    assert before.dim_H == 2 and before.dim_C == 1
    after = check_generation(5, 1, 1, "Mp", "cusp0", "omega^2", QuotientSpec(t2=True))
    assert after.dim_H == after.dim_C == 0 and after.equal


def test_u_iii_with_ell_dividing_M_at_p7():
    r = check_generation(7, 1, 5, "Mp", "full", "omega^2*quad@5", QuotientSpec(trivial_u=(5,)))
    assert (r.case, r.equal, r.claim_ok) == ("U-iii", True, True)


def test_full_eisenstein_quotient():
    # all U_ell - 1 imposed: the Eisenstein-component statement
    r = check_generation(7, 1, 5, "Mp", "full", "omega^2*quad@5", QuotientSpec(trivial_u=(5, 7)))
    assert r.equal and r.claim_ok
    r2 = check_generation(3, 1, 4, "Mp", "cusp0", "[1,1]", QuotientSpec(trivial_u=(2, 3)))
    assert r2.equal and r2.claim_ok


def test_u_i_case_labels():
    r = check_generation(7, 1, 1, "Mp", "full", "[0]", QuotientSpec(trivial_u=(7,)))
    assert (r.case, r.equal, r.claim_ok) == ("U-i", True, True)


def test_t2_at_p3_is_out_of_range():
    # M = 1, p = 3 gives N = 3 < 4: below the level floor of the presentation
    with pytest.raises(ValueError):
        check_generation(3, 1, 1, "Mp", "cusp0", "1", QuotientSpec(t2=True))


def test_quotient_monotonicity():
    """The image of C computed upstairs equals C computed in the quotient."""
    N, ring, sp = scenario(5, 1, 1, variant="cusp0")
    theta = parse_theta("omega^2", N, 5, ring)
    rows = quotient_rows(sp, 5, QuotientSpec(t2=True), theta)
    from cdsymbols.eigen import cd_span

    ctx_plain = build_eigen_context(sp, 5, 1, theta)
    ctx_quot = build_eigen_context(sp, 5, 1, theta, extra_rows=rows)
    up = cd_span(ctx_plain)
    down = cd_span(ctx_quot)
    pushed = ctx_quot.rel_acc.copy()
    for col in basis_dicts(up)[0].values():
        pushed.add(col)
    assert pushed.finalize() == down.finalize()


def test_verdict_path_never_densifies_relations(monkeypatch):
    """Plain and quotient verdicts, including the case-b route through the
    extras and the elementary divisors, run with the dense relation helper
    disabled: the relations reach the eigenspace only as sparse terms."""
    from cdsymbols.symbols import SymbolSpace

    def refuse(space):
        raise AssertionError("the verdict path densified the relations")

    monkeypatch.setattr(SymbolSpace, "dense_relation_rows", refuse)
    report = check_generation(7, 1, 5, "Mp", "full", "[2,4]")
    assert (report.case, report.dim_H, report.dim_C, report.divisors) == ("b", 8, 6, (">=7",))
    u = check_generation(7, 1, 1, "Mp", "full", "omega^4", QuotientSpec(trivial_u=(7,)))
    t2 = check_generation(7, 2, 1, "Mp", "cusp0", "omega^2", QuotientSpec(t2=True))
    assert (u.case, t2.case) == ("U-i", "T2")
    assert u.equal and t2.equal
