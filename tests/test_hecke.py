import random

import numpy as np
import pytest

from cdsymbols.characters import enumerate_characters, parse_theta, teichmuller_character, unit_group
from cdsymbols.eigen import build_eigen_context, eigensymbol_free
from cdsymbols.hecke import (
    QuotientSpec,
    check_generation_with_quotient,
    quotient_rows,
    t2_eisenstein_relations,
    trivial_Ul_relations,
)
from cdsymbols.linalg import HowellAccumulator
from cdsymbols.rings import make_coeff_ring
from cdsymbols.symbols import build_presentation
from dense_reference import t2_eisenstein_relations_loop


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
    rows = trivial_Ul_relations(sp, 7)
    acc1 = HowellAccumulator(ring, sp.nsym, np.concatenate([sp.dense_relation_rows(), rows]))
    acc2 = HowellAccumulator(ring, sp.nsym, np.concatenate([sp.dense_relation_rows(), rows, rows]))
    assert acc1.finalize() == acc2.finalize()


def test_trivial_ul_relations_are_diamond_stable():
    N, ring, sp = scenario(3, 1, 4)
    rows = trivial_Ul_relations(sp, 2)
    acc = HowellAccumulator(ring, sp.nsym, np.concatenate([sp.dense_relation_rows(), rows]))
    rng = random.Random(51)
    units = unit_group(12).units
    for row in rows[:10]:
        a = rng.choice(units)
        moved = np.zeros_like(row)
        moved[sp.diamond_perm(a)] = row
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
    got = trivial_Ul_relations(sp, ell)
    assert len(got) == len(want) > 0
    assert np.array_equal(got, np.stack(want))


def test_u_operator_identity_at_35():
    # in the trivial-U_7 quotient: (1 - chi^{-1}(7)) alpha^{7g,h} = 6 alpha^{g,h}
    N, ring, sp = scenario(7, 1, 5)
    rows = tuple(trivial_Ul_relations(sp, 7))
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
    rows = tuple(trivial_Ul_relations(sp, 3))
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
        t2_eisenstein_relations(sp, ring, 3)
    N5, ring5, sp5 = scenario(5, 1, 1)
    with pytest.raises(ValueError):
        t2_eisenstein_relations(sp5, ring5, 5)  # full variant without override
    assert t2_eisenstein_relations(sp5, ring5, 5, allow_full=True)


@pytest.mark.parametrize("p,M,variant", [(7, 5, "cusp0"), (5, 9, "cusp0"), (5, 3, "full"), (11, 1, "cusp0")])
def test_t2_relations_match_the_orbit_loop(p, M, variant):
    """The vectorised T2-Eisenstein rows equal the per-orbit loop of
    dense_reference, row for row and in order, over Z/p^k and over the
    Galois ring of the characters mod N, at k = 1 and 2."""
    N = M * p
    for k in (1, 2):
        for ring in (make_coeff_ring(p, k), make_coeff_ring(p, k, unit_group(N).phi)):
            sp = build_presentation(N, variant, ring)
            rows = t2_eisenstein_relations(sp, ring, p, allow_full=True)
            expected = t2_eisenstein_relations_loop(sp, ring, p)
            assert len(rows) == len(expected) > 0
            assert np.array_equal(np.stack(rows), np.stack(expected)), (N, k, str(ring))


def test_t2_relation_vector_matches_independent_evaluation():
    N, ring, sp = scenario(5, 1, 1, variant="cusp0")
    rows = t2_eisenstein_relations(sp, ring, 5)
    # independent re-implementation for the orbit of (1, 1)
    omega2 = teichmuller_character(1, 5, ring) ** 2
    inv_phi = ring.from_int(4).inverse()
    expected = ring.vzeros(sp.nsym)
    for a in unit_group(5).units:
        coeff = (omega2.inverse()(a) * inv_phi).coeffs
        for pair, c in [((2 * a, a), 1), ((2 * a, 2 * a), 1), ((2 * a, 2 * a), 1),
                        ((a, 2 * a), 1), ((a, a), -2), ((2 * a, 2 * a), -1)]:
            i = sp.idx(*pair)
            expected[i] = (expected[i] + c * np.array(coeff, dtype=np.int64)) % ring.pk
    rep_row = next(r for r in rows if r.any())
    candidates = [r for r in rows]
    assert any(np.array_equal(r, expected) for r in candidates)


def test_criterion_scenarios_pass_at_k1():
    r = check_generation_with_quotient(7, 1, 5, "Mp", "full", "omega^2*quad@5", QuotientSpec(trivial_u=(7,)))
    assert (r.case, r.equal, r.claim_ok) == ("U-ii", True, True)
    r = check_generation_with_quotient(3, 1, 4, "Mp", "cusp0", "[1,1]", QuotientSpec(trivial_u=(2,)))
    assert (r.case, r.equal, r.claim_ok) == ("U-iii", True, True)
    r = check_generation_with_quotient(5, 1, 1, "Mp", "cusp0", "omega^2", QuotientSpec(t2=True))
    assert (r.case, r.equal, r.claim_ok) == ("T2", True, True)


def test_t2_condition_is_not_vacuous():
    # without the T2 condition the omega^2 cusp0 eigenspace is strictly
    # bigger than the (c,d)-span; the condition collapses both
    from cdsymbols.eigen import check_generation

    before = check_generation(5, 1, 1, "Mp", "cusp0", "omega^2")
    assert before.dim_H == 2 and before.dim_C == 1
    after = check_generation_with_quotient(5, 1, 1, "Mp", "cusp0", "omega^2", QuotientSpec(t2=True))
    assert after.dim_H == after.dim_C == 0 and after.equal


def test_u_iii_with_ell_dividing_M_at_p7():
    r = check_generation_with_quotient(7, 1, 5, "Mp", "full", "omega^2*quad@5", QuotientSpec(trivial_u=(5,)))
    assert (r.case, r.equal, r.claim_ok) == ("U-iii", True, True)


def test_full_eisenstein_quotient():
    # all U_ell - 1 imposed: the Eisenstein-component statement
    r = check_generation_with_quotient(7, 1, 5, "Mp", "full", "omega^2*quad@5", QuotientSpec(trivial_u=(5, 7)))
    assert r.equal and r.claim_ok
    r2 = check_generation_with_quotient(3, 1, 4, "Mp", "cusp0", "[1,1]", QuotientSpec(trivial_u=(2, 3)))
    assert r2.equal and r2.claim_ok


def test_u_i_case_labels():
    r = check_generation_with_quotient(7, 1, 1, "Mp", "full", "[0]", QuotientSpec(trivial_u=(7,)))
    assert (r.case, r.equal, r.claim_ok) == ("U-i", True, True)


def test_t2_at_p3_is_out_of_range():
    # M = 1, p = 3 gives N = 3 < 4: below the level floor of the presentation
    with pytest.raises(ValueError):
        check_generation_with_quotient(3, 1, 1, "Mp", "cusp0", "1", QuotientSpec(t2=True))


def test_quotient_monotonicity():
    """The image of C computed upstairs equals C computed in the quotient."""
    N, ring, sp = scenario(5, 1, 1, variant="cusp0")
    theta = parse_theta("omega^2", N, 5, ring)
    rows = tuple(quotient_rows(sp, ring, 5, QuotientSpec(t2=True)))
    from cdsymbols.eigen import cd_span

    ctx_plain = build_eigen_context(sp, 5, 1, theta)
    ctx_quot = build_eigen_context(sp, 5, 1, theta, extra_rows=rows)
    up, _ = cd_span(ctx_plain)
    down, _ = cd_span(ctx_quot)
    pushed = ctx_quot.rel_acc.copy()
    for col in up.pivots.values():
        pushed.add(col)
    assert pushed.finalize() == down.finalize()


def test_verdict_path_never_densifies_relations(monkeypatch):
    """Plain and quotient verdicts, including the case-b route through the
    extras and the elementary divisors, run with the dense relation helper
    disabled: the relations reach the eigenspace only as sparse terms."""
    from cdsymbols.eigen import check_generation
    from cdsymbols.symbols import SymbolSpace

    def refuse(space):
        raise AssertionError("the verdict path densified the relations")

    monkeypatch.setattr(SymbolSpace, "dense_relation_rows", refuse)
    report = check_generation(7, 1, 5, "Mp", "full", "[2,4]")
    assert (report.case, report.dim_H, report.dim_C, report.divisors) == ("b", 8, 6, (">=7",))
    u = check_generation_with_quotient(7, 1, 1, "Mp", "full", "omega^4", QuotientSpec(trivial_u=(7,)))
    t2 = check_generation_with_quotient(7, 2, 1, "Mp", "cusp0", "omega^2", QuotientSpec(t2=True))
    assert (u.case, t2.case) == ("U-i", "T2")
    assert u.equal and t2.equal
