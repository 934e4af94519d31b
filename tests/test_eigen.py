import json
import random
from math import gcd
from pathlib import Path

import numpy as np
import pytest

from cdsymbols.characters import enumerate_characters, parse_theta, teichmuller_character, unit_group
from cdsymbols.cli import parse_quotient, run_config
from cdsymbols.eigen import (
    _case_extras,
    _classify,
    _scatter,
    bezout_units,
    build_eigen_context,
    cd_eigensymbol,
    cd_span,
    check_generation,
    eigensymbol,
    eigensymbol_free,
    project,
    working_ring,
)
from cdsymbols.hecke import QuotientSpec, quotient_rows, t2_eisenstein_relations, trivial_Ul_relations
from cdsymbols.linalg import HowellAccumulator, elementary_divisors, howell_form
from cdsymbols.rings import RingError, is_prime, make_coeff_ring
from cdsymbols.symbols import build_presentation
from dense_reference import (
    apply_matrix,
    cd_coefficient_matrix,
    cd_eigensymbol_loop,
    cd_generators_full,
    cd_span_bruteforce,
    column_table,
    dense_relation_rows,
    diamond_perm,
    idempotent_projector,
    matrix_product,
    orbits,
    reference_projection,
    relation_coeffs,
    relation_rows,
    scalar_bases,
    sign_pair_map,
    sign_pairs,
    t2_eisenstein_relations_loop,
    t2_vector,
    verify_cd_span_of_one_p,
)
from manin_modp import ModpEigenspace


def scenario(p, k, M, level="Mp", variant="full"):
    N = M if level == "M" else M * p
    ring = make_coeff_ring(p, k, unit_group(N).phi)
    return N, ring, build_presentation(N, variant, ring)


# ---------------------------------------------------------------------------
# bezout_units


def test_bezout_units_frozen_examples():
    assert bezout_units(15, 3, 1) == (4, 4, 1)
    assert bezout_units(12, 1, 1) == (7, 7, 2)


def test_bezout_units_rule():
    rng = random.Random(41)
    for N in (5, 7, 12, 15, 16, 35, 45):
        divs = [d for d in range(1, N + 1) if N % d == 0]
        for g in divs:
            for h in divs:
                if gcd(g, h) != 1:
                    continue
                a, b, delta = bezout_units(N, g, h)
                assert delta == (1 if (N % 2 == 1 or (g * h) % 2 == 0) else 2)
                assert gcd(a, N) == 1 and gcd(b, N) == 1
                assert (a * g + b * h) % N == delta % N
    with pytest.raises(ValueError):
        bezout_units(12, 2, 4)


# ---------------------------------------------------------------------------
# idempotents and eigenspaces


def test_projector_trivial_group_is_identity():
    N, ring, sp = scenario(5, 1, 4, level="M")  # N = 4, Delta trivial
    theta = enumerate_characters(4, ring)[0]
    P = idempotent_projector(sp, theta)
    eye = np.zeros_like(P)
    for i in range(sp.nsym):
        eye[i, i, 0] = 1
    assert np.array_equal(P, eye)


def test_projector_rejects_odd_and_bad_p():
    N, ring, sp = scenario(5, 1, 1)
    odd = [c for c in enumerate_characters(5, ring) if not c.is_even()][0]
    with pytest.raises(ValueError):
        idempotent_projector(sp, odd)
    P = idempotent_projector(sp, odd, strict=False)
    assert not P.any()  # <-1> = identity kills odd components
    # p | phi(N): N = 11 with p = 5 (phi = 10)
    from cdsymbols.characters import DirichletCharacter

    r5 = make_coeff_ring(5, 1, 2)
    sp11 = build_presentation(11, "full", r5)
    trivial11 = DirichletCharacter(11, r5, (0,))
    with pytest.raises(RingError):
        idempotent_projector(sp11, trivial11)


def test_projectors_idempotent_orthogonal_and_complete():
    N, ring, sp = scenario(5, 1, 1)
    evens = [c for c in enumerate_characters(5, ring) if c.is_even()]
    mats = [idempotent_projector(sp, t) for t in evens]
    for P in mats:
        assert np.array_equal(matrix_product(ring, P, P), P)
    assert not matrix_product(ring, mats[0], mats[1]).any()
    # the even projectors sum to the identity on the presented quotient
    acc = HowellAccumulator(ring, sp.nsym, list(dense_relation_rows(sp)))
    total = (mats[0] + mats[1]) % ring.pk
    for j in range(sp.nsym):
        vec = ring.vzeros(sp.nsym)
        vec[j, 0] = 1
        diff = (total[:, j] - vec) % ring.pk
        assert acc.contains(diff)


def test_projector_commutes_with_diamonds():
    N, ring, sp = scenario(3, 1, 4)
    theta = [c for c in enumerate_characters(12, ring) if c.is_even()][1]
    P = idempotent_projector(sp, theta)
    for a in unit_group(12).units:
        perm = diamond_perm(sp, a)
        assert np.array_equal(P[perm][:, perm], P)


def test_eigenspace_dims_sum_to_quotient_length():
    for (p, k, M) in [(5, 1, 1), (7, 1, 1), (3, 1, 4)]:
        N, ring, sp = scenario(p, k, M)
        acc = HowellAccumulator(ring, sp.nsym, list(dense_relation_rows(sp)))
        qlen = sp.nsym * ring.k - acc.length
        total = 0
        for theta in enumerate_characters(N, ring):
            if not theta.is_even():
                continue
            total += build_eigen_context(sp, p, M, theta).dim_H
        assert total == qlen


@pytest.mark.parametrize("p,k,M", [(3, 1, 4), (3, 2, 4), (5, 1, 3), (5, 2, 3), (7, 1, 5), (7, 2, 5)])
def test_orbit_projection_matches_dense_projector(p, k, M):
    """pi presents e_theta.  Each orbit representative has stabilizer
    {1, -1}, so e_theta[rep] has entry 2/phi(N) at rep, and pi(v) is S of
    phi(N)/2 times the representative entries of P v, where S takes orbit
    coordinates to sigma-pair columns (`sign_pairs`).  And for seeded random
    sets V (the largest spans the eigenspace), V adds as much length over the
    ambient relations after P as pi(V) adds over the projected relations."""
    N, ring, sp = scenario(p, k, M)
    amb = HowellAccumulator(ring, sp.nsym, list(dense_relation_rows(sp)))
    reps = list(orbits(sp)[0])
    half_phi = ring.from_int(unit_group(N).phi // 2).as_array()
    rng = random.Random(1000 * N + k)
    for theta in enumerate_characters(N, ring):
        if not theta.is_even():
            continue
        ctx = build_eigen_context(sp, p, M, theta)
        P = idempotent_projector(sp, theta)
        for size in (1, 3, 12):
            amb_v = amb.copy()
            proj_v = ctx.rel_acc.copy()
            for _ in range(size):
                vec = np.array([[rng.randrange(ring.pk) for _ in range(ring.m)] for _ in range(sp.nsym)])
                pvec = apply_matrix(ring, P, vec)
                assert np.array_equal(project(ctx, vec), sign_pair_map(sp, theta, ring.vscale(pvec[reps], half_phi)))
                amb_v.add(pvec)
                proj_v.add(project(ctx, vec))
            assert amb_v.length - amb.length == proj_v.length - ctx.rel_length, theta.label()
        assert proj_v.length - ctx.rel_length == ctx.dim_H


# (N, p, M): Z/p^k and GR(p^k, 2) at N = 12, 15 and 35, as in the relation
# grid of test_symbols
PROJECTION_GRID = [
    pytest.param(12, 5, 12, id="N12-Z/5^k"),
    pytest.param(12, 7, 12, id="N12-GR(7^k,2)"),
    pytest.param(15, 17, 15, id="N15-Z/17^k"),
    pytest.param(15, 7, 15, id="N15-GR(7^k,2)"),
    pytest.param(35, 73, 35, id="N35-Z/73^k"),
    pytest.param(35, 7, 5, id="N35-GR(7^k,2)"),
]


def first_per_orbit(sp, block):
    """The rows of a term block that _relations_accumulator keeps, found row
    by row: the first of each diamond orbit of its first symbol, in orbit
    order."""
    idx, coeffs = block
    orbit_of = orbits(sp)[1]
    first = {}
    for i, row in enumerate(idx):
        first.setdefault(int(orbit_of[row[0]]), i)
    keep = [first[o] for o in sorted(first)]
    return idx[keep], coeffs[keep]


def quotient_cases(N, p, sp, evens):
    """(theta, spec, dense quotient rows) for the projected-relation checks:
    no quotient; trivial U_ell for the least prime ell | N; at odd N the
    raw six-term rows of `t2eis-global` (dense_reference.t2_vector); and
    when p | N as well, `t2eis` under theta = omega^2 and under another
    theta, whose dense rows are the e_{omega^2} rows of
    dense_reference.t2_eisenstein_relations_loop (pi kills them there)."""
    ring, cusp0 = sp.ring, sp.variant == "cusp0"
    ell = min(q for q in (2, 3, 5, 7) if N % q == 0)
    cases = [
        (evens[0], QuotientSpec(), np.zeros((0, sp.nsym, ring.m), dtype=np.int64)),
        (evens[-1], QuotientSpec(trivial_u=(ell,)), dense_relation_rows(sp, trivial_Ul_relations(sp, ell))),
    ]
    if N % 2:
        admissible = [(u, v) for u, v in sp.symbols if not cusp0 or (u + v) % N]
        spec = QuotientSpec(t2=True, t2_global=True, t2_allow_full=not cusp0)
        cases.append((evens[-1], spec, np.stack([t2_vector(sp, u, v) for u, v in admissible])))
    if N % 2 and N % p == 0:
        omega2 = teichmuller_character(N // p, p, ring) ** 2
        loop = np.stack(t2_eisenstein_relations_loop(sp, ring, p))
        other = next(c for c in evens if c != omega2)
        spec = QuotientSpec(t2=True, t2_allow_full=not cusp0)
        cases += [(omega2, spec, loop), (other, spec, loop)]
    return cases


@pytest.mark.parametrize("N,p,M", PROJECTION_GRID)
def test_projected_relations_equal_projected_dense_rows(N, p, M, monkeypatch):
    """The stack _relations_accumulator builds from the term blocks is pi of
    the selected dense rows, row for row: no sign row, and in each block
    (the parabolic rows, then the quotient blocks) the first row of each
    diamond orbit of its first symbol.  The quotient blocks are those of
    `quotient_cases`: trivial U_ell, and at odd N the six-term T2 block of
    `t2eis-global` and (p | N) of `t2eis`.  Its Howell form equals that of
    pi of all dense rows, sign rows and every dense quotient row included,
    under sequential `add`, and the H_theta target is all of R^r'."""
    stacks = []
    add_rows = HowellAccumulator.add_rows

    def recording(acc, rows):
        stacks.append(np.array(rows))
        return add_rows(acc, rows)

    for k in (1, 2):
        ring = make_coeff_ring(p, k, unit_group(N).phi)
        evens = [c for c in enumerate_characters(N, ring) if c.is_even()]
        for variant in ("full", "cusp0"):
            sp = build_presentation(N, variant, ring)
            dense = dense_relation_rows(sp)
            parabolic = relation_coeffs(sp)[:, 2] != 0
            for theta, spec, quotient in quotient_cases(N, p, sp, evens):
                blocks = quotient_rows(sp, p, spec, theta)
                stacks.clear()
                with monkeypatch.context() as m:
                    m.setattr(HowellAccumulator, "add_rows", recording)
                    ctx = build_eigen_context(sp, p, M, theta, blocks)
                manin = (relation_rows(sp)[parabolic], relation_coeffs(sp)[parabolic])
                selected = [dense_relation_rows(sp, first_per_orbit(sp, b)) for b in [manin, *blocks]]
                expected = project(ctx, np.concatenate(selected))
                assert len(stacks) == 1 and np.array_equal(stacks[0], expected), spec.label()
                r = len(ctx.basis)
                every = project(ctx, np.concatenate([dense, quotient]))
                assert ctx.rel_acc.finalize() == HowellAccumulator(ring, r, list(every)).finalize(), spec.label()
                target = ctx.rel_acc.copy()
                for row in ctx.basis:
                    target.add(row)
                assert ctx.htheta_target().finalize() == target.finalize()
                assert target.length == r * k


@pytest.mark.parametrize("N,p,M", PROJECTION_GRID)
def test_every_term_with_a_nonzero_coefficient_is_a_symbol(N, p, M, monkeypatch):
    """A -1 gathered from `space.table` would scatter into the last symbol
    without a trace.  The Manin rows, trivial U_ell for every prime ell | N,
    the six-term T2 block (`t2eis` and `t2eis-global`, odd N) and the terms
    of every eigensymbol (all coprime g, h | N) index a symbol wherever
    their coefficient is nonzero, in both variants."""
    import cdsymbols.eigen as eigen

    scattered = []
    scatter = eigen._scatter

    def recording(ring, col_of, scalars, r, idx, coeffs):
        scattered.append((np.asarray(idx), np.asarray(coeffs)))
        return scatter(ring, col_of, scalars, r, idx, coeffs)

    monkeypatch.setattr(eigen, "_scatter", recording)
    ring = make_coeff_ring(p, 1, unit_group(N).phi)
    chars = enumerate_characters(N, ring)
    theta = next(c for c in chars if c.is_even())
    divs = [d for d in range(1, N + 1) if N % d == 0]
    for variant in ("full", "cusp0"):
        sp = build_presentation(N, variant, ring)
        blocks = [(relation_rows(sp), relation_coeffs(sp))]
        blocks += [trivial_Ul_relations(sp, ell) for ell in divs if is_prime(ell)]
        if N % 2:
            blocks.append(t2_eisenstein_relations(sp, allow_full=True))
        ctx = build_eigen_context(sp, p, M, theta)
        scattered.clear()
        for chi in chars[:4]:
            for g in divs:
                for h in divs:
                    if gcd(g, h) == 1:
                        eigensymbol(ctx, chi, g, h)
        assert len(scattered) >= 4
        for idx, coeffs in blocks + scattered:
            nonzero = coeffs != 0 if coeffs.ndim == idx.ndim else coeffs.any(axis=-1)
            assert nonzero.any() and (idx[nonzero] >= 0).all()


def test_eigenspace_of_zero_module_is_zero():
    N, ring, sp = scenario(5, 1, 1)
    theta = [c for c in enumerate_characters(5, ring) if c.is_even()][0]
    kill = (np.arange(sp.nsym)[:, None], np.ones((sp.nsym, 1), dtype=np.int64))  # one-term rows [i]
    ctx = build_eigen_context(sp, 5, 1, theta, extra_rows=(kill,))
    assert ctx.htheta_target().length - ctx.rel_length == 0


def test_projection_rejects_rows_of_another_coefficient_width():
    """Ring-valued coefficients reach the scatter as dense rows and as the
    eigensymbol's psi^{-1} values.  A context over Z/7 (theta = [2,4] mod 35
    descended from GR(7, 2)) refuses 2-wide coefficients instead of summing
    them, GR(7, 2) psi^{-1} values among them, and a GR(7, 2) context
    refuses 1-wide rows; a character of the other ring is refused too."""
    for k in (1, 2):
        N, gr, sp_gr = scenario(7, k, 5)
        theta = parse_theta("[2,4]", N, 7, gr)
        z = working_ring(theta)
        sp_z = build_presentation(N, "full", z)
        ctx_z = build_eigen_context(sp_z, 7, 5, theta.over(z))
        ctx_gr = build_eigen_context(sp_gr, 7, 5, theta)
        assert project(ctx_z, z.vzeros(sp_z.nsym)).shape == (len(ctx_z.basis), 1)
        with pytest.raises(ValueError):
            project(ctx_z, gr.vzeros(sp_z.nsym))
        with pytest.raises(ValueError):
            project(ctx_z, np.ones((3, sp_z.nsym, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            project(ctx_gr, z.vzeros(sp_gr.nsym))
        om2 = ctx_gr.omega**2
        units = np.array(unit_group(N).units)
        idx = sp_z.table[1, 7 * units % N][None]
        psi_inv = ctx_gr.psi(om2).inverse().values[None]  # (1, phi(N), 2)
        with pytest.raises(ValueError):
            _scatter(z, ctx_z.col_of, ctx_z.scalars, len(ctx_z.basis), idx, psi_inv)
        assert _scatter(gr, ctx_gr.col_of, ctx_gr.scalars, len(ctx_gr.basis), idx, psi_inv).shape == (1, 24, 2)
        with pytest.raises(ValueError):
            eigensymbol(ctx_z, om2, 1, 7)


# ---------------------------------------------------------------------------
# eigensymbols


@pytest.mark.parametrize("N,p,M", PROJECTION_GRID)
def test_eigensymbol_is_the_reference_projection_of_the_free_vector(N, p, M):
    """eigensymbol, one phi(N)-term row through the scatter, equals the
    dense reference projection of eigensymbol_free for every coprime (g, h)
    with g, h | N, in both variants (g = N and h = N included, zero in
    cusp0), at k = 1 and 2, for two seeded even theta and a seeded
    character chi per pair, drawn where the conductors allow a nonzero
    symbol (f_chi | N/g and f_psi | N/h) when some chi does."""
    rng = random.Random(N * p)
    divs = [d for d in range(1, N + 1) if N % d == 0]
    pairs = [(g, h) for g in divs for h in divs if gcd(g, h) == 1]
    for k in (1, 2):
        ring = make_coeff_ring(p, k, unit_group(N).phi)
        chars = enumerate_characters(N, ring)
        evens = [c for c in chars if c.is_even()]
        for variant in ("full", "cusp0"):
            sp = build_presentation(N, variant, ring)
            for theta in rng.sample(evens, 2):
                ctx = build_eigen_context(sp, p, M, theta)
                cases = []
                for g, h in pairs:
                    support = [c for c in chars if (N // g) % c.conductor() == 0 and (N // h) % ctx.psi(c).conductor() == 0]
                    cases.append((rng.choice(support or chars), g, h))
                free = np.stack([eigensymbol_free(sp, chi, ctx.psi(chi), g, h) for chi, g, h in cases])
                want = reference_projection(sp, theta, free)
                got = np.stack([eigensymbol(ctx, chi, g, h) for chi, g, h in cases])
                assert np.array_equal(got, want), (k, variant, theta.label())
                if variant == "cusp0":
                    assert not got[[i for i, (_, g, h) in enumerate(cases) if N in (g, h)]].any()


@pytest.mark.parametrize("p,k,M", [(3, 1, 4), (5, 2, 3), (7, 1, 5)])
def test_eigensymbol_free_matches_scalar_sum(p, k, M):
    """The vectorised character sum equals the literal double loop over unit
    pairs in RingElem arithmetic, for every g, h and a seeded set of
    character pairs, in both variants."""
    rng = random.Random(100 * p + M)
    for variant in ("full", "cusp0"):
        N, ring, sp = scenario(p, k, M, variant=variant)
        chars = enumerate_characters(N, ring)
        units = unit_group(N).units
        inv_phi2 = (ring.from_int(len(units)) ** 2).inverse()
        divs = [d for d in range(1, N + 1) if N % d == 0]
        for g in divs:
            for h in divs:
                if gcd(g, h) != 1:
                    continue
                chi, psi = rng.choice(chars), rng.choice(chars)
                ref = [ring.zero() for _ in range(sp.nsym)]
                if variant == "full" or N not in (g, h):
                    for a in units:
                        for b in units:
                            i = sp.idx(g * a, h * b)
                            ref[i] = ref[i] + chi.inverse()(a) * psi.inverse()(b) * inv_phi2
                expected = np.array([x.coeffs for x in ref], dtype=np.int64)
                assert np.array_equal(eigensymbol_free(sp, chi, psi, g, h), expected)


def test_eigensymbol_conductor_support_vanishing():
    N, ring, sp = scenario(7, 1, 5)
    chars = enumerate_characters(35, ring)
    rng = random.Random(42)
    evens = [c for c in chars if c.is_even()]
    checked = 0
    while checked < 40:
        theta = rng.choice(evens)
        chi = rng.choice(chars)
        psi = theta * chi.inverse()
        divs = [d for d in range(1, 36) if 35 % d == 0]
        g, h = rng.choice(divs), rng.choice(divs)
        if gcd(g, h) != 1:
            continue
        if (35 // g) % chi.conductor() == 0 and (35 // h) % psi.conductor() == 0:
            continue
        assert not eigensymbol_free(sp, chi, psi, g, h).any()
        checked += 1


def test_eigensymbol_antisymmetry_in_quotient():
    N, ring, sp = scenario(5, 2, 1)
    ctx = build_eigen_context(sp, 5, 1, [c for c in enumerate_characters(5, ring) if c.is_even()][1])
    rel = HowellAccumulator(ring, sp.nsym, list(dense_relation_rows(sp)))
    chars = enumerate_characters(5, ring)
    for chi in chars:
        psi = ctx.theta * chi.inverse()
        for (g, h) in [(1, 1), (1, 5), (5, 1)]:
            v1 = eigensymbol_free(sp, chi, psi, g, h)
            v2 = eigensymbol_free(sp, psi, chi, h, g)
            tot = (v1 + ring.vscale(v2, np.array(chi(-1).coeffs, dtype=np.int64))) % ring.pk
            assert rel.contains(tot)


def test_alpha_omega2_omega2_vanishes_at_p5():
    # theta trivial at p = 5 means psi = theta * omega^{-2} = omega^2
    N, ring, sp = scenario(5, 1, 1)
    theta = [c for c in enumerate_characters(5, ring) if c.is_trivial()][0]
    ctx = build_eigen_context(sp, 5, 1, theta)
    om2 = ctx.omega**2
    beta = eigensymbol_free(sp, om2, ctx.psi(om2), 1, 1)
    assert HowellAccumulator(ring, sp.nsym, list(dense_relation_rows(sp))).contains(beta)


def test_cusp0_alpha_with_g_equal_N_is_zero():
    N, ring, sp = scenario(5, 1, 1, variant="cusp0")
    theta = [c for c in enumerate_characters(5, ring) if c.is_even()][0]
    ctx = build_eigen_context(sp, 5, 1, theta)
    assert not eigensymbol(ctx, theta, 5, 1).any()
    assert not eigensymbol(ctx, theta, 1, 5).any()


def test_cd_scalar_identity_exact():
    N, ring, sp = scenario(7, 1, 5)
    ctx = build_eigen_context(sp, 7, 5, parse_theta("omega^2*quad@5", 35, 7, ring))
    rng = random.Random(43)
    chars = enumerate_characters(35, ring)
    for _ in range(10):
        chi = rng.choice(chars)
        psi = ctx.theta * chi.inverse()
        c = rng.choice([11, 13, 17, 19, 23, 29])
        d = rng.choice([11, 13, 17, 19, 23, 29])
        lhs = cd_eigensymbol(ctx, c, d, chi, 1, 1)
        scalar = (ring.from_int(c * c) - chi(c)) * (ring.from_int(d * d) - psi(d))
        rhs = ring.vscale(eigensymbol_free(sp, chi, psi, 1, 1), np.array(scalar.coeffs, dtype=np.int64))
        assert np.array_equal(lhs, rhs)


@pytest.mark.parametrize("p,k,M,theta", [(13, 2, 1, "omega^4"), (7, 1, 5, "[1,1]")])
def test_cd_eigensymbol_matches_scalar_loop(p, k, M, theta):
    """The vectorised (c,d)-eigensymbol equals the literal double loop over
    unit pairs in RingElem arithmetic (dense_reference), over Z/13^2 and
    over GR(7, 2), in both variants, for every coprime divisor pair (g, h)
    and a seeded set of characters and (c, d)."""
    rng = random.Random(1000 * p + k)
    for variant in ("full", "cusp0"):
        N, ring, sp = scenario(p, k, M, variant=variant)
        assert ring.m == (1 if p == 13 else 2)
        ctx = build_eigen_context(sp, p, M, parse_theta(theta, N, p, ring))
        chars = enumerate_characters(N, ring)
        classes = [c for c in range(2, 12 * N) if gcd(c, 6 * N) == 1]
        divs = [d for d in range(1, N + 1) if N % d == 0]
        for g in divs:
            for h in divs:
                if gcd(g, h) != 1:
                    continue
                chi, c, d = rng.choice(chars), rng.choice(classes), rng.choice(classes)
                fast = cd_eigensymbol(ctx, c, d, chi, g, h)
                assert np.array_equal(fast, cd_eigensymbol_loop(ctx, c, d, chi, g, h)), (variant, g, h, c, d)


def test_unit_multiple_exists_away_from_omega_squared():
    # chi != omega^2 and psi != omega^2 admit (c, d) making the scalar a unit
    N, ring, sp = scenario(7, 1, 5)
    theta = parse_theta("omega^2*quad@5", 35, 7, ring)
    ctx = build_eigen_context(sp, 7, 5, theta)
    om2 = ctx.omega**2
    units = unit_group(35).units
    for chi in enumerate_characters(35, ring):
        psi = ctx.theta * chi.inverse()
        if chi == om2 or psi == om2:
            continue
        found_c = any((ring.from_int(a * a) - chi(a)).is_unit() for a in units)
        found_d = any((ring.from_int(a * a) - psi(a)).is_unit() for a in units)
        assert found_c and found_d


# ---------------------------------------------------------------------------
# the (c,d)-span against the literal class enumeration


@pytest.mark.parametrize(
    "p,k,M,level,variant",
    [
        (5, 1, 1, "Mp", "full"),
        (5, 2, 1, "Mp", "full"),
        (5, 2, 1, "Mp", "cusp0"),
        (3, 1, 4, "Mp", "full"),
        (3, 1, 4, "Mp", "cusp0"),
        (3, 2, 4, "M", "full"),
        (7, 1, 5, "M", "full"),
        (5, 1, 6, "M", "full"),
        (7, 1, 4, "M", "full"),
    ],
)
def test_cd_span_matches_bruteforce(p, k, M, level, variant):
    N, ring, sp = scenario(p, k, M, level, variant)
    for theta in enumerate_characters(N, ring):
        if not theta.is_even():
            continue
        ctx = build_eigen_context(sp, p, M, theta)
        opt = cd_span(ctx)
        brute = cd_span_bruteforce(ctx)
        assert opt.finalize() == brute.finalize()


def _stream_units(N, bound):
    units = np.array(unit_group(N).units, dtype=np.int64)
    return units if bound is None else units[units <= bound]


def _block_ends(n):
    """Where cd_span's blocks of n representatives end: after 1, 2, 4, 8, ...
    representatives, the last block cut at n."""
    ends, end = [], 1
    while end < n:
        ends.append(end)
        end *= 2
    return ends + [n] if n else []


@pytest.mark.parametrize(
    "p,k,M,level",
    [(3, 1, 4, "M"), (3, 2, 5, "M"), (3, 1, 10, "M"), (5, 2, 1, "Mp"), (7, 1, 5, "Mp")],
)
def test_full_stream_kept_with_one_square_class(p, k, M, level):
    """With one square-class base per unit (p = 3, or p | N) the stream is
    the bilinear one, row for row once its zero rows are left out (the
    columns vanish on the relations' unit pivots): over every a in U when a
    unit bound leaves out some unit, and over the generators of (Z/N)^x
    when U is the whole unit group (at N = 4 and 5 the bound 6 admits every
    unit)."""
    import cdsymbols.eigen as eigen

    N, ring, sp = scenario(p, k, M, level)
    theta = next(c for c in enumerate_characters(N, ring) if c.is_even())
    ctx = build_eigen_context(sp, p, M, theta)
    for bound in (None, 6):
        units = _stream_units(N, bound)
        bases = scalar_bases(p, ring.pk, N, units)
        assert bases.shape[1] == 1
        shared = eigen._stream_invariants(ctx, units)
        ug = unit_group(N)
        a_units = ug.generators if len(units) == ug.phi else None
        for rep in ctx.reps:
            full = cd_generators_full(ctx, rep, units, bases, a_units)
            assert np.array_equal(
                eigen._cd_generators(ctx, (rep,), shared, ctx.rel_acc),
                full[full.any(axis=(1, 2))],
            )


@pytest.mark.parametrize(
    "N,p",
    [(35, 7), (35, 5), (15, 3), (15, 5), (40, 5), (60, 5), (60, 3), (63, 7), (16, 3),
     (11, 11), (11, 3), (13, 13), (43, 43), (5, 5), (5, 3)],
)
def test_generator_pairs_span_the_full_coefficient_matrix(N, p):
    """Step (v) of the eigen docstring on the coefficient matrix of the
    bilinear stream over the symbol columns: for every even theta valued in
    Z/p^k, k = 1, 2, 3, the rows with a among the generators of (Z/N)^x have
    the Howell form of the rows of every a.  Negative control: with two or
    more generators, keeping only the first one loses rows for every theta
    (all six at N = 35, p = 7)."""
    ug = unit_group(N)
    for k in (1, 2, 3):
        canonical = make_coeff_ring(p, k, ug.phi)
        ring = make_coeff_ring(p, k)
        thetas = [c.over(ring) for c in enumerate_characters(N, canonical) if c.is_even() and c.descends]
        assert thetas
        for theta in thetas:
            full = howell_form(cd_coefficient_matrix(theta), ring, ug.phi)
            assert howell_form(cd_coefficient_matrix(theta, ug.generators), ring, ug.phi) == full, (k, theta.label())
            if len(ug.generators) > 1:
                assert howell_form(cd_coefficient_matrix(theta, ug.generators[:1]), ring, ug.phi) != full
        if (N, p) == (35, 7):
            assert len(thetas) == 6


@pytest.mark.parametrize(
    "p,k,M,level,variant",
    [
        (7, 1, 5, "Mp", "full"),
        (7, 2, 5, "Mp", "cusp0"),
        (5, 3, 1, "Mp", "full"),
        (3, 2, 5, "Mp", "full"),
        (5, 2, 8, "Mp", "full"),
        (43, 2, 1, "Mp", "cusp0"),
        (3, 3, 4, "M", "full"),
        (3, 1, 16, "M", "cusp0"),
    ],
)
def test_exhaustive_bilinear_stacks_are_at_most_gens_phi_rows(p, k, M, level, variant, monkeypatch):
    """When p | N or p = 3, an exhaustive cd_span forms one stack per block
    of representatives, of at most |gens| phi(N) + phi(N) + |gens| + 1 rows
    per representative of the block (the a axis runs over the generators
    of (Z/N)^x), for every even character, and every stack it passes
    add_rows is one of them."""
    import cdsymbols.eigen as eigen

    N, ring, sp = scenario(p, k, M, level, variant)
    ug = unit_group(N)
    g = len(ug.generators)
    contexts = [build_eigen_context(sp, p, M, c) for c in enumerate_characters(N, ring) if c.is_even()]
    stacks, heights = [], []
    add_rows, generators = HowellAccumulator.add_rows, eigen._cd_generators

    def recording(self, rows):
        heights.append(len(rows))
        return add_rows(self, rows)

    def blocks(ctx, block, *args):
        rows = generators(ctx, block, *args)
        stacks.append((len(block), len(rows)))
        return rows

    monkeypatch.setattr(HowellAccumulator, "add_rows", recording)
    monkeypatch.setattr(eigen, "_cd_generators", blocks)
    for ctx in contexts:
        stacks.clear()
        heights.clear()
        cd_span(ctx)
        assert stacks and heights, ctx.theta.label()
        for length, height in stacks:
            assert height <= length * (g * ug.phi + ug.phi + g + 1), (ctx.theta.label(), stacks)
        assert heights == [height for _, height in stacks if height], (ctx.theta.label(), stacks, heights)


@pytest.mark.parametrize("p,k,M", [(5, 1, 4), (5, 2, 6), (7, 1, 5), (7, 2, 9), (11, 1, 4), (13, 1, 5)])
def test_cd_span_stacks_are_at_most_phi_rows_when_p_prime_to_N(p, k, M, monkeypatch):
    """When p does not divide N and p >= 5, cd_span passes add_rows no
    stack at all, and stacks of at most phi(N) rows per representative
    reach the span it returns: the relations plus the symbol columns y_c of
    [u0 : c v0], c in U^-1 U, of the representatives first in their
    sigma-pair have the Howell form of R^r' ((i)-(iii) of the eigen module
    docstring), exhaustively and with a unit bound."""
    N, ring, sp = scenario(p, k, M, "M")
    phi = unit_group(N).phi
    contexts = [build_eigen_context(sp, p, M, c) for c in enumerate_characters(N, ring) if c.is_even()]
    heights = []
    add_rows = HowellAccumulator.add_rows

    def recording(self, rows):
        heights.append(len(rows))
        return add_rows(self, rows)

    for ctx in contexts:
        space = ctx.space
        target = ctx.htheta_target().finalize()
        for bound in (None, 6):
            units = [int(a) for a in _stream_units(N, bound)]
            quotients = np.array(sorted({pow(a, -1, N) * b % N for a in units for b in units}), dtype=np.int64)
            assert 1 in quotients and len(quotients) <= phi
            heights.clear()
            with monkeypatch.context() as m:
                m.setattr(HowellAccumulator, "add_rows", recording)
                span = cd_span(ctx, unit_bound=bound)
            assert heights == [], (ctx.theta.label(), bound, heights)
            assert span.finalize() == target, (ctx.theta.label(), bound)
            acc = ctx.rel_acc.copy()
            columns = column_table(ctx)
            for rep in ctx.reps:
                u0, v0 = space.symbols[rep]
                stack = columns[space.table[u0, quotients * v0 % N]]
                assert len(stack) <= phi
                acc.add_rows(stack)
            assert acc.finalize() == target, (ctx.theta.label(), bound)


SETTLED_POOL = [
    pytest.param(p, k, M, ("full", "cusp0"), None, id=f"{p}-{k}-{M}")
    for p, k, M in [(5, 1, 4), (5, 2, 6), (7, 1, 5), (7, 2, 9), (11, 1, 4), (13, 1, 5)]
] + [
    pytest.param(p, k, M, (variant,), None, id=f"{p}-{k}-{M}-{variant}")
    for p, k, M, variant in [
        (7, 1, 5, "full"),  # GR(7, 2)
        (7, 2, 5, "full"),  # GR(49, 2)
        (7, 3, 5, "cusp0"),  # GR(343, 2)
        (7, 1, 9, "full"),  # Z/7
        (7, 2, 9, "cusp0"),  # Z/49
        (7, 3, 9, "full"),  # Z/343
        (5, 2, 6, "full"),  # Z/25
        (11, 1, 4, "cusp0"),  # Z/11, five square classes
    ]
] + [
    pytest.param(7, 1, 5, ("full",), "[0]", id="Z7-N5-short"),
    pytest.param(7, 2, 9, ("cusp0",), "[2]", id="Z49-N9-short-cusp0"),
    pytest.param(7, 3, 9, ("full",), "[2]", id="Z343-N9-short"),
]


@pytest.mark.parametrize("p,k,M,variants,theta", SETTLED_POOL)
def test_every_scenario_prime_to_p_is_equal(p, k, M, variants, theta, monkeypatch):
    """For p not dividing N and p >= 5, C^theta is all of R^r' (so equal to
    H^theta) for every even theta, with or without a unit bound: the
    relations plus the literal bilinear streams over every square class
    (dense_reference.cd_generators_full) of the representatives first in
    their sigma-pair have the Howell form of R^r', exhaustively and with unit
    bounds 1 and 6.  cd_span returns that span, and neither it nor
    check_generation forms a stream."""
    import cdsymbols.eigen as eigen

    def not_called(*args, **kwargs):
        raise AssertionError("a (c,d)-stream was formed")

    N = M
    canonical = make_coeff_ring(p, k, unit_group(N).phi)
    for variant in variants:
        sp = build_presentation(N, variant, canonical)
        if theta is None:
            chars = [c for c in enumerate_characters(N, canonical) if c.is_even()]
        else:
            chars = [parse_theta(theta, N, p, canonical)]
        for chi in chars:
            ctx = build_eigen_context(sp, p, M, chi)
            target = ctx.htheta_target().finalize()
            for bound in (None, 1, 6):
                units = _stream_units(N, bound)
                bases = scalar_bases(p, canonical.pk, N, units)
                assert bases.shape[1] == (p - 1) // 2
                full = ctx.rel_acc.copy()
                for rep in ctx.reps:
                    full.add_rows(cd_generators_full(ctx, rep, units, bases))
                assert full.finalize() == target, (variant, chi.label(), bound)
                with monkeypatch.context() as m:
                    m.setattr(eigen, "_cd_generators", not_called)
                    assert cd_span(ctx, unit_bound=bound).finalize() == target
                    r = check_generation(p, k, M, "M", variant, chi, cd_bound=bound)
                assert r.equal and r.dim_C == r.dim_H, (variant, chi.label(), bound)
                assert r.extras == () and r.divisors == ()
                assert r.cd == ("exhaustive" if bound is None else f"bound={bound}")


@pytest.mark.parametrize(
    "p,k,M,level,variant,theta",
    [
        (7, 1, 1, "Mp", "full", "omega^4"),
        (7, 2, 1, "Mp", "cusp0", "omega^4"),
        (11, 1, 1, "Mp", "full", "omega^6"),
        (13, 1, 9, "M", "full", "[2]"),
        (7, 1, 5, "Mp", "full", "[2,4]"),
        (7, 1, 5, "Mp", "full", "[0,4]"),
        (5, 1, 1, "Mp", "cusp0", "[0]"),  # dim_H = 0
        (5, 2, 1, "Mp", "cusp0", "[0]"),
    ],
)
def test_cd_span_stops_at_target_with_the_exhaustive_length(p, k, M, level, variant, theta, monkeypatch):
    """cd_span returns the length of the exhaustive span of the literal
    bilinear streams (dense_reference.cd_generators_full), and its Howell
    form when that span is the target.  It forms the streams of the
    representatives first in their sigma-pair in blocks of 1, 1, 2, 4, ...,
    up to the end of the block in which the reference span becomes all of
    R^r': before the last one in the case-a scenarios, through every one
    when the span falls short, and none when p does not divide N and
    p >= 5 or when the relations already fill R^r' (dim_H = 0 at N = 5,
    cusp0, theta trivial)."""
    import cdsymbols.eigen as eigen

    N, ring, sp = scenario(p, k, M, level, variant)
    ctx = build_eigen_context(sp, p, M, parse_theta(theta, N, p, ring))
    target = ctx.htheta_target()
    units = _stream_units(N, None)
    bases = scalar_bases(p, ring.pk, N, units)
    full = ctx.rel_acc.copy()
    prefix = 0  # the representatives the reference needs to fill R^r'
    for rep in ctx.reps:
        if full.length == target.length:
            break
        prefix += 1
        full.add_rows(cd_generators_full(ctx, rep, units, bases))
    expected = list(ctx.reps[: next(end for end in [0, *_block_ends(len(ctx.reps))] if end >= prefix)])
    seen = []
    generators = eigen._cd_generators

    def recording(ctx, block, *args):
        seen.extend(block)
        return generators(ctx, block, *args)

    monkeypatch.setattr(eigen, "_cd_generators", recording)
    stopped = cd_span(ctx)
    assert stopped.length == full.length
    if full.length == target.length:
        assert stopped.finalize() == full.finalize()
    assert seen == ([] if p >= 5 and N % p else expected)
    if ctx.dim_H == 0:
        assert seen == [] and stopped.length == ctx.rel_length
    if _classify(ctx, QuotientSpec()) == "a":
        assert full.length == target.length
        assert len(seen) < len(ctx.reps)
    if full.length < target.length:
        first = sign_pairs(sp, ctx.theta)[2]
        assert seen == [rep for rep, f in zip(orbits(sp)[0], first) if f]


PINNED_REPORTS = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text())


@pytest.mark.parametrize("p,k", [(11, 1), (11, 2), (43, 1), (43, 2)])
def test_cd_span_returns_filled_relations_before_the_stream_invariants(p, k, monkeypatch):
    """When the relations already fill R^r' (dim_H = 0, as in the cusp0
    `t2eis` omega^2 scenarios of the benchmark), cd_span returns them before
    `_stream_invariants` runs, and the report is the pinned one.  A unit
    bound that excludes every class is still rejected first."""
    import cdsymbols.eigen as eigen

    def refuse(*args):
        raise AssertionError("stream invariants built with dim_H = 0")

    monkeypatch.setattr(eigen, "_stream_invariants", refuse)
    config = {"p": p, "k": k, "M": 1, "level": "Mp", "variant": "cusp0", "theta": "omega^2", "quotient": "t2eis"}
    report = run_config(config).to_json_dict()
    assert report["dims"] == {"H_theta": 0, "C_theta": 0}
    assert dict(report, millis=0) == PINNED_REPORTS[" ".join(f"--{f} {v}" for f, v in config.items())]
    N, ring, sp = scenario(p, k, 1, "Mp", "cusp0")
    theta = parse_theta("omega^2", N, p, ring)
    ctx = build_eigen_context(sp, p, 1, theta, quotient_rows(sp, p, QuotientSpec(t2=True), theta))
    with pytest.raises(ValueError, match="excludes every residue class"):
        cd_span(ctx, unit_bound=0)


REDUCED_STREAM_POOL = [
    pytest.param(5, 3, 1, "Mp", "full", "omega^2", "none", id="Z125-N5"),
    pytest.param(7, 2, 5, "Mp", "full", "[1,3]", "none", id="GR49-N35"),
    pytest.param(7, 1, 5, "Mp", "cusp0", "[2,4]", "trivU:7", id="N35-cusp0-trivU7"),
    pytest.param(5, 2, 7, "Mp", "full", "[1,1]", "none", id="GR25-N35"),
    pytest.param(3, 1, 5, "Mp", "full", "[1,3]", "none", id="GR3-N15"),
    pytest.param(3, 2, 5, "M", "cusp0", "[2]", "none", id="Z9-N5-cusp0"),
    pytest.param(11, 1, 1, "Mp", "full", "omega^4", "trivU:11", id="N11-trivU11"),
    pytest.param(11, 2, 1, "Mp", "cusp0", "omega^2", "t2eis", id="N11-cusp0-t2eis"),
    pytest.param(3, 19, 5, "Mp", "full", "[1,1]", "none", id="GR3^19-N15"),
    pytest.param(3, 19, 5, "Mp", "cusp0", "[0,2]", "none", id="Z3^19-N15-cusp0"),
]


@pytest.mark.parametrize("p,k,M,level,variant,theta,quotient", REDUCED_STREAM_POOL)
def test_reduced_streams_keep_the_span_after_every_representative(
    p, k, M, level, variant, theta, quotient, monkeypatch
):
    """cd_span forms each block's streams from the symbol columns reduced
    modulo the span before the block, on the columns without a unit pivot,
    and skips an all-zero stack.  After every block its span has the Howell
    form of the relations plus the bilinear streams of the representatives
    so far inserted unreduced (dense_reference.cd_generators_full),
    exhaustively and with unit bounds 1 and 6, up to the first block after
    which that span is all of R^r', where it stops; the pool runs k = 1, 2,
    3 and 19 (GR(3^19, 2), the top of the int64 ladder), Galois rings,
    cusp0 and quotient contexts."""
    import cdsymbols.eigen as eigen

    N, ring, sp = scenario(p, k, M, level, variant)
    theta = parse_theta(theta, N, p, ring)
    ctx = build_eigen_context(sp, p, M, theta, quotient_rows(sp, p, parse_quotient(quotient), theta))
    full_length = ctx.htheta_target().length
    spans = []
    generators = eigen._cd_generators

    def recording(ctx, block, shared, span):
        spans.append(span.finalize())
        return generators(ctx, block, shared, span)

    monkeypatch.setattr(eigen, "_cd_generators", recording)
    for bound in (None, 1, 6):
        spans.clear()
        spans.append(cd_span(ctx, unit_bound=bound).finalize())
        units = _stream_units(N, bound)
        bases = scalar_bases(p, ring.pk, N, units)
        full = ctx.rel_acc.copy()
        expected = [full.finalize()]
        ends = _block_ends(len(ctx.reps))
        for i, rep in enumerate(ctx.reps):
            if (i == 0 or i in ends) and full.length == full_length:
                break
            full.add_rows(cd_generators_full(ctx, rep, units, bases))
            if i + 1 in ends:
                expected.append(full.finalize())
        assert spans == expected, (bound, [a == b for a, b in zip(spans, expected)])


@pytest.mark.parametrize("theta,calls", [("[2,4]", 2), ("[0,4]", 1)])
def test_deficit_streams_reduce_to_zero_after_the_span_stops_growing(theta, calls, monkeypatch):
    """At N = 35 (p = 7, k = 1, the deficit scenarios in the ring they run
    in) the span stops growing after the second representative and never
    reaches H_theta.  Every later stream reduces to zero modulo the span,
    so cd_span calls add_rows `calls` times instead of once per
    representative (24)."""
    gr = make_coeff_ring(7, 1, 24)
    theta = parse_theta(theta, 35, 7, gr)
    ring = working_ring(theta)
    ctx = build_eigen_context(build_presentation(35, "full", ring), 7, 5, theta.over(ring))
    target = ctx.htheta_target()
    heights = []
    add_rows = HowellAccumulator.add_rows

    def recording(self, rows):
        heights.append(len(rows))
        return add_rows(self, rows)

    monkeypatch.setattr(HowellAccumulator, "add_rows", recording)
    span = cd_span(ctx)
    assert len(ctx.reps) == 24 and span.length < target.length
    assert len(heights) == calls and min(heights) > 0


@pytest.mark.parametrize("theta", ["[2,4]", "[0,4]"])
def test_streams_reduce_the_unit_columns_once_per_block(theta, monkeypatch):
    """By step (iv) of the eigen docstring, `_cd_generators` reduces only the
    r' unit columns, as one (r', r', m) stack and at most once per block,
    and gathers every symbol of its streams from them (N = 35, p = 7, k = 1,
    the deficit scenarios in the ring they run in)."""
    import cdsymbols.eigen as eigen

    gr = make_coeff_ring(7, 1, 24)
    chi = parse_theta(theta, 35, 7, gr)
    ring = working_ring(chi)
    ctx = build_eigen_context(build_presentation(35, "full", ring), 7, 5, chi.over(ring))
    per_block = []  # the shapes of the stacks each block reduced
    reduce_rows, generators = HowellAccumulator.reduce_rows, eigen._cd_generators

    def recording(ctx, block, *args):
        shapes = []
        per_block.append(shapes)

        def reducing(self, rows):
            shapes.append(np.shape(rows))
            return reduce_rows(self, rows)

        with monkeypatch.context() as m:
            m.setattr(HowellAccumulator, "reduce_rows", reducing)
            return generators(ctx, block, *args)

    monkeypatch.setattr(eigen, "_cd_generators", recording)
    cd_span(ctx)
    assert len(per_block) == 6 and sum(map(len, per_block)) >= 2, per_block
    assert all(shapes in ([], [(ctx.r, ctx.r, ring.m)]) for shapes in per_block), per_block


@pytest.mark.parametrize(
    "N,p,M,descend", [(35, 7, 5, True), (35, 7, 5, False), (43, 43, 1, True), (63, 7, 9, True)]
)
def test_gathered_columns_match_the_all_symbol_table(N, p, M, descend):
    """The columns a (c,d)-stream gathers (scalars[i] times basis[col_of[i]])
    equal the all-symbol einsum table (dense_reference.column_table) for
    every symbol, at k = 1 and 2, full and cusp0, for every even theta: at
    N = 35 over Z/7^k and over GR(7^k, 2), at N = 43 over Z/43^k, and at
    N = 63 over Z/7^k."""
    import cdsymbols.eigen as eigen

    for k in (1, 2):
        canonical = make_coeff_ring(p, k, unit_group(N).phi)
        thetas = [c for c in enumerate_characters(N, canonical) if c.is_even() and c.descends == descend]
        assert thetas
        for variant in ("full", "cusp0"):
            for theta in thetas:
                ring = working_ring(theta)
                assert ring.m == (1 if descend else 2)
                sp = build_presentation(N, variant, ring)
                ctx = build_eigen_context(sp, p, M, theta.over(ring))
                gathered = eigen._symbol_columns(ctx, np.arange(sp.nsym), ctx.basis)
                assert np.array_equal(gathered, column_table(ctx)), (k, variant, theta.label())


def test_contexts_of_one_level_share_the_orbit_frame(monkeypatch):
    """Two rings and two theta of one (N, variant) read one `_orbit_data`
    frame: the orbits, the sigma-pairs and the parabolic rows cut to one per
    orbit are built once per (N, variant), and read-only."""
    import cdsymbols.eigen as eigen

    frames = []
    orbit_data = eigen._orbit_data

    def recording(N, variant):
        frames.append(orbit_data(N, variant))
        return frames[-1]

    monkeypatch.setattr(eigen, "_orbit_data", recording)
    gr = make_coeff_ring(7, 1, 24)
    for theta in ("[2,4]", "[1,3]"):
        chi = parse_theta(theta, 35, 7, gr)
        for ring in {gr, working_ring(chi)}:
            build_eigen_context(build_presentation(35, "full", ring), 7, 5, chi.over(ring))
    assert len(frames) == 3 and all(frame is frames[0] for frame in frames)
    assert frames[0] is not orbit_data(35, "cusp0")
    assert not any(a.flags.writeable for a in (*frames[0][1:6], *frames[0][6]))


@pytest.mark.parametrize("p,M,thetas", [(7, 5, ("[2,4]", "[0,4]")), (13, 1, None)])
def test_sigma_partner_streams_add_nothing(p, M, thetas):
    """cd_span visits only the representatives first in their sigma-pair:
    modulo the sign relations the (c,d)-symbol of sigma[u:v] is minus the
    (d,c)-symbol of [u:v], and the classes are symmetric in (c, d).  Adding
    the generator streams of every orbit representative gives the same
    Howell form, at k = 1 and 2, exhaustively and with a unit bound."""
    import cdsymbols.eigen as eigen

    for k in (1, 2):
        N, ring, sp = scenario(p, k, M)
        if thetas is None:
            chars = [c for c in enumerate_characters(N, ring) if c.is_even()]
        else:
            chars = [parse_theta(t, N, p, ring) for t in thetas]
        every = orbits(sp)[0]
        for theta in chars:
            ctx = build_eigen_context(sp, p, M, theta)
            assert len(ctx.reps) < len(every)
            for bound in (None, 6):
                units = np.array(unit_group(N).units, dtype=np.int64)
                if bound is not None:
                    units = units[units <= bound]
                shared = eigen._stream_invariants(ctx, units)
                acc = ctx.rel_acc.copy()
                for rep in every:
                    acc.add_rows(eigen._cd_generators(ctx, (rep,), shared, acc))
                span = cd_span(ctx, unit_bound=bound)
                assert span.finalize() == acc.finalize(), (k, theta.label(), bound)


@pytest.mark.parametrize(
    "args,calls,equal",
    [
        ((7, 1, 9, "M", "full", "[2]"), 1, True),  # cd_span returns R^r' itself
        ((7, 1, 5, "Mp", "full", "[2,4]"), 1, False),  # the elementary divisors
        ((7, 1, 1, "Mp", "full", "omega^4"), 0, True),  # no target is built
    ],
)
def test_generation_builds_at_most_one_htheta_target(args, calls, equal, monkeypatch):
    """check_generation decides `equal` from the span's length against
    r' k and builds the H_theta target only where it is read: returned by
    cd_span when p does not divide N and p >= 5, or for the elementary
    divisors of a span that falls short."""
    from cdsymbols.eigen import EigenContext

    built = []
    target = EigenContext.htheta_target

    def counting(ctx):
        built.append(ctx.N)
        return target(ctx)

    monkeypatch.setattr(EigenContext, "htheta_target", counting)
    report = check_generation(*args)
    assert len(built) == calls, built
    assert report.equal == equal and bool(report.divisors) != equal


def test_cd_span_containment_and_bound_mode():
    N, ring, sp = scenario(7, 1, 5)
    theta = parse_theta("[2,4]", 35, 7, ring)
    ctx = build_eigen_context(sp, 7, 5, theta)
    target = ctx.htheta_target()
    full = cd_span(ctx)
    assert full.length <= target.length  # C^theta inside H^theta
    bounded = cd_span(ctx, unit_bound=6)
    assert bounded.length <= full.length


# ---------------------------------------------------------------------------
# the working ring


def _descent_invariants(N, p, k, M, spec, quotient, ring):
    """rel_length, dim_H, the exhaustive cd_span length, the case and the
    elementary divisors after the case extras, computed in `ring`."""
    canonical = make_coeff_ring(p, k, unit_group(N).phi)
    theta = parse_theta(spec, N, p, canonical).over(ring)
    sp = build_presentation(N, "full", ring)
    ctx = build_eigen_context(sp, p, M, theta, quotient_rows(sp, p, QuotientSpec(trivial_u=quotient), theta))
    target = ctx.htheta_target()
    span = cd_span(ctx)
    cd_length = span.length
    case = _classify(ctx, QuotientSpec(trivial_u=quotient))
    for chi, g, h in _case_extras(ctx, case):
        span.add(eigensymbol(ctx, chi, g, h))
    divisors = elementary_divisors(span.finalize(), target.finalize())
    return ctx.rel_length, ctx.dim_H, cd_length, case, divisors


DESCENT_POOL = [
    pytest.param(35, 7, k, 5, theta, quotient, id=f"N35-k{k}-{theta}-{'trivU7' if quotient else 'none'}")
    for k in (1, 2)
    for theta in ("[0,0]", "[0,2]", "[0,4]", "[2,0]", "[2,2]", "[2,4]")
    for quotient in ((), (7,))
] + [
    pytest.param(12, 3, 1, 4, "[1,1]", (), id="N12-p3-[1,1]"),
    pytest.param(5, 7, 1, 5, "[0]", (), id="N5-p7-[0]"),
]


@pytest.mark.parametrize("N,p,k,M,theta,quotient", DESCENT_POOL)
def test_descent_to_prime_subring_keeps_lengths_and_divisors(N, p, k, M, theta, quotient):
    """A theta with values in Z/p^k is computed there, not in GR(p^k, 2):
    the relation length, dim H_theta, the exhaustive (c,d)-span length, the
    case and the elementary divisors after the case extras agree with the
    Galois-ring computation, with and without the trivial U_7 quotient."""
    gr = make_coeff_ring(p, k, unit_group(N).phi)
    z = working_ring(parse_theta(theta, N, p, gr))
    assert (gr.m, z.m, z.pk) == (2, 1, p**k)
    in_gr = _descent_invariants(N, p, k, M, theta, quotient, gr)
    in_z = _descent_invariants(N, p, k, M, theta, quotient, z)
    assert in_gr == in_z


def test_working_ring_keeps_galois_ring_and_int64_bound():
    """theta = [1,1] mod 35 takes a primitive 4th root of unity, which Z/7
    lacks, so it stays on GR(7, 2).  At k = 11 the canonical GR(7^11, 2) is
    beyond the int64 bound, and the scenario is rejected although Z/7^11
    would pass it."""
    gr = make_coeff_ring(7, 1, 24)
    assert working_ring(parse_theta("[1,1]", 35, 7, gr)) == gr
    assert working_ring(parse_theta("[2,4]", 35, 7, gr)) == make_coeff_ring(7, 1)
    make_coeff_ring(7, 11)
    with pytest.raises(RingError, match="int64"):
        check_generation(7, 11, 5, "Mp", "full", "[2,4]")


# ---------------------------------------------------------------------------
# generation verdicts


def test_check_generation_case_a_small():
    r = check_generation(5, 1, 1, "Mp", "full", "1")
    assert (r.case, r.equal, r.claim_ok) == ("a", True, True)
    assert r.extras == () and r.divisors == ()
    assert r.dim_H == r.dim_C == 1


def test_check_generation_case_c():
    for k in (1, 2):
        r = check_generation(3, k, 4, "Mp", "full", "[1,1]")
        assert r.case == "c"
        assert not r.equal  # the two prescribed extras are genuinely used
        assert len(r.extras) == 2
        assert r.divisors == ()
        assert r.claim_ok is True


def test_check_generation_uncovered_reports_divisors():
    r = check_generation(5, 1, 1, "Mp", "full", "omega^2")
    assert r.case == "uncovered"
    assert r.claim_ok is None
    assert r.divisors  # descriptive only, no claim asserted


def test_check_generation_rejects_bad_scenarios():
    with pytest.raises(ValueError):
        check_generation(5, 1, 11, "Mp", "full", "1")  # p | phi(M)
    with pytest.raises(ValueError):
        check_generation(5, 1, 5, "Mp", "full", "1")  # p | M
    with pytest.raises(ValueError):
        check_generation(3, 1, 1, "Mp", "full", "1")  # N = 3 < 4
    with pytest.raises(ValueError):
        check_generation(5, 1, 1, "Mp", "full", "omega^1")  # odd theta


def test_case_b_corrected_span_structure():
    """The case-b eigenspace is spanned by C, alpha^{1,p} and alpha^{M,1}:
    the first extra alone leaves a cokernel of length one."""
    for k in (1, 2):
        N, ring, sp = scenario(7, k, 5)
        theta = parse_theta("omega^2*quad@5", N, 7, ring)
        ctx = build_eigen_context(sp, 7, 5, theta)
        target = ctx.htheta_target()
        acc = cd_span(ctx)
        om2 = ctx.omega**2
        assert target.length - acc.length == 2 * 1  # corank two, length one each
        acc.add(eigensymbol(ctx, om2, 1, 7))
        assert target.length - acc.length == 1
        acc.add(eigensymbol(ctx, om2, 5, 1))
        assert acc.length == target.length


def test_lengths_match_independent_modp_model():
    """At k = 1 the lengths of H^theta and C^theta agree, for every even
    character at N = 15, 21, 13 and 17, with the independent model in
    manin_modp.py (which shares no code with the package).  -1 is a square
    mod 13 and mod 17, so there two orbits are their own sigma-partner, and
    both the dropped column (theta(t) = 1) and the void relation
    (theta(t) = -1) occur."""
    for p, M in ((5, 3), (7, 3), (13, 1), (17, 1)):
        N, ring, _ = scenario(p, 1, M)
        for chi in enumerate_characters(N, ring):
            if not chi.is_even():
                continue
            values = {a: chi(a).coeffs for a in unit_group(N).units}
            assert not any(any(c[1:]) for c in values.values())  # values lie in F_p
            model = ModpEigenspace(N, p, lambda a: values[a % N][0])
            report = check_generation(p, 1, M, "Mp", "full", chi)
            C = model.span(model.cd_symbols())
            assert (report.dim_H, report.dim_C) == (model.length(), model.length(*C)), chi.label()


def test_nakayama_stability_of_verdicts():
    for args in [
        (5, 1, "Mp", "full", "1"),
        (5, 1, "Mp", "full", "omega^2"),
        (3, 4, "Mp", "full", "[1,1]"),
        (7, 5, "Mp", "full", "omega^2*quad@5"),
    ]:
        p, M, level, variant, theta = args
        r1 = check_generation(p, 1, M, level, variant, theta)
        r2 = check_generation(p, 2, M, level, variant, theta)
        assert r1.equal == r2.equal
        assert r1.case == r2.case
        assert r1.claim_ok == r2.claim_ok


def test_eigensymbols_span_the_eigenspace():
    # the alpha's over all characters and coprime divisor pairs generate H^theta
    for (p, k, M) in [(5, 1, 1), (3, 1, 4)]:
        N, ring, sp = scenario(p, k, M)
        chars = enumerate_characters(N, ring)
        divs = [d for d in range(1, N + 1) if N % d == 0]
        pairs = [(g, h) for g in divs for h in divs if gcd(g, h) == 1]
        for theta in chars:
            if not theta.is_even():
                continue
            ctx = build_eigen_context(sp, p, M, theta)
            acc = ctx.rel_acc.copy()
            for chi in chars:
                for (g, h) in pairs:
                    acc.add(eigensymbol(ctx, chi, g, h))
            assert acc.length == ctx.htheta_target().length


def test_verify_cd_span_of_one_p_case_a():
    out = verify_cd_span_of_one_p(5, 1, 1, "1")
    assert out["plain_equal"] and out["with_one_p_equal"]
    out7 = verify_cd_span_of_one_p(7, 1, 1, "omega^4")
    assert out7["plain_equal"] and out7["with_one_p_equal"]


def test_apply_matrix_consistency():
    N, ring, sp = scenario(7, 1, 5)
    theta = parse_theta("[2,4]", N, 7, ring)
    P = idempotent_projector(sp, theta)
    rng = random.Random(44)
    vec = ring.vzeros(sp.nsym)
    for _ in range(10):
        vec[rng.randrange(sp.nsym)] = [rng.randrange(ring.pk) for _ in range(ring.m)]
    out = apply_matrix(ring, P, vec)
    # column-by-column reference computation
    ref = ring.vzeros(sp.nsym)
    for j in range(sp.nsym):
        if vec[j].any():
            ref = (ref + ring.vscale(P[:, j], vec[j])) % ring.pk
    assert np.array_equal(out, ref)
