"""Reference code that only the tests call: the diamond permutations, the
dense eigenspace projector, the projection through it and ring matrix
products on the ambient free module, which the sigma-pair coordinate map of
`cdsymbols.eigen` is checked against, and that map on dense rows (the
scatter over all symbols); the literal double
loop behind `cd_eigensymbol`; a Howell basis as dicts by pivot column, and
row-at-a-time greedy Howell insertion, which keeps the basis fully reduced
one row at a time, the reference for `HowellAccumulator.add_rows` and
`reduce_rows`; the canonical pair and the (c,d)-symbol of one symbol as an
ambient vector, and the literal (c,d)-class enumeration built on them, the
oracle for `cd_span`; the literal square-class bases of the fibers, and the
bilinear (c,d)-generator stream over them, the reference for the span
`cd_span` settles without a stream (p prime to N, p >= 5) and for its
reduced streams, and its coefficient matrix over the symbol columns; the dense
six-term T2 vector and the per-orbit T2-Eisenstein loop; span membership with a witness; the cusp0 presentation
against the full one; the column of e_theta[u:v] and the C^theta + [1:p]
check of criterion 06; the table of the reduced columns of all symbols,
the reference for the columns `cd_span` gathers per block; characters kept
by their generator images in RingElem arithmetic, with the Teichmueller
lift, the reference for the exponent arithmetic of `DirichletCharacter`;
and the conductor by its divisors and quad@D by the enumeration of every
character, the references for `characters.conductor` and
`parse_theta`.  The verdict path never builds an (nsym, nsym) matrix."""

from __future__ import annotations

from math import gcd

import numpy as np

from cdsymbols.characters import (
    DirichletCharacter,
    enumerate_characters,
    parse_theta,
    teichmuller_character,
    unit_group,
)
from cdsymbols.eigen import EigenContext, _scatter, _validate_scenario, build_eigen_context, cd_span
from cdsymbols.linalg import HowellAccumulator
from cdsymbols.rings import CoeffRing, RingElem, RingError, make_coeff_ring, root_of_unity
from cdsymbols.symbols import CUSP0, FULL, SymbolSpace, build_presentation, cd_terms


def basis_dicts(acc: HowellAccumulator) -> tuple[dict, dict]:
    """The basis of acc by pivot column: column -> row, and column ->
    valuation of the pivot."""
    cols = acc.cols.tolist()
    return dict(zip(cols, acc.mat)), dict(zip(cols, acc.pvals.tolist()))


def _greedy_reduce(ring: CoeffRing, pivots: dict, vals: dict, vec: np.ndarray) -> np.ndarray:
    vec = vec % ring.pk
    start = 0
    while True:
        hits = np.flatnonzero(vec[start:].any(axis=1))
        if hits.size == 0:
            return vec
        j = start + int(hits[0])
        row = pivots.get(j)
        if row is None:
            return vec
        pv = vals[j]
        if (vec[j] % ring.p**pv).any():
            return vec
        q = vec[j] // ring.p**pv
        vec = (vec - ring.vscale(row, q)) % ring.pk
        start = j + 1


def greedy_reduce(acc: HowellAccumulator, vec: np.ndarray) -> np.ndarray:
    """Greedy leading-term reduction of one row against acc's pivots: it
    stops at the first nonzero column with no pivot, or whose entry has a
    smaller valuation than the pivot there.  The result is zero iff vec is
    in the span."""
    return _greedy_reduce(acc.ring, *basis_dicts(acc), vec)


def _reduce_at(ring: CoeffRing, pivots: dict, vals: dict, row: np.ndarray, cols) -> np.ndarray:
    """Reduce the row at each pivot column of `cols`, in increasing order."""
    for c in cols:
        q = row[c] // ring.p ** vals[c]
        if q.any():
            row = (row - ring.vscale(pivots[c], q)) % ring.pk
    return row


def _place(ring: CoeffRing, pivots: dict, vals: dict, j: int, r: np.ndarray, v: int) -> None:
    """Make r, monic at j and zero before it, the pivot at j, keeping the
    basis fully reduced one row at a time: r is reduced at the pivot columns
    after j, and every row above at j.  Such a row then changes after j only
    where r is nonzero at a pivot column, which r's reduction leaves only at
    the non-unit ones."""
    later = sorted(c for c in pivots if c > j)
    r = _reduce_at(ring, pivots, vals, r, later)
    again = [c for c in later if vals[c]]
    for c, row in list(pivots.items()):
        if c < j:
            q = row[j] // ring.p**v
            if q.any():
                pivots[c] = _reduce_at(ring, pivots, vals, (row - ring.vscale(r, q)) % ring.pk, again)
    pivots[j] = r
    vals[j] = v


def _greedy_insert(ring: CoeffRing, pivots: dict, vals: dict, vec: np.ndarray) -> int:
    """Insert one row by greedy reduction: a row that stops at a column
    becomes the monic pivot there, the pivot it replaces and its saturation
    row p^(k-v) pivot are inserted in turn.  Returns the growth in length."""
    grew = 0
    stack = [np.asarray(vec, dtype=np.int64) % ring.pk]
    while stack:
        r = _greedy_reduce(ring, pivots, vals, stack.pop())
        hits = np.flatnonzero(r.any(axis=1))
        if hits.size == 0:
            continue
        j = int(hits[0])
        v = 0
        while v < ring.k and not (r[j] % ring.p ** (v + 1)).any():
            v += 1
        unit = tuple(int(c) for c in r[j] // ring.p**v)
        r = ring.vscale(r, ring.el(unit).inverse().as_array())
        old = pivots.pop(j, None)
        if old is not None:
            grew += vals.pop(j) - v
            stack.append(old)
        else:
            grew += ring.k - v
        if v > 0:
            stack.append((r * ring.p ** (ring.k - v)) % ring.pk)
        _place(ring, pivots, vals, j, r, v)
    return grew


def _store(acc: HowellAccumulator, pivots: dict, vals: dict) -> None:
    """Write a fully reduced basis, kept as dicts by pivot column, into acc."""
    cols = sorted(pivots)
    mat = np.stack([pivots[c] for c in cols]) if cols else np.zeros((0, acc.ncols, acc.ring.m), dtype=np.int64)
    acc._set(mat, np.array(cols, dtype=np.int64), np.array([vals[c] for c in cols], dtype=np.int64))


def greedy_add(acc: HowellAccumulator, vec: np.ndarray) -> bool:
    """Insert one row into acc by greedy insertion; returns True if the span grew."""
    pivots, vals = basis_dicts(acc)
    if not _greedy_insert(acc.ring, pivots, vals, vec):
        return False
    _store(acc, pivots, vals)
    return True


def greedy_accumulator(ring: CoeffRing, ncols: int, rows=()) -> HowellAccumulator:
    """A HowellAccumulator filled by greedy insertion, one row at a time."""
    acc = HowellAccumulator(ring, ncols)
    pivots, vals = {}, {}
    for row in rows:
        _greedy_insert(ring, pivots, vals, row)
    _store(acc, pivots, vals)
    return acc


def canonical_pair(N: int, u: int, v: int) -> tuple[int, int]:
    """Lexicographically least of (u, v) and (-u, -v) modulo N."""
    u %= N
    v %= N
    return min((u, v), ((-u) % N, (-v) % N))


def cd_symbol(space: SymbolSpace, c: int, d: int, u: int, v: int) -> np.ndarray:
    """The four-term combination c^2 d^2 [u:v] - c^2 [u:dv] - d^2 [cu:v] + [cu:dv]
    as an ambient vector."""
    ring = space.ring
    vec = ring.vzeros(space.nsym)
    for x, y, coeff in cd_terms(space, c, d):
        vec[space.idx(x * u, y * v), 0] += coeff
    return vec % ring.pk


def cd_span_bruteforce(ctx: EigenContext) -> HowellAccumulator:
    """Literal enumeration over all residue classes of (c, d) modulo
    L = lcm(6N, p^k) prime to 6N, applied to every symbol and projected
    through pi.  Exponentially slower; the oracle for cd_span.  It inserts
    one row at a time by greedy insertion, so the comparison also checks
    cd_span's batched insertion against code that does not share it."""
    ring = ctx.ring
    space = ctx.space
    N = space.N
    L = 6 * N * ring.pk // gcd(6 * N, ring.pk)
    classes = [c for c in range(1, L + 1) if gcd(c, 6 * N) == 1]
    acc = ctx.rel_acc.copy()
    pivots, vals = basis_dicts(acc)
    for c in classes:
        cc = c if c > 1 else c + L
        for d in classes:
            dd = d if d > 1 else d + L
            vecs = np.stack([cd_symbol(space, cc, dd, u, v) for (u, v) in space.symbols])
            for vec in project(ctx, vecs):
                _greedy_insert(ring, pivots, vals, vec)
    _store(acc, pivots, vals)
    return acc


def scalar_bases(p: int, pk: int, N: int, units: np.ndarray) -> np.ndarray:
    """Base values s0 of the fibers {c^2 mod p^k : c in the class of a}, one
    row per unit a: (a mod p)^2 when p | N, and every square class mod p
    otherwise."""
    if N % p == 0:
        return ((units % p) ** 2 % pk)[:, None]
    squares = sorted({(x * x) % p for x in range(1, p)})
    return np.tile(np.array(squares, dtype=np.int64), (len(units), 1))


def cd_generators_full(
    ctx: EigenContext, rep: int, units: np.ndarray, bases: np.ndarray, a_units: np.ndarray | None = None
) -> np.ndarray:
    """The bilinear (c,d)-generator stream of one orbit representative
    [u0:v0], whatever the number of square classes: for every (a, b, s0, t0),
    s0 t0 x0 - s0 x1 - t0 x2 + x3 with x0, x1, x2, x3 the columns of
    [u0:v0], [u0:b v0], [a u0:v0], [a u0:b v0], then the fiber generators
    p(t0 x0 - x1), p(s0 x0 - x2) (k >= 2) and p^2 x0 (k >= 3), from the
    columns of those symbols as they are.  b runs over `units`, and a over
    `a_units` (a subset of `units`; all of them if None), and `bases` are
    `scalar_bases(p, p^k, N, units)`.  The reference for the span that
    `cdsymbols.eigen.cd_span` returns without a stream when p does not
    divide N and p >= 5, and for the streams it forms from reduced
    columns."""
    space, ring = ctx.space, ctx.ring
    p, pk, N = ring.p, ring.pk, space.N
    a_units = units if a_units is None else np.asarray(a_units, dtype=np.int64)
    a_bases = bases[np.searchsorted(units, a_units)]
    u0, v0 = space.symbols[rep]
    au, bv = a_units * u0 % N, units * v0 % N
    columns = column_table(ctx)
    x0 = columns[rep]
    x1 = columns[space.table[u0, bv]]  # (b, r, m)
    x2 = columns[space.table[au, v0]]  # (a, r, m)
    x3 = columns[space.table[au[:, None], bv[None, :]]]  # (a, b, r, m)
    s = a_bases[:, None, :, None, None, None]  # s0 on the axes (a, b, s0, t0, r, m)
    t = bases[None, :, None, :, None, None]  # t0 on the same axes
    main = (
        x0 * (s * t % pk)
        - x1[None, :, None, None] * s
        - x2[:, None, None, None] * t
        + x3[:, :, None, None]
    ) % pk
    stacks = [main]
    if ring.k >= 2:
        # (a or b, s0 or t0, r, m)
        stacks.append((x0 * bases[:, :, None, None] - x1[:, None]) % pk * p % pk)
        stacks.append((x0 * a_bases[:, :, None, None] - x2[:, None]) % pk * p % pk)
    if ring.k >= 3:
        stacks.append(x0 * (p * p) % pk)
    return np.concatenate([g.reshape(-1, *x0.shape) for g in stacks])


def cd_coefficient_matrix(theta: DirichletCharacter, a_units=None) -> np.ndarray:
    """The bilinear (c,d)-stream as combinations of a representative's symbol
    columns y_c, one column per unit c in increasing order, over theta's
    ring Z/p^k, for one base per unit (p | N, or p = 3).  With e_c for y_c
    and the literal bases s_a = (a mod p)^2 (1 for p = 3 prime to N): the
    rows s_a s_b e_1 - s_a e_b - s_b theta(a) e_{a^-1} + theta(a) e_{a^-1 b},
    then p(s_b e_1 - e_b), p(s_a e_1 - theta(a) e_{a^-1}) and p^2 e_1.  b runs
    over every unit and a over `a_units` (every unit if None).  Built from
    the formula, not from a symbol space: the reference for step (v) of the
    `cdsymbols.eigen` docstring."""
    ring, N = theta.ring, theta.N
    p, pk = ring.p, ring.pk
    if ring.m != 1:
        raise ValueError("theta must take values in Z/p^k")
    units = np.array(unit_group(N).units, dtype=np.int64)
    a_units = units if a_units is None else np.asarray(a_units, dtype=np.int64)
    at = np.searchsorted(units, a_units)
    inverse = np.searchsorted(units, [pow(int(a), -1, N) for a in a_units])
    ratio = np.searchsorted(units, units[inverse][:, None] * units[None, :] % N)  # a^-1 b
    s = (units % p) ** 2 % pk if N % p == 0 else np.ones(len(units), dtype=np.int64)
    sa, sb, th = s[at], s, theta.values[at, 0]
    e = np.eye(len(units), dtype=np.int64)
    main = (
        (sa[:, None, None] * sb[None, :, None] % pk) * e[0]
        - sa[:, None, None] * e[None, :, :]
        - sb[None, :, None] * (th[:, None] * e[inverse])[:, None, :]
        + th[:, None, None] * e[ratio]
    )
    fiber_b = sb[:, None] * e[0] - e
    fiber_a = sa[:, None] * e[0] - th[:, None] * e[inverse]
    rows = np.concatenate([main.reshape(-1, len(units)), p * fiber_b, p * fiber_a, p * p * e[:1]])
    return (rows % pk)[..., None]


def diamond_perm(space: SymbolSpace, a: int) -> np.ndarray:
    """Index permutation of <a>: symbol (u, v) goes to the position of
    (au, av), gathered from `space.table`."""
    N = space.N
    a %= N
    if gcd(a, N) != 1:
        raise ValueError(f"{a} is not a unit modulo {N}")
    return space.table[a * space.u % N, a * space.v % N]


def diamond_action(space: SymbolSpace) -> np.ndarray:
    """The permutations of every <a>: row t is diamond_perm(units[t])."""
    return np.stack([diamond_perm(space, a) for a in unit_group(space.N).units])


def orbit_frame_by_table(N: int, variant: str) -> dict:
    """The frame of one (N, variant) built through the phi(N) x nsym table
    of every <a>: the symbols read off the N x N grid, `table`, the sign and
    parabolic terms of every symbol, the diamond orbits (least index of each
    column of the table), the transporters (first unit of the table to reach
    each symbol), the sigma-pair data and the parabolic block cut to the
    first row per orbit.  The reference for `symbols._ring_free_part`,
    `_manin_terms` and `_orbit_data`."""
    u, v = np.divmod(np.arange(N * N), N)
    nu, nv = -u % N, -v % N
    keep = (np.gcd(np.gcd(u, v), N) == 1) & ((u < nu) | ((u == nu) & (v <= nv)))
    if variant == CUSP0:
        keep &= (u != 0) & (v != 0)
    symbols = tuple(zip(u[keep].tolist(), v[keep].tolist()))
    n = len(symbols)
    u, v = np.array(symbols, dtype=np.int64).reshape(-1, 2).T
    table = np.full((N, N), -1, dtype=np.int64)
    table[-u % N, -v % N] = np.arange(n)
    table[u, v] = np.arange(n)
    me = np.arange(n)
    w = (u + v) % N
    sign_partner = table[-v % N, u]
    kept = np.stack([me <= sign_partner, (w != 0) | (variant == FULL)], axis=1)
    sign = np.stack([me, sign_partner, me], axis=1)
    parabolic = np.stack([me, table[u, w], table[w, v]], axis=1)
    cols = np.stack([sign, parabolic], axis=1)
    coeffs = np.broadcast_to(np.array([[1, 1, 0], [1, -1, -1]], dtype=np.int64), cols.shape)
    rows, coeffs = cols[kept], coeffs[kept]
    units = np.array(unit_group(N).units, dtype=np.int64)
    times = units[:, None] * np.arange(N) % N  # times[t, x] = units[t] x mod N
    action = table.ravel()[times[:, u] * N + times[:, v]]
    least = action.min(axis=0)
    reps = np.flatnonzero(least == np.arange(n))
    orbit_of = np.searchsorted(reps, least)
    hits, first_hit = np.unique(action[:, reps].ravel(), return_index=True)
    trans = np.zeros(n, dtype=np.int64)
    trans[hits] = units[first_hit // len(reps)]
    image = table[-v[reps] % N, u[reps]]
    partner = orbit_of[image]
    cut = np.flatnonzero(coeffs[:, 2])
    cut = cut[np.unique(orbit_of[rows[cut, 0]], return_index=True)[1]]
    return {
        "symbols": symbols, "u": u, "v": v, "table": table, "relation_rows": rows,
        "relation_coeffs": coeffs, "action": action, "reps": tuple(reps.tolist()),
        "orbit_of": orbit_of, "trans": trans, "image": image, "partner": partner,
        "first": partner >= np.arange(len(reps)), "parabolic_rows": rows[cut], "parabolic_coeffs": coeffs[cut],
    }


def teich_residue_by_full_scan(ring: CoeffRing) -> tuple[int, ...]:
    """The canonical residue-field generator by the scan from c = 2: the
    base-p digits of the first c whose residue has order q - 1.  The
    reference for the scan of `CoeffRing.teich_generator`."""
    for c in range(2, ring.q):
        digs = [c // ring.p**i % ring.p for i in range(ring.m)]
        if ring.residue_order(tuple(digs)) == ring.q - 1:
            return tuple(digs)
    raise AssertionError("no generator of the residue field")


def t2_vector(space: SymbolSpace, u: int, v: int) -> np.ndarray:
    """The dense six-term vector [2u:v] + [2u:u+v] + [u+v:2v] + [u:2v]
    - 2[u:v] - [2u:2v], one `idx` call per term."""
    N = space.N
    vec = space.ring.vzeros(space.nsym)
    w = (u + v) % N
    vec[space.idx(2 * u, v), 0] += 1
    vec[space.idx(2 * u, w), 0] += 1
    vec[space.idx(w, 2 * v), 0] += 1
    vec[space.idx(u, 2 * v), 0] += 1
    vec[space.idx(u, v), 0] -= 2
    vec[space.idx(2 * u, 2 * v), 0] -= 1
    return vec % space.ring.pk


def t2_eisenstein_relations_loop(space: SymbolSpace, ring: CoeffRing, p: int) -> list[np.ndarray]:
    """The T2-Eisenstein rows e_{omega^2}(six-term vector of [u:v]) one
    admissible orbit representative at a time, in orbit order: the dense
    six-term vector and one `np.add.at` of its omega^-2-weighted diamond
    translates.  The reference for the six-term block of
    `cdsymbols.hecke.t2_eisenstein_relations`."""
    N = space.N
    omega2 = teichmuller_character(N // p, p, ring) ** 2
    ug = unit_group(N)
    inv_phi = ring.from_int(ug.phi).inverse()
    coeffs = ring.vscale(omega2.inverse().values, inv_phi.as_array())
    moves = diamond_action(space)
    rows = []
    for rep in space.orbits()[0]:
        u, v = space.symbols[rep]
        if space.variant == CUSP0 and (u + v) % N == 0:
            continue
        raw = t2_vector(space, u, v)[:, 0]
        support = np.flatnonzero(raw)
        terms = raw[support][None, :, None] * coeffs[:, None, :]  # (unit, support, m)
        row = ring.vzeros(space.nsym)
        np.add.at(row, moves[:, support].ravel(), terms.reshape(-1, ring.m))
        rows.append(row % ring.pk)
    return rows


def idempotent_projector(space: SymbolSpace, theta: DirichletCharacter, strict: bool = True) -> np.ndarray:
    """Matrix of e_theta = (1/phi(N)) sum theta^{-1}(a) <a> on the ambient
    free module, shape (n, n, m).  Requires p prime to phi(N); odd theta is
    rejected unless strict=False (the resulting matrix is then zero on the
    presented space)."""
    ring = space.ring
    ug = unit_group(space.N)
    if ug.phi % ring.p == 0:
        raise RingError(f"p = {ring.p} divides phi({space.N})")
    if strict and not theta.is_even():
        raise ValueError("theta must be even; pass strict=False to explore odd characters")
    inv_phi = ring.from_int(ug.phi).inverse()
    theta_inv = theta.inverse()
    n = space.nsym
    P = np.zeros((n, n, ring.m), dtype=np.int64)
    cols = np.arange(n)
    for a in ug.units:
        coeff = np.array((theta_inv(a) * inv_phi).coeffs, dtype=np.int64)
        perm = diamond_perm(space, a)
        P[perm, cols] = (P[perm, cols] + coeff) % ring.pk
    return P


def sign_pairs(sp: SymbolSpace, theta: DirichletCharacter):
    """Per diamond orbit O (in sp.orbits() order): its sigma-pair column, the
    coefficient of e_O there, and whether O is first in its pair.  With
    sigma rep(O) = <t_O> rep(sigma O), S(e_O) is e_c(O) for the first orbit
    of a pair, -theta(t_O) e_c(sigma O) for its partner, and 0 for an orbit
    that is its own partner with theta(t_O) = 1."""
    ring = sp.ring
    reps, orbit_of, trans = sp.orbits()
    units = list(unit_group(sp.N).units)
    one = ring.one().as_array()
    col, coef, first = [], [], []
    columns = 0
    for o, s in enumerate(reps):
        u, v = sp.symbols[s]
        image = int(sp.table[-v % sp.N, u])
        partner = int(orbit_of[image])
        theta_t = theta.values[units.index(int(trans[image]))]
        first.append(partner >= o)
        if partner == o and np.array_equal(theta_t, one):
            col.append(0)
            coef.append(0 * one)
        elif partner >= o:
            col.append(columns)
            coef.append(one)
            columns += 1
        else:
            col.append(col[partner])
            coef.append(-theta_t % ring.pk)
    return col, coef, first


def sign_pair_map(sp: SymbolSpace, theta: DirichletCharacter, w: np.ndarray) -> np.ndarray:
    """S applied to orbit coordinates w of shape (r, m)."""
    ring = sp.ring
    col, coef, _ = sign_pairs(sp, theta)
    out = ring.vzeros(max(col) + 1)
    for o in range(len(col)):
        out[col[o]] = (out[col[o]] + ring.vscale(w[o], coef[o])) % ring.pk
    return out


def reference_projection(space: SymbolSpace, theta: DirichletCharacter, vecs) -> np.ndarray:
    """pi of ambient rows (B, nsym, m) through the dense projector P of
    e_theta: every orbit representative has stabilizer {1, -1}, so e_theta
    [rep] has entry 2/phi(N) at rep, and pi(v) is S (`sign_pair_map`) of
    phi(N)/2 times the representative entries of P v.  Shares no code with
    the scatter of `cdsymbols.eigen`, which it is the reference for."""
    ring = space.ring
    P = idempotent_projector(space, theta)
    reps = list(space.orbits()[0])
    half_phi = ring.from_int(unit_group(space.N).phi // 2).as_array()
    return np.stack([
        sign_pair_map(space, theta, ring.vscale(apply_matrix(ring, P, vec)[reps], half_phi)) for vec in vecs
    ])


def project(ctx: EigenContext, vecs) -> np.ndarray:
    """pi of dense ambient rows (..., nsym, m): the scatter of
    `cdsymbols.eigen` over all symbols, with the entries as ring-valued
    coefficients."""
    vecs = np.asarray(vecs, dtype=np.int64)
    flat = vecs.reshape(-1, *vecs.shape[-2:])
    idx = np.broadcast_to(np.arange(ctx.space.nsym), flat.shape[:2])
    out = _scatter(ctx.ring, ctx.col_of, ctx.scalars, ctx.r, idx, flat)
    return out.reshape(*vecs.shape[:-2], *out.shape[1:])


def _contract(ring: CoeffRing, spec: str, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """einsum of A with the multiplication matrices of B's entries, mod p^k.
    Each output entry sums n m products below p^(2k), which must stay
    inside int64."""
    n, m = A.shape[1], ring.m
    if n * m * ring.pk**2 >= 2**63:
        raise RingError(f"an {n}-term ring dot product over {ring} can overflow int64")
    return np.einsum(spec, A, ring.smatrix(B), optimize=True) % ring.pk


def apply_matrix(ring: CoeffRing, P: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Apply an (n, n, m) matrix to an (n, m) vector over the ring."""
    return _contract(ring, "iju,juc->ic", P, np.asarray(vec, dtype=np.int64))


def matrix_product(ring: CoeffRing, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The product of two (n, n, m) matrices over the ring."""
    return _contract(ring, "iju,jkuc->ikc", A, np.asarray(B, dtype=np.int64))


def cd_eigensymbol_loop(ctx: EigenContext, c: int, d: int, chi: DirichletCharacter, g: int, h: int) -> np.ndarray:
    """The (c,d)-eigensymbol as the literal sum over unit pairs (a, b) of
    chi^{-1}(a) psi^{-1}(b) times the (c,d)-symbol of [ga:hb], in scalar
    RingElem arithmetic: the oracle for `cdsymbols.eigen.cd_eigensymbol`."""
    space = ctx.space
    ring = ctx.ring
    N = space.N
    if N % g or N % h or gcd(g, h) != 1:
        raise ValueError("g and h must be relatively prime divisors of N")
    if space.variant == CUSP0 and (g == N or h == N):
        return ring.vzeros(space.nsym)
    ug = unit_group(N)
    chi_inv = chi.inverse()
    psi_inv = ctx.psi(chi).inverse()
    acc = ring.vzeros(space.nsym)
    for a in ug.units:
        ca = chi_inv(a)
        for b in ug.units:
            coeff = ca * psi_inv(b)
            term = cd_symbol(space, c, d, g * a, h * b)
            acc = (acc + ring.vscale(term, np.array(coeff.coeffs, dtype=np.int64))) % ring.pk
    inv_phi2 = (ring.from_int(ug.phi) ** 2).inverse()
    return ring.vscale(acc, np.array(inv_phi2.coeffs, dtype=np.int64))


def membership(vec, sub: HowellAccumulator):
    """Decide vec in span(sub); on success return (True, witness) where
    witness maps pivot columns to coefficients recombining exactly to vec."""
    v = np.asarray(vec, dtype=np.int64)
    if v.ndim == 1 and sub.ring.m == 1:
        v = v.reshape(-1, 1)
    if v.shape[0] != sub.ncols:
        raise ValueError(f"vector has dimension {v.shape[0]}, ambient is {sub.ncols}")
    ring = sub.ring
    rem = v % ring.pk
    witness: dict[int, np.ndarray] = {}
    for row, j, pv in zip(sub.mat, sub.cols, sub.pvals):
        q = rem[j] // ring.p**pv
        if q.any():
            rem = (rem - ring.vscale(row, q)) % ring.pk
            witness[j] = q
    if rem.any():
        return False, None
    return True, witness


def vector_to_dict(space: SymbolSpace, vec: np.ndarray) -> dict[tuple[int, int], tuple[int, ...]]:
    """Sparse view of a symbol vector."""
    out = {}
    for i, s in enumerate(space.symbols):
        if vec[i].any():
            out[s] = tuple(int(c) for c in vec[i])
    return out


def cusp0_agreement(N: int, ring: CoeffRing) -> dict:
    """Compare the abstract cuspidal-at-zero presentation with the submodule
    of the full space spanned by symbols with nonzero coordinates.

    The natural map sends the abstract space onto that submodule; the two
    agree exactly when their lengths match, which is reported rather than
    assumed.
    """
    full = build_presentation(N, FULL, ring)
    cusp = build_presentation(N, CUSP0, ring)
    acc_c = HowellAccumulator(ring, cusp.nsym, cusp.dense_relation_rows())
    abstract_len = cusp.nsym * ring.k - acc_c.length
    acc_f = HowellAccumulator(ring, full.nsym, full.dense_relation_rows())
    base = acc_f.length
    for (u, v) in cusp.symbols:
        row = ring.vzeros(full.nsym)
        row[full.idx(u, v), 0] = 1
        acc_f.add(row)
    submodule_len = acc_f.length - base
    return {
        "N": N,
        "abstract_length": abstract_len,
        "submodule_length": submodule_len,
        "agree": abstract_len == submodule_len,
    }


def column_table(ctx: EigenContext) -> np.ndarray:
    """The reduced columns of all symbols, (nsym, r', m): the column of
    symbol i is basis[col_of[i]] times scalars[i], one einsum over the
    multiplication matrices of every scalar."""
    ring = ctx.ring
    return np.einsum("nrc,ncd->nrd", ctx.basis[ctx.col_of], ring.smatrix(ctx.scalars)) % ring.pk


def etheta_column(ctx: EigenContext, u: int, v: int) -> np.ndarray:
    """Reduced representative of e_theta applied to the symbol (u, v)."""
    return column_table(ctx)[ctx.space.idx(u, v)]


def verify_cd_span_of_one_p(
    p: int,
    k: int,
    M: int,
    theta,
    cd_bound: int | None = None,
) -> dict:
    """Check that the full eigenspace is spanned by C^theta together with the
    projection of the single symbol [1:p] (full variant, level Mp)."""
    N = _validate_scenario(p, k, M, "Mp")
    ring = make_coeff_ring(p, k, unit_group(N).phi)
    space = build_presentation(N, FULL, ring)
    if isinstance(theta, str):
        theta = parse_theta(theta, N, p, ring)
    ctx = build_eigen_context(space, p, M, theta)
    target = ctx.htheta_target()
    acc = cd_span(ctx, unit_bound=cd_bound)
    plain_equal = acc.length == target.length
    if not plain_equal:
        acc.add(etheta_column(ctx, 1, p % N))
    return {
        "theta": theta.label(),
        "f": ctx.f,
        "M_divides_f": ctx.f % M == 0,
        "eta_nontrivial_at_p": ctx.f % p == 0,
        "plain_equal": plain_equal,
        "with_one_p_equal": acc.length == target.length,
    }


def teichmuller(ring: CoeffRing, a: int) -> RingElem:
    """The unique x with x^(p-1) = 1 and x = a mod p, inside the prime subring."""
    if a % ring.p == 0:
        raise RingError("Teichmueller lift requires a nonzero residue")
    t = pow(a % ring.pk, ring.p ** (ring.k - 1), ring.pk)
    return ring.from_int(t)


class ImageCharacter:
    """A Dirichlet character mod N kept by its generator images chi(g_i) and
    evaluated in RingElem arithmetic, chi(a) = prod_i chi(g_i)^dlog_i(a)."""

    def __init__(self, N: int, ring: CoeffRing, images):
        self.N, self.ring, self.images = N, ring, tuple(images)

    @classmethod
    def from_label(cls, N: int, ring: CoeffRing, label) -> "ImageCharacter":
        """chi(g_i) = root_of_unity(ring, o_i)^t_i."""
        return cls(N, ring, [root_of_unity(ring, o) ** t for o, t in zip(unit_group(N).orders, label)])

    @classmethod
    def teichmuller(cls, M: int, p: int, ring: CoeffRing) -> "ImageCharacter":
        return cls(M * p, ring, [teichmuller(ring, g % p) for g in unit_group(M * p).generators])

    def __call__(self, a: int) -> RingElem:
        out = self.ring.one()
        for img, t in zip(self.images, unit_group(self.N).exponents(a)):
            out = out * img**t
        return out

    def values(self) -> np.ndarray:
        return np.array([self(a).coeffs for a in unit_group(self.N).units], dtype=np.int64)

    def label(self) -> str:
        """The t_i with chi(g_i) = root_of_unity(ring, o_i)^t_i, by search."""
        out = []
        for img, o in zip(self.images, unit_group(self.N).orders):
            zeta = root_of_unity(self.ring, o)
            out.append(next(t for t in range(o) if zeta**t == img))
        return "[" + ",".join(map(str, out)) + "]"

    def conductor(self) -> int:
        units, one = unit_group(self.N).units, self.ring.one()
        return min(
            f
            for f in range(1, self.N + 1)
            if self.N % f == 0 and all(self(a) == one for a in units if a % f == 1 % f)
        )

    def is_even(self) -> bool:
        return self(-1) == self.ring.one()

    def over(self, ring: CoeffRing) -> "ImageCharacter":
        """Pad or cut each image's power-basis coefficients: Z/p^k is the
        prime subring of GR(p^k, m).  A cut must drop only zeros."""
        if (ring.p, ring.k) != (self.ring.p, self.ring.k) or 1 not in (ring.m, self.ring.m):
            raise RingError(f"no coefficient map from {self.ring} to {ring}")
        if any(any(img.coeffs[ring.m :]) for img in self.images):
            raise RingError(f"the character does not take values in {ring}")
        pad = (0,) * ring.m
        return ImageCharacter(self.N, ring, [ring.el((img.coeffs + pad)[: ring.m]) for img in self.images])

    def extend(self, N2: int) -> "ImageCharacter":
        return ImageCharacter(N2, self.ring, [self(g) for g in unit_group(N2).generators])

    def restrict(self, D: int) -> "ImageCharacter":
        """The component at the unitary divisor D: chi at the lift of each
        generator mod D that is 1 modulo N/D."""
        comp = self.N // D
        lift = {a % D: a for a in range(self.N) if a % comp == 1 % comp}
        return ImageCharacter(D, self.ring, [self(lift[g]) for g in unit_group(D).generators])


def conductor_by_divisors(chi: DirichletCharacter) -> int:
    """The least divisor f of N with chi trivial on the units = 1 mod f, by
    a test of every divisor: the reference for `characters.conductor`."""
    N = chi.N
    units = np.array(chi.group.units, dtype=np.int64)
    is_one = (chi.values == chi.ring.one().as_array()).all(axis=1)
    return min(f for f in range(1, N + 1) if N % f == 0 and is_one[units % f == 1 % f].all())


def quadratic_by_enumeration(N: int, ring: CoeffRing, D: int) -> DirichletCharacter:
    """quad@D over every character mod N: the nontrivial ones with chi^2
    trivial and conductor D (by divisors), which must be exactly one."""
    cands = [
        chi
        for chi in enumerate_characters(N, ring)
        if (chi * chi).is_trivial() and not chi.is_trivial() and conductor_by_divisors(chi) == D
    ]
    if len(cands) != 1:
        raise ValueError(
            f"quad@{D}: {'no' if not cands else 'several'} quadratic characters of conductor {D} mod {N}"
        )
    return cands[0]
