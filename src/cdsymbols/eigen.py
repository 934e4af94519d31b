"""Eigenspaces, eigensymbols, the span of (c,d)-symbols, and the generation
verdicts.

Each theta-eigenspace is presented on sigma-pair columns, the diamond
orbits paired by the sign involution, with one parabolic relation per orbit
and one (c,d)-generator stream per pair (see EigenContext and cd_span).

The span C^theta of projected (c,d)-symbols is computed by an exhaustive
enumeration of the residue classes of (c, d) modulo lcm(6N, p^k).  A class
is determined by (c mod N, c^2 mod p^k), and for a fixed residue a = c mod N
the attainable scalars c^2 mod p^k form full fibers s0 + pZ/p^k (one fiber
per square class when p does not divide N).  Expanding

    (s0 + pz)(t0 + pw) x0 - (s0 + pz) x1 - (t0 + pw) x2 + x3

over all z, w shows the span over a fiber pair is generated by the base
vector at (s0, t0) together with p(t0 x0 - x1), p(s0 x0 - x2) and p^2 x0.
This collapse is exact (it is tested against the literal class enumeration)
and keeps the generator stream linear in phi(N)^2.

When p does not divide N and p >= 5, C^theta is all of R^r' for every
unit bound >= 1, and cd_span returns that without forming a stream.  Every
unit carries at least two square classes, and the bilinear stream of a
representative [u0:v0] spans the plain symbol columns y_c of [u0 : c v0],
c in U^-1 U (U the units visited; all of them unless a unit bound is given):

(i)   The fiber sum separates the terms.  For bases s1 != s2 and t1 != t2
      in [1, p) the 4x4 matrix of (1, s, t, st) on {s1, s2} x {t1, t2} has
      determinant (s1 - s2)^2 (t1 - t2)^2, a unit, so the base vectors span
      x0, x1[b], x2[a] and x3[a, b]; the fiber rows lie in that span.
(ii)  Only the x3 terms are needed: 1 is in U, so x0 = x3[1, 1],
      x1[b] = x3[1, b] and x2[a] = x3[a, 1].
(iii) Each x3 term is a unit times a y_c: the reduced column of <a> i is
      theta(a) times that of i exactly (theta is even), and [a u0 : b v0] =
      <a>[u0 : a^-1 b v0], so x3[a, b] = theta(a) y_{a^-1 b}.

Among them is y_1, the column of [u0:v0] itself: the reduced unit column of
its sigma-pair (zero for a dropped orbit, which has no column).  So the
relations and the streams of the representatives first in their sigma-pair
span R^r'.

(iv)  Every stream is R-linear in the symbol columns, and the column of
      symbol i is scalars[i] times unit column col_of[i].  So the r' unit
      columns may be reduced modulo the running span S, and every symbol
      gathered from them: S + span(stream) stays the same, and the gathered
      columns vanish where S has a unit pivot.  This holds for every
      representative of a block at once, with S the span before the block,
      so cd_span reduces the unit columns once per block, visits the
      representatives in doubling blocks and inserts one stack per block.
      At N = 35 the span stops growing after at most two representatives;
      the later blocks reduce to zero and are not inserted, and the 24
      representatives take 6 block visits.

When p divides N, or p = 3, each unit a has one base s_a, and cd_span forms
the bilinear stream: one row per (a, b) in U x U.  When U is the whole unit
group, the rows with a among the generators of (Z/N)^x span all of them:

(v)   Write y_c as the formal vector e_c.  Row (a, b) is A_a g_b, where
      g_b = s_b e_1 - e_b, A_a = s_a - theta(a) T_a and T_a e_c = e_{a^-1 c}.
      For a multiplicative base s (so s_1 = 1 and A_1 = 0),

          A_{ab} = s_a A_b + theta(b) T_b A_a,
          T_c g_b = g_{c^-1 b} - s_b g_{c^-1}.

      So G = span(g_b) is T-stable, T_b A_a G = A_a T_b G lies in A_a G,
      and by induction on words in the generators the sum of A_a G over
      a in U is the sum over the generators.  The fiber rows p(s_a x0 - x2)
      are p A_a e_1, and since T_b e_1 = s_{b^-1} e_1 - g_{b^-1},
      p A_{ab} e_1 lies in p A_a e_1, p A_b e_1 and p A_a G; so they too are
      needed for the generators only.  The rows p g_b = p(s_b x0 - x1) stay
      for every b, and p^2 x0 stays.  The base omega(a)^2 is multiplicative.
      The literal base (a mod p)^2 equals it at k = 1 and differs from it by
      a multiple of p at k >= 2; the fiber rows absorb the difference, as
      the fiber collapse above holds for any base in the fiber.  Rows per
      representative fall from at most phi(N)^2 + 2 phi(N) + 1 to at most
      |gens| phi(N) + phi(N) + |gens| + 1 (1,764 -> 42 at N = 43, k = 1).
      A unit bound keeps every a, since U^-1 U is not a group there.

A scenario whose theta takes values in Z/p^k does all of this over Z/p^k,
not over the Galois ring that holds every character mod N (working_ring).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd

import numpy as np

from .characters import (
    DirichletCharacter,
    parse_theta,
    restrict_to_part,
    teichmuller_character,
    unit_group,
)
from . import hecke
from .hecke import QuotientSpec
from .linalg import HowellAccumulator, elementary_divisors, format_divisors
from .rings import CoeffRing, RingError, is_prime, make_coeff_ring
from .symbols import CUSP0, FULL, SymbolSpace, _orbit_data, build_presentation, cd_terms

__all__ = [
    "EigenContext",
    "GenerationReport",
    "build_eigen_context",
    "eigensymbol",
    "cd_eigensymbol",
    "cd_span",
    "project",
    "bezout_units",
    "check_generation",
    "working_ring",
]

_COVERED_EQUALITY_CASES = ("a", "U-i", "U-ii", "U-iii", "T2")


def bezout_units(N: int, g: int, h: int):
    """Units a, b mod N with a*g + b*h = delta, where delta is 1 if N is odd
    or g*h is even and 2 otherwise.  Deterministic: among all solutions the
    one minimizing (number of entries equal to 1, a, b) is returned."""
    if N % g or N % h or gcd(g, h) != 1:
        raise ValueError("g and h must be relatively prime divisors of N")
    delta = 1 if (N % 2 == 1 or (g * h) % 2 == 0) else 2
    units = unit_group(N).units
    best = None
    for a in units:
        for b in units:
            if (a * g + b * h) % N == delta % N:
                key = ((a == 1) + (b == 1), a, b)
                if best is None or key < best[0]:
                    best = (key, (a, b))
    if best is None:
        raise ArithmeticError(f"no Bezout units for N={N}, g={g}, h={h}")
    a, b = best[1]
    return a, b, delta


@dataclass
class EigenContext:
    """The theta-eigenspace of a presented symbol space on sigma-pair columns.

    Since p does not divide phi(N), e_theta of the free module has a basis
    of diamond-orbit representatives, with e_theta[<a> rep] = theta(a)
    e_theta[rep]: <a>[u:v] = [u:v] forces a = +-1 (gcd(u, v, N) = 1) and
    theta is even, so no orbit is killed.  The sign involution
    sigma[u:v] = [-v:u] commutes with the diamonds and pairs the orbits:
    sigma rep(O) = <t_O> rep(sigma O), and the sign relation of rep(O)
    reads x_O + theta(t_O) x_{sigma O} = 0.  The sign relations are
    quotiented out first: each sigma-pair keeps one column, that of its
    first orbit, and its partner O becomes -theta(t_O) times it.  An orbit
    that is its own partner has theta(t_O) = +-1; for +1 its relation
    2 x_O = 0 drops the column (2 is a unit), for -1 it is void.  So
    H_theta is R^r' (24 columns at N = 35, against 48 orbits) modulo
    `rel_acc`, the projected parabolic and quotient relations.

    pi sends symbol i to scalars[i] times the unit column col_of[i], so a
    row of symbol terms reaches R^r' through `_scatter`, and a dense ambient
    row through `project`; `reps` holds the
    representatives first in their sigma-pair, the ones `cd_span` visits (a
    dropped orbit's among them).  `basis`, built on first read, holds the r'
    unit columns reduced against the relations; the reduced column y of
    symbol i is scalars[i] times basis[col_of[i]] (zero on a dropped orbit);
    a (c,d)-stream gathers it from `basis` reduced modulo its span."""

    space: SymbolSpace
    ring: CoeffRing
    p: int
    M: int
    theta: DirichletCharacter
    col_of: np.ndarray = field(repr=False)
    scalars: np.ndarray = field(repr=False)
    rel_acc: HowellAccumulator = field(repr=False)
    reps: tuple[int, ...] = field(repr=False)
    r: int
    omega: DirichletCharacter = field(repr=False)
    f: int = 0

    @property
    def N(self) -> int:
        return self.space.N

    @property
    def rel_length(self) -> int:
        return self.rel_acc.length

    @property
    def dim_H(self) -> int:
        """Module length of H_theta = R^r' / (projected relations)."""
        return self.r * self.ring.k - self.rel_length

    @cached_property
    def basis(self) -> np.ndarray:
        return self.rel_acc.reduce_rows(_identity(self.ring, self.r))

    def psi(self, chi: DirichletCharacter) -> DirichletCharacter:
        return self.theta * chi.inverse()

    def htheta_target(self) -> HowellAccumulator:
        """The relations plus the reduced unit columns: all of R^r', whose
        Howell form is the identity (pivots e_j of valuation 0), set without
        an elimination."""
        acc = HowellAccumulator(self.ring, self.r)
        acc._set(_identity(self.ring, self.r), np.arange(self.r), np.zeros(self.r, dtype=np.int64))
        return acc


def _identity(ring: CoeffRing, r: int) -> np.ndarray:
    return np.eye(r, dtype=np.int64)[..., None] * ring.one().as_array()


def _scatter(ring: CoeffRing, col_of: np.ndarray, scalars: np.ndarray, r: int, idx, coeffs) -> np.ndarray:
    """pi of the term rows sum_t coeffs[n, t] [idx[n, t]], shape (n, r, m),
    for ring-valued coefficients (n, t, m): coeffs[n, t] scalars[i] goes
    into column col_of[i] of row n, i = idx[n, t], in one `np.add.at` (a
    sum of at most t residues per entry).  A zero coefficient is padding."""
    coeffs = np.asarray(coeffs, dtype=np.int64)
    if coeffs.shape[-1] != ring.m:  # einsum would broadcast a size-1 axis
        raise ValueError(f"coefficients of width {coeffs.shape[-1]} scattered over {ring}")
    terms = np.einsum("nti,ntij->ntj", coeffs % ring.pk, ring.smatrix(scalars[idx])) % ring.pk
    rows = np.zeros((len(idx), r, ring.m), dtype=np.int64)
    np.add.at(rows, (np.arange(len(idx))[:, None], col_of[idx]), terms)
    return rows % ring.pk


def project(ctx: EigenContext, vecs) -> np.ndarray:
    """pi of dense ambient rows (..., nsym, m): the scatter over all symbols,
    with the entries as ring-valued coefficients."""
    vecs = np.asarray(vecs, dtype=np.int64)
    flat = vecs.reshape(-1, *vecs.shape[-2:])
    idx = np.broadcast_to(np.arange(ctx.space.nsym), flat.shape[:2])
    out = _scatter(ctx.ring, ctx.col_of, ctx.scalars, ctx.r, idx, flat)
    return out.reshape(*vecs.shape[:-2], *out.shape[1:])


def _relations_accumulator(ring: CoeffRing, orbit_of, col_of, scalars, r: int, parabolic, blocks):
    """Howell form of pi of the term blocks: the parabolic relations and every
    quotient block, each a diamond-stable set of rows (indices,
    coefficients).

    pi kills every sign relation, so none is passed.  <a> maps the row of a
    block whose first symbol is [u:v] to the row whose first symbol is
    [au:av], and pi(<a> R) = theta(a) pi(R), so the first row per diamond
    orbit of its first symbol spans the block: at most r rows per block
    (48 parabolic rows instead of 864 relations at N = 35).  The parabolic
    block comes cut to those rows (`_orbit_data`); each quotient block is
    cut here.  The kept rows, padded to one width, reach R^r' in one
    scatter."""
    blocks = [parabolic, *blocks]
    width = max(idx.shape[1] for idx, _ in blocks)
    kept = []
    for n, (idx, coeffs) in enumerate(blocks):
        first = np.unique(orbit_of[idx[:, 0]], return_index=True)[1] if n else slice(None)
        idx, coeffs = idx[first], coeffs[first]
        padded = np.zeros((2, len(idx), width), dtype=np.int64)  # index 0, coefficient 0
        padded[:, :, : idx.shape[1]] = idx, coeffs
        kept.append(padded)
    idx, coeffs = np.concatenate(kept, axis=1)
    acc = HowellAccumulator(ring, r)
    acc.add_rows(_scatter(ring, col_of, scalars, r, idx, coeffs[..., None] * ring.one().as_array()))
    return acc


def build_eigen_context(
    space: SymbolSpace,
    p: int,
    M: int,
    theta: DirichletCharacter,
    extra_rows=(),
) -> EigenContext:
    """Present the theta-eigenspace of the space modulo its relations and the
    quotient blocks `extra_rows`, each a diamond-stable set of rows as
    symbol indices and integer coefficients (rows, t)."""
    ring = space.ring
    N = space.N
    ug = unit_group(N)
    if ug.phi % p == 0:
        raise RingError(f"p = {p} divides phi({N})")
    if not theta.is_even():
        raise ValueError("theta must be an even character")
    if theta.N != N or theta.ring != ring:
        raise ValueError("theta does not live on this space")
    reps, orbit_of, trans, image, partner, first, parabolic = _orbit_data(N, space.variant)
    theta_trans = theta.values[np.searchsorted(ug.units, trans)]
    # per orbit O its column and the coefficient of x_O there (sigma rep(O) = <t_O> rep(sigma O))
    one, theta_t = ring.one().as_array(), theta_trans[image]
    dropped = (partner == np.arange(len(reps))) & (theta_t == one).all(axis=1)
    col = np.cumsum(first & ~dropped) - 1  # a dropped orbit's coefficient is 0
    coef = np.where(first[:, None], one * ~dropped[:, None], -theta_t % ring.pk)
    col_of = np.where(first, col, col[partner])[orbit_of]
    scalars = np.einsum("ni,nij->nj", theta_trans, ring.smatrix(coef[orbit_of])) % ring.pk
    r = int(col.max()) + 1
    rel_acc = _relations_accumulator(ring, orbit_of, col_of, scalars, r, parabolic, extra_rows)
    omega = teichmuller_character(M, p, ring)
    theta_mp = theta if N == M * p else theta.extend(M * p)
    return EigenContext(
        space=space,
        ring=ring,
        p=p,
        M=M,
        theta=theta,
        col_of=col_of,
        scalars=scalars,
        rel_acc=rel_acc,
        reps=tuple(s for s, f in zip(reps, first) if f),
        r=r,
        omega=omega,
        f=(theta_mp * omega ** (-2)).conductor(),
    )


# ---------------------------------------------------------------------------
# eigensymbols


def _vanishes(space: SymbolSpace, g: int, h: int) -> bool:
    """Checks that g and h are relatively prime divisors of N; whether [ga:hb]
    is zero by the cuspidal-at-zero convention (g = N or h = N)."""
    if space.N % g or space.N % h or gcd(g, h) != 1:
        raise ValueError("g and h must be relatively prime divisors of N")
    return space.variant == CUSP0 and space.N in (g, h)


def _character_average(
    space: SymbolSpace,
    chi: DirichletCharacter,
    psi: DirichletCharacter,
    g: int,
    h: int,
    terms,
) -> np.ndarray:
    """(1/phi(N)^2) sum over units a, b of chi^{-1}(a) psi^{-1}(b) times the
    combination of the symbols coefficient * [x ga : y hb] over `terms`, the
    triples (x, y, coefficient): one product table of the character values,
    added into the index of each term in one step per term.

    In the cuspidal-at-zero variant the symbols with g = N or h = N are zero
    by convention."""
    ring, N = space.ring, space.N
    if _vanishes(space, g, h):
        return ring.vzeros(space.nsym)
    ug = unit_group(N)
    units = np.array(ug.units, dtype=np.int64)
    inv = np.searchsorted(units, [pow(int(a), -1, N) for a in units])  # position of 1/a
    # weights[a, b] = chi(1/a) psi(1/b)
    weights = ring.vscale_stack(psi.values[inv], chi.values[inv]).reshape(-1, ring.m)
    acc = ring.vzeros(space.nsym)
    for x, y, coeff in terms:
        idx = space.table[x * g * units[:, None] % N, y * h * units[None, :] % N]
        np.add.at(acc, idx.ravel(), weights * (coeff % ring.pk) % ring.pk)
    acc %= ring.pk
    inv_phi2 = (ring.from_int(ug.phi) ** 2).inverse()
    return ring.vscale(acc, np.array(inv_phi2.coeffs, dtype=np.int64))


def eigensymbol_free(
    space: SymbolSpace,
    chi: DirichletCharacter,
    psi: DirichletCharacter,
    g: int,
    h: int,
) -> np.ndarray:
    """The free-module vector (1/phi(N)^2) sum chi^{-1}(a) psi^{-1}(b) [ga:hb]."""
    return _character_average(space, chi, psi, g, h, ((1, 1, 1),))


def eigensymbol(ctx: EigenContext, chi: DirichletCharacter, g: int, h: int) -> np.ndarray:
    """alpha_{chi,psi}^{g,h} with psi = theta chi^{-1}, in sigma-pair
    coordinates: pi of eigensymbol_free.  As pi[ga:hb] = theta(a)
    pi[g : h b/a] and chi psi = theta, that is the one phi(N)-term row
    (1/phi(N)) sum_c psi^{-1}(c) [g : hc] through the scatter (zero in the
    cuspidal-at-zero variant when g = N or h = N)."""
    space, ring, N = ctx.space, ctx.ring, ctx.N
    if _vanishes(space, g, h):
        return np.zeros((ctx.r, ring.m), dtype=np.int64)
    ug = unit_group(N)
    idx = space.table[g % N, h * np.array(ug.units, dtype=np.int64) % N]
    coeffs = ring.vscale(ctx.psi(chi).inverse().values, ring.from_int(ug.phi).inverse().as_array())
    return _scatter(ring, ctx.col_of, ctx.scalars, ctx.r, idx[None], coeffs[None])[0]


def cd_eigensymbol(ctx: EigenContext, c: int, d: int, chi: DirichletCharacter, g: int, h: int) -> np.ndarray:
    """The (c,d)-eigensymbol: the same character average over the (c,d)-symbols
    of [ga:hb], as an ambient vector."""
    terms = cd_terms(ctx.space, c, d)
    return _character_average(ctx.space, chi, ctx.psi(chi), g, h, terms)


# ---------------------------------------------------------------------------
# the (c,d)-span


def _stream_invariants(ctx: EigenContext, units: np.ndarray):
    """What the streams of all representatives share: the a axis (the
    generators of (Z/N)^x when U is every unit, by step (v) of the module
    docstring, else U), U, and the bases s_a and s_b: (a mod p)^2 when
    p | N, and 1 when p = 3 does not divide N."""
    N, ring = ctx.N, ctx.ring
    ug = unit_group(N)
    pick = np.searchsorted(units, ug.generators) if len(units) == ug.phi else np.arange(len(units))
    s = (units % ring.p) ** 2 % ring.pk if N % ring.p == 0 else np.ones(len(units), dtype=np.int64)
    return units[pick], units, s[pick], s


def _symbol_columns(ctx: EigenContext, idx: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The columns of the symbols `idx` over the unit columns `basis`: each
    scalars[i] times basis[col_of[i]], a sum of m residue products per entry."""
    ring = ctx.ring
    return basis[ctx.col_of[idx]] @ ring.smatrix(ctx.scalars[idx]) % ring.pk


def _cd_generators(ctx: EigenContext, block, shared, span: HowellAccumulator) -> np.ndarray:
    """The bilinear generator streams of a block of orbit representatives
    [u0:v0], as one stack (`shared` is `_stream_invariants(ctx, U)`): for a
    on its a axis and b in U, s_a s_b x0 - s_a x1 - s_b x2 + x3 with x0, x1,
    x2, x3 the columns of [u0:v0], [u0:b v0], [a u0:v0], [a u0:b v0], then
    the fiber generators p(s_b x0 - x1), p(s_a x0 - x2) (k >= 2) and p^2 x0
    (k >= 3): at most |gens| phi(N) + phi(N) + |gens| + 1 rows per
    representative when the a axis is the generators of (Z/N)^x (step (v)).

    By step (iv) of the module docstring the unit columns are reduced modulo
    the running `span` once per block (not while it is only the relations),
    and the four symbols are gathered from them, on the columns without a
    unit pivot; zero rows are left out."""
    space, ring, pk, N = ctx.space, ctx.ring, ctx.ring.pk, ctx.N
    a_axis, units, sa, sb = shared
    basis = ctx.basis if span.length == ctx.rel_length else span.reduce_rows(ctx.basis)
    free = np.bincount(span.cols[span.pvals == 0], minlength=span.ncols) == 0
    basis = basis[:, free]
    if not basis.any():
        return np.zeros((0, span.ncols, ring.m), dtype=np.int64)
    u0, v0 = space.u[list(block), None], space.v[list(block), None]
    au, bv = a_axis * u0 % N, units * v0 % N  # (rep, a) and (rep, b)
    x0 = _symbol_columns(ctx, space.table[u0, v0], basis)  # (rep, 1, r, m)
    x1 = _symbol_columns(ctx, space.table[u0, bv], basis)  # (rep, b, r, m)
    x2 = _symbol_columns(ctx, space.table[au, v0], basis)  # (rep, a, r, m)
    x3 = _symbol_columns(ctx, space.table[au[:, :, None], bv[:, None]], basis)  # (rep, a, b, r, m)
    s, t = sa[:, None, None, None], sb[None, :, None, None]  # s_a and s_b on the axes (a, b, r, m)
    # each product is below p^(2k), so every sum stays inside the int64 bound
    stacks = [(x0[:, None] * (s * t % pk) - x1[:, None] * s - x2[:, :, None] * t + x3) % pk]  # (rep, a, b, r, m)
    if ring.k >= 2:
        stacks.append((x0 * sb[:, None, None] - x1) % pk * ring.p % pk)
        stacks.append((x0 * sa[:, None, None] - x2) % pk * ring.p % pk)
    if ring.k >= 3:
        stacks.append(x0 * ring.p**2 % pk)
    rows = np.concatenate([g.reshape(len(block), -1, *basis.shape[1:]) for g in stacks], axis=1)
    rows = rows.reshape(-1, *rows.shape[2:])  # representative by representative
    out = np.zeros((len(rows), span.ncols, ring.m), dtype=np.int64)
    out[:, free] = rows
    return out[rows.any(axis=(1, 2))]


def cd_span(ctx: EigenContext, unit_bound: int | None = None) -> HowellAccumulator:
    """The Howell span C^theta of e_theta applied to all (c,d)-symbols, with
    (c, d) ranging over every residue class prime to 6N modulo lcm(6N, p^k),
    plus the relations.  A unit_bound restricts the c mod N and d mod N
    residues to representatives <= bound.

    When p does not divide N and p >= 5 the span is all of R^r' by
    (i)-(iii) of the module docstring, and no stream is formed.  Otherwise
    only the representatives first in their sigma-pair (`ctx.reps`) are
    visited.  Modulo the sign relations the (c,d)-symbol of sigma[u:v] is
    minus the (d,c)-symbol of [u:v], the partner's representative is a
    diamond translate of sigma of the first one, and the class set is
    symmetric in (c, d), also under a unit_bound; so the partner's stream
    adds nothing.  When U is every unit the a axis of each bilinear stream
    runs over the generators of (Z/N)^x only, by (v).

    The representatives are visited in blocks of 1, 1, 2, 4, ..., each as
    long as all the blocks before it, one stack per block.  By (iv) each
    block's streams are gathered from unit columns reduced modulo the span,
    on the columns without a unit pivot, and a zero stack is not inserted.
    The visit stops once the span is all of R^r' (length r' k), before the
    next block's columns are gathered; when the relations already reach it
    (dim_H = 0) no stream invariant is built either."""
    units = np.array(unit_group(ctx.N).units, dtype=np.int64)
    if unit_bound is not None:
        units = units[units <= unit_bound]
    if not len(units):
        raise ValueError("cd bound excludes every residue class")
    if ctx.p >= 5 and ctx.N % ctx.p:
        return ctx.htheta_target()
    full = ctx.r * ctx.ring.k
    acc = ctx.rel_acc.copy()
    shared = _stream_invariants(ctx, units) if acc.length < full else None
    done = 0
    while done < len(ctx.reps) and acc.length < full:
        block = ctx.reps[done : 2 * done or 1]
        rows = _cd_generators(ctx, block, shared, acc)
        if len(rows):
            acc.add_rows(rows)
        done += len(block)
    return acc


# ---------------------------------------------------------------------------
# generation verdicts


@dataclass
class GenerationReport:
    """Per-scenario verdict: theorem case, span lengths, extra generators
    adjoined, and the elementary divisors of the final cokernel."""

    p: int
    k: int
    M: int
    N: int
    variant: str
    theta: str
    quotient: str
    cd: str
    case: str
    dim_H: int
    dim_C: int
    extras: tuple[str, ...]
    divisors: tuple[str, ...]
    equal: bool
    millis: int

    @property
    def claim_ok(self):
        """Whether the asserted identity of the classified case holds; None
        for uncovered scenarios (no claim is made)."""
        if self.case in _COVERED_EQUALITY_CASES:
            return self.equal
        if self.case in ("b", "c"):
            return not self.divisors
        return None

    def to_json_dict(self) -> dict:
        return {
            "params": {
                "p": self.p,
                "k": self.k,
                "M": self.M,
                "N": self.N,
                "variant": self.variant,
                "theta": self.theta,
                "quotient": self.quotient,
                "cd": self.cd,
            },
            "case": self.case,
            "dims": {"H_theta": self.dim_H, "C_theta": self.dim_C},
            "extras": list(self.extras),
            "divisors": list(self.divisors),
            "equal": self.equal,
            "millis": self.millis,
        }


def _validate_scenario(p: int, k: int, M: int, level: str):
    if not is_prime(p) or p == 2:
        raise ValueError(f"p = {p} must be an odd prime")
    if k < 1:
        raise ValueError("k must be at least 1")
    if M < 1:
        raise ValueError("M must be positive")
    phi_m = unit_group(M).phi if M > 1 else 1
    if (M * phi_m) % p == 0:
        raise ValueError(f"p divides M*phi(M): p={p}, M={M}, phi(M)={phi_m}")
    if level not in ("M", "Mp"):
        raise ValueError("level must be 'M' or 'Mp'")
    N = M if level == "M" else M * p
    if N < 4:
        raise ValueError(f"level N = {N} must be at least 4")
    return N


def _classify(ctx: EigenContext, spec: QuotientSpec) -> str:
    p, M, N, f = ctx.p, ctx.M, ctx.N, ctx.f
    theta, variant, trivial_u = ctx.theta, ctx.space.variant, spec.trivial_u
    if N == M * p and f % M == 0 and trivial_u:
        if p >= 5 and f == N:
            return "U-i"
        if (
            p >= 5
            and f == M
            and M > 1
            and p in trivial_u
            and restrict_to_part(theta, M)(p) != ctx.ring.one()
        ):
            return "U-ii"
        for ell in trivial_u:
            if M % ell == 0 and (p >= 5 or (f == N and variant == CUSP0)):
                return "U-iii"
    if spec.t2 and M == 1 and variant == CUSP0 and theta == ctx.omega**2:
        return "T2"
    if p >= 5 and f == N:
        return "a"
    if N == M * p and p >= 5 and f == M and M > 1:
        return "b"
    if N == M * p and p == 3 and theta.conductor() == N:
        return "c"
    return "uncovered"


def _case_extras(ctx: EigenContext, case: str):
    out = []
    if case == "b":
        out.append((ctx.omega**2, 1, ctx.p))
    elif case == "c":
        triv = ctx.theta * ctx.theta.inverse()
        out.append((triv, 1, 1))
        if ctx.space.variant == FULL:
            out.append((triv, ctx.N, 1))
    return out


def working_ring(theta: DirichletCharacter) -> CoeffRing:
    """The ring a scenario's arithmetic runs in: Z/p^k when theta takes its
    values there, else theta's ring.

    omega takes values in Z/p^k, so then do omega^2, theta omega^-2 and the
    trivial character, the characters a scenario adjoins, and the quotient
    rows (integers and omega^2).  GR(p^k, m) is free of rank m over Z/p^k,
    so lengths, verdicts and elementary divisors are the same in either
    ring.  Labels are still made in theta's own ring."""
    ring = theta.ring
    return make_coeff_ring(ring.p, ring.k) if theta.descends else ring


def check_generation(
    p: int,
    k: int,
    M: int,
    level: str,
    variant: str,
    theta,
    quotient: QuotientSpec = QuotientSpec(),
    cd_bound: int | None = None,
) -> GenerationReport:
    """Classify the scenario into its theorem case, impose the quotient's
    Hecke-type relations, compute the spans, and report whether the
    prescribed generation identity holds."""
    t_start = time.perf_counter()
    N = _validate_scenario(p, k, M, level)
    canonical = make_coeff_ring(p, k, unit_group(N).phi)
    if isinstance(theta, str):
        theta = parse_theta(theta, N, p, canonical)
    elif theta.ring != canonical:
        raise ValueError(f"theta does not take values in {canonical}")
    ring = working_ring(theta)
    space = build_presentation(N, variant, ring)
    theta_w = theta.over(ring)
    ctx = build_eigen_context(space, p, M, theta_w, hecke.quotient_rows(space, p, quotient, theta_w))
    case = _classify(ctx, quotient)
    c_acc = cd_span(ctx, unit_bound=cd_bound)
    full = ctx.r * k  # the length of H_theta's target R^r'
    dim_h = ctx.dim_H
    dim_c = c_acc.length - ctx.rel_length
    equal = c_acc.length == full
    extras: list[str] = []
    divisors: list[str] = []
    if not equal:
        for chi, g, h in _case_extras(ctx, case):
            c_acc.add(eigensymbol(ctx, chi, g, h))
            extras.append(f"alpha(chi={chi.over(canonical).label()},g={g},h={h})")
        if c_acc.length != full:
            divisors = format_divisors(elementary_divisors(c_acc, ctx.htheta_target()), ring)
    millis = int(round((time.perf_counter() - t_start) * 1000))
    return GenerationReport(
        p=p,
        k=k,
        M=M,
        N=N,
        variant=variant,
        theta=theta.label(),
        quotient=quotient.label(),
        cd="exhaustive" if cd_bound is None else f"bound={cd_bound}",
        case=case,
        dim_H=dim_h,
        dim_C=dim_c,
        extras=tuple(extras),
        divisors=tuple(divisors),
        equal=equal,
        millis=millis,
    )
