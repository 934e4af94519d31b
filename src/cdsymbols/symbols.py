"""Finite presentations of modular-symbol spaces with their diamond action.

Generators are unimodular pairs (u, v) in (Z/NZ)^2 identified with
(-u, -v); that identification is performed at the index level, while the
sign relation [u:v] + [-v:u] = 0 and the parabolic relation
[u:v] - [u:u+v] - [u+v:v] = 0 are kept as their (symbol, coefficient)
terms.  The cuspidal-at-zero variant drops symbols with a zero coordinate
and emits the parabolic relation only when u, v and u+v are all nonzero.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

import numpy as np

from .rings import CoeffRing
from .characters import unit_group

__all__ = [
    "FULL",
    "CUSP0",
    "enumerate_symbols",
    "SymbolSpace",
    "build_presentation",
    "cd_terms",
]

FULL = "full"
CUSP0 = "cusp0"
_VARIANTS = (FULL, CUSP0)


@lru_cache(maxsize=None)
def enumerate_symbols(N: int, variant: str) -> tuple[tuple[int, int], ...]:
    """All canonical unimodular pairs mod N, in lexicographic order; cusp0
    excludes zero coordinates.  Read off the N x N grid of pairs: (u, v) is
    kept when gcd(u, v, N) = 1 and (u, v) <= (-u, -v) lexicographically."""
    if N < 4:
        raise ValueError(f"level must be at least 4, got {N}")
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}")
    u, v = np.divmod(np.arange(N * N), N)
    nu, nv = -u % N, -v % N
    keep = (np.gcd(np.gcd(u, v), N) == 1) & ((u < nu) | ((u == nu) & (v <= nv)))
    if variant == CUSP0:
        keep &= (u != 0) & (v != 0)
    return tuple(zip(u[keep].tolist(), v[keep].tolist()))


@lru_cache(maxsize=None)
def _ring_free_part(N: int, variant: str):
    """What a presentation shares between rings: the symbols, their
    coordinates u and v, `table` and the relation terms, as read-only arrays
    (see SymbolSpace)."""
    symbols = enumerate_symbols(N, variant)
    n = len(symbols)
    u, v = np.array(symbols, dtype=np.int64).reshape(-1, 2).T
    table = np.full((N, N), -1, dtype=np.int64)
    table[-u % N, -v % N] = np.arange(n)
    table[u, v] = np.arange(n)
    # Per symbol [u:v] in order: the sign row [u:v] + [-v:u] (once per pair)
    # and the parabolic row [u:v] - [u:u+v] - [u+v:v].
    me = np.arange(n)
    w = (u + v) % N
    sign_partner = table[-v % N, u]
    keep = np.stack([me <= sign_partner, (w != 0) | (variant == FULL)], axis=1)
    # (symbol, kind, term); the sign row's third term has coefficient 0
    sign = np.stack([me, sign_partner, me], axis=1)
    parabolic = np.stack([me, table[u, w], table[w, v]], axis=1)
    cols = np.stack([sign, parabolic], axis=1)
    coeffs = np.broadcast_to(np.array([[1, 1, 0], [1, -1, -1]], dtype=np.int64), cols.shape)
    arrays = (u, v, table, cols[keep], coeffs[keep])
    for a in arrays:
        a.flags.writeable = False
    return (symbols, *arrays)


def _diamond_action(N: int, variant: str) -> np.ndarray:
    """action[t, i] = index of <units[t]> symbol i, units in increasing order."""
    _, u, v, table, _, _ = _ring_free_part(N, variant)
    units = np.array(unit_group(N).units, dtype=np.int64)
    times = units[:, None] * np.arange(N) % N  # times[t, x] = units[t] x mod N
    return table.ravel()[times[:, u] * N + times[:, v]]


@lru_cache(maxsize=None)
def _orbit_data(N: int, variant: str):
    """What the eigenspaces of one (N, variant) share, whatever the ring and
    theta: (reps, orbit_of, transporter) of SymbolSpace.orbits; per orbit O,
    the symbol `image` of sigma rep(O) = [-v:u], the orbit `partner` of
    sigma O and whether O is `first` in its sigma-pair; and `parabolic`,
    the parabolic relation block (indices, coefficients) cut to the first
    row per diamond orbit of its first symbol."""
    _, u, v, table, rows, coeffs = _ring_free_part(N, variant)
    action = _diamond_action(N, variant)
    nsym = action.shape[1]
    least = action.min(axis=0)
    reps = np.flatnonzero(least == np.arange(nsym))
    orbit_of = np.searchsorted(reps, least)
    # action[:, reps] in unit-major order: the first hit of each symbol comes
    # from the first unit that reaches it
    hits, first_hit = np.unique(action[:, reps].ravel(), return_index=True)
    trans = np.zeros(nsym, dtype=np.int64)
    trans[hits] = np.array(unit_group(N).units, dtype=np.int64)[first_hit // len(reps)]
    image = table[-v[reps] % N, u[reps]]
    partner = orbit_of[image]
    first = partner >= np.arange(len(reps))
    parabolic = np.flatnonzero(coeffs[:, 2])  # a sign row's third term is 0
    parabolic = parabolic[np.unique(orbit_of[rows[parabolic, 0]], return_index=True)[1]]
    arrays = (orbit_of, trans, image, partner, first, rows[parabolic], coeffs[parabolic])
    for a in arrays:
        a.flags.writeable = False
    return (tuple(int(i) for i in reps), *arrays[:5], arrays[5:])


class SymbolSpace:
    """Presentation of a level-N modular-symbol space over a coefficient ring.

    Holds the canonical generator list with its coordinates as arrays `u`
    and `v`, the relations as sparse terms (relation t is
    sum_s relation_coeffs[t, s] [relation_rows[t, s]], both arrays (nrel, 3)
    over symbol indices), and `table`, the N x N array of
    symbol indices of all pairs (u, v) mod N (both signs of a symbol share
    its index; -1 where (u, v) is not a symbol), through which indexing, the
    diamond orbits and every relation's terms are gathers.  None of these
    depends on the ring: the spaces of one (N, variant) share them,
    read-only, with their orbits.  Immutable after construction.
    """

    def __init__(self, N: int, variant: str, ring: CoeffRing):
        self.N = N
        self.variant = variant
        self.ring = ring
        (self.symbols, self.u, self.v, self.table,
         self.relation_rows, self.relation_coeffs) = _ring_free_part(N, variant)
        self.nsym = len(self.symbols)

    # -- indexing ---------------------------------------------------------
    def idx(self, u: int, v: int) -> int:
        i = int(self.table[u % self.N, v % self.N])
        if i < 0:
            raise ValueError(f"({u}, {v}) is not a symbol of this space")
        return i

    # -- relations ---------------------------------------------------------
    def dense_relation_rows(self, terms=None) -> np.ndarray:
        """The term block `terms` = (indices, coefficients), both (rows, t),
        as dense rows (rows, nsym, m); the Manin relations by default.  For
        reference checks in the ambient space; the verdict path never builds
        them."""
        cols, coeffs = terms or (self.relation_rows, self.relation_coeffs)
        rows = np.zeros((len(cols), self.nsym, self.ring.m), dtype=np.int64)
        np.add.at(rows[..., 0], (np.arange(len(cols))[:, None], cols), coeffs)
        return rows % self.ring.pk

    def orbits(self):
        """Diamond-orbit decomposition: (reps, orbit_of, transporter) where
        transporter[i] is the first unit a (in unit-group order) with
        <a> rep = symbol i.  The orbit of i is the column {<a> i} of the
        action table, and its representative is the least index in it."""
        return _orbit_data(self.N, self.variant)[:3]

    def __repr__(self):
        return f"SymbolSpace(N={self.N}, {self.variant}, {self.nsym} symbols, {self.ring})"


@lru_cache(maxsize=None)
def build_presentation(N: int, variant: str, ring: CoeffRing) -> SymbolSpace:
    """Presentation with the sign rows, the parabolic rows admissible for the
    variant, and the diamond orbits; its ring-free part is built once per
    (N, variant)."""
    return SymbolSpace(N, variant, ring)


def cd_terms(space: SymbolSpace, c: int, d: int) -> tuple[tuple[int, int, int], ...]:
    """The four terms of the (c,d)-symbol of [u:v] as (x, y, coefficient):
    the term coefficient * [x u : y v].  The coefficients are the integers
    c^2 d^2, -c^2, -d^2 and 1 with c^2, d^2 reduced mod p^k, so the symbol
    depends on c through both c mod N and c mod p^k."""
    N = space.N
    if c <= 1 or d <= 1:
        raise ValueError("c and d must be integers greater than 1")
    if gcd(c, 6 * N) != 1 or gcd(d, 6 * N) != 1:
        raise ValueError(f"c and d must be prime to 6N = {6 * N}")
    c2 = c * c % space.ring.pk
    d2 = d * d % space.ring.pk
    return ((1, 1, c2 * d2), (1, d, -c2), (c, 1, -d2), (c, d, 1))
