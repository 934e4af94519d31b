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
    "canonical_pair",
    "enumerate_symbols",
    "SymbolSpace",
    "build_presentation",
    "cd_terms",
    "cd_symbol",
]

FULL = "full"
CUSP0 = "cusp0"
_VARIANTS = (FULL, CUSP0)


def canonical_pair(N: int, u: int, v: int) -> tuple[int, int]:
    """Lexicographically least of (u, v) and (-u, -v) modulo N."""
    u %= N
    v %= N
    return min((u, v), ((-u) % N, (-v) % N))


@lru_cache(maxsize=None)
def enumerate_symbols(N: int, variant: str) -> tuple[tuple[int, int], ...]:
    """All canonical unimodular pairs mod N; cusp0 excludes zero coordinates."""
    if N < 4:
        raise ValueError(f"level must be at least 4, got {N}")
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}")
    out = []
    for u in range(N):
        for v in range(N):
            if gcd(gcd(u, v), N) != 1:
                continue
            if variant == CUSP0 and (u == 0 or v == 0):
                continue
            if (u, v) == canonical_pair(N, u, v):
                out.append((u, v))
    return tuple(out)


class SymbolSpace:
    """Presentation of a level-N modular-symbol space over a coefficient ring.

    Holds the canonical generator list, the relations as sparse terms
    (relation t is sum_s relation_coeffs[t, s] [relation_rows[t, s]], both
    arrays (nrel, 3) over symbol indices), and `table`, the N x N array of
    symbol indices of all pairs (u, v) mod N (both signs of a symbol share
    its index; -1 where (u, v) is not a symbol), through which indexing and
    the diamond action are gathers.  Immutable after construction.
    """

    def __init__(self, N: int, variant: str, ring: CoeffRing):
        self.N = N
        self.variant = variant
        self.ring = ring
        self.symbols = enumerate_symbols(N, variant)
        self.nsym = len(self.symbols)
        self.units = unit_group(N).units
        uv = np.array(self.symbols, dtype=np.int64).reshape(-1, 2)
        self._u, self._v = uv[:, 0], uv[:, 1]
        self.table = np.full((N, N), -1, dtype=np.int64)
        self.table[(-self._u) % N, (-self._v) % N] = np.arange(self.nsym)
        self.table[self._u, self._v] = np.arange(self.nsym)
        self.relation_rows, self.relation_coeffs = self._relation_terms()
        self._orbit_data = None

    # -- indexing ---------------------------------------------------------
    def idx(self, u: int, v: int) -> int:
        i = int(self.table[u % self.N, v % self.N])
        if i < 0:
            raise ValueError(f"({u}, {v}) is not a symbol of this space")
        return i

    # -- relations ---------------------------------------------------------
    def _relation_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """Per symbol [u:v] in order: the sign row [u:v] + [-v:u] (once per
        pair) and the parabolic row [u:v] - [u:u+v] - [u+v:v]."""
        N, n = self.N, self.nsym
        me = np.arange(n)
        u, v = self._u, self._v
        w = (u + v) % N
        sign_partner = self.table[-v % N, u]
        keep = np.stack([me <= sign_partner, (w != 0) | (self.variant == FULL)], axis=1)
        # (symbol, kind, term); the sign row's third term has coefficient 0
        sign = np.stack([me, sign_partner, me], axis=1)
        parabolic = np.stack([me, self.table[u, w], self.table[w, v]], axis=1)
        cols = np.stack([sign, parabolic], axis=1)
        coeffs = np.broadcast_to(np.array([[1, 1, 0], [1, -1, -1]], dtype=np.int64), cols.shape)
        return cols[keep], coeffs[keep]

    def dense_relation_rows(self) -> np.ndarray:
        """The relations as dense rows (nrel, nsym, m), for reference checks
        in the ambient space; the verdict path never builds them."""
        cols = self.relation_rows
        rows = np.zeros((len(cols), self.nsym, self.ring.m), dtype=np.int64)
        np.add.at(rows[..., 0], (np.arange(len(cols))[:, None], cols), self.relation_coeffs)
        return rows % self.ring.pk

    # -- diamond action ------------------------------------------------------
    def diamond_perm(self, a: int) -> np.ndarray:
        """Index permutation of <a>: symbol (u, v) goes to position of (au, av)."""
        a %= self.N
        if gcd(a, self.N) != 1:
            raise ValueError(f"{a} is not a unit modulo {self.N}")
        return self.table[a * self._u % self.N, a * self._v % self.N]

    def orbits(self):
        """Diamond-orbit decomposition: (reps, orbit_of, transporter) where
        transporter[i] is the first unit a (in unit-group order) with
        <a> rep = symbol i.  The orbit of i is the column {<a> i} of the
        action table, and its representative is the least index in it."""
        if self._orbit_data is None:
            units = np.array(self.units, dtype=np.int64)
            action = self.table[
                units[:, None] * self._u % self.N, units[:, None] * self._v % self.N
            ]  # action[t, i] = index of <units[t]> symbol i
            least = action.min(axis=0)
            reps = np.unique(least)
            orbit_of = np.searchsorted(reps, least)
            # action[:, reps] in unit-major order: the first hit of each
            # symbol comes from the first unit that reaches it
            hits, first = np.unique(action[:, reps].ravel(), return_index=True)
            trans = np.zeros(self.nsym, dtype=np.int64)
            trans[hits] = units[first // len(reps)]
            self._orbit_data = (tuple(int(i) for i in reps), orbit_of, trans)
        return self._orbit_data

    def __repr__(self):
        return f"SymbolSpace(N={self.N}, {self.variant}, {self.nsym} symbols, {self.ring})"


@lru_cache(maxsize=None)
def build_presentation(N: int, variant: str, ring: CoeffRing) -> SymbolSpace:
    """Presentation with the sign rows, the parabolic rows admissible for the
    variant, and the diamond permutation table."""
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


def cd_symbol(space: SymbolSpace, c: int, d: int, u: int, v: int) -> np.ndarray:
    """The four-term combination c^2 d^2 [u:v] - c^2 [u:dv] - d^2 [cu:v] + [cu:dv]."""
    ring = space.ring
    vec = ring.vzeros(space.nsym)
    for x, y, coeff in cd_terms(space, c, d):
        vec[space.idx(x * u, y * v), 0] += coeff
    return vec % ring.pk
