"""Finite presentations of modular-symbol spaces with their diamond action.

Generators are unimodular pairs (u, v) in (Z/NZ)^2 identified with
(-u, -v); that identification is performed at the index level, while the
sign relation [u:v] + [-v:u] = 0 and the parabolic relation
[u:v] - [u:u+v] - [u+v:v] = 0 are kept as explicit rows.  The
cuspidal-at-zero variant drops symbols with a zero coordinate and emits the
parabolic row only when u, v and u+v are all nonzero.
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
    "cd_symbol",
    "vector_to_dict",
    "cusp0_agreement",
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

    Holds the canonical generator list, the relation rows as dense vectors,
    and `table`, the N x N array of symbol indices of all pairs (u, v) mod N
    (both signs of a symbol share its index; -1 where (u, v) is not a
    symbol), through which indexing and the diamond action are gathers.
    Immutable after construction.
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
        self.relation_rows = self._build_rows()
        self._orbit_data = None

    # -- indexing ---------------------------------------------------------
    def idx(self, u: int, v: int) -> int:
        i = int(self.table[u % self.N, v % self.N])
        if i < 0:
            raise ValueError(f"({u}, {v}) is not a symbol of this space")
        return i

    # -- relations ---------------------------------------------------------
    def _build_rows(self) -> np.ndarray:
        """Per symbol [u:v] in order: the sign row [u:v] + [-v:u] (once per
        pair) and the parabolic row [u:v] - [u:u+v] - [u+v:v]."""
        N, n = self.N, self.nsym
        me = np.arange(n)
        u, v = self._u, self._v
        w = (u + v) % N
        sign_partner = self.table[-v % N, u]
        keep = np.stack([me <= sign_partner, (w != 0) | (self.variant == FULL)], axis=1)
        row_of = (np.cumsum(keep) - 1).reshape(n, 2)  # row of each kept (symbol, kind)
        rows = np.zeros((int(keep.sum()), n, self.ring.m), dtype=np.int64)
        terms = (
            (0, (me, sign_partner), (1, 1)),
            (1, (me, self.table[u, w], self.table[w, v]), (1, -1, -1)),
        )
        for kind, cols, coeffs in terms:
            sel = keep[:, kind]
            for col, c in zip(cols, coeffs):
                np.add.at(rows[..., 0], (row_of[sel, kind], col[sel]), c)
        rows %= self.ring.pk
        return rows

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


def cd_symbol(space: SymbolSpace, c: int, d: int, u: int, v: int) -> np.ndarray:
    """The four-term combination c^2 d^2 [u:v] - c^2 [u:dv] - d^2 [cu:v] + [cu:dv].

    The scalars are the integers c^2, d^2 mapped into the coefficient ring,
    so the result depends on c through both c mod N and c mod p^k.
    """
    N = space.N
    ring = space.ring
    if c <= 1 or d <= 1:
        raise ValueError("c and d must be integers greater than 1")
    if gcd(c, 6 * N) != 1 or gcd(d, 6 * N) != 1:
        raise ValueError(f"c and d must be prime to 6N = {6 * N}")
    i0 = space.idx(u, v)
    c2 = c * c % ring.pk
    d2 = d * d % ring.pk
    vec = ring.vzeros(space.nsym)
    vec[i0, 0] += c2 * d2
    vec[space.idx(u, d * v), 0] -= c2
    vec[space.idx(c * u, v), 0] -= d2
    vec[space.idx(c * u, d * v), 0] += 1
    return vec % ring.pk


def vector_to_dict(space: SymbolSpace, vec: np.ndarray) -> dict[tuple[int, int], tuple[int, ...]]:
    """Sparse view of a symbol vector, for tests and debugging."""
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
    from .linalg import HowellAccumulator

    full = build_presentation(N, FULL, ring)
    cusp = build_presentation(N, CUSP0, ring)
    acc_c = HowellAccumulator(ring, cusp.nsym, list(cusp.relation_rows))
    abstract_len = cusp.nsym * ring.k - acc_c.length
    acc_f = HowellAccumulator(ring, full.nsym, list(full.relation_rows))
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
