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
    and the diamond permutation table.  Immutable after construction.
    """

    def __init__(self, N: int, variant: str, ring: CoeffRing):
        self.N = N
        self.variant = variant
        self.ring = ring
        self.symbols = enumerate_symbols(N, variant)
        self.nsym = len(self.symbols)
        self.index = {s: i for i, s in enumerate(self.symbols)}
        self.units = unit_group(N).units
        self._diamond: dict[int, np.ndarray] = {}
        self.relation_rows = self._build_rows()
        self._orbit_data = None

    # -- indexing ---------------------------------------------------------
    def idx(self, u: int, v: int) -> int:
        key = canonical_pair(self.N, u, v)
        try:
            return self.index[key]
        except KeyError:
            raise ValueError(f"({u}, {v}) is not a symbol of this space") from None

    # -- relations ---------------------------------------------------------
    def _build_rows(self) -> np.ndarray:
        ring = self.ring
        N = self.N
        rows = []
        for (u, v) in self.symbols:
            i_sign = self.idx(-v, u)
            me = self.idx(u, v)
            if me <= i_sign:
                r = ring.vzeros(self.nsym)
                r[me, 0] += 1
                r[i_sign, 0] += 1
                rows.append(r % ring.pk)
            w = (u + v) % N
            if self.variant == FULL or w != 0:
                r = ring.vzeros(self.nsym)
                r[me, 0] += 1
                r[self.idx(u, w), 0] -= 1
                r[self.idx(w, v), 0] -= 1
                rows.append(r % ring.pk)
        return np.stack(rows)

    # -- diamond action ------------------------------------------------------
    def diamond_perm(self, a: int) -> np.ndarray:
        """Index permutation of <a>: symbol (u, v) goes to position of (au, av)."""
        a %= self.N
        if gcd(a, self.N) != 1:
            raise ValueError(f"{a} is not a unit modulo {self.N}")
        perm = self._diamond.get(a)
        if perm is None:
            perm = np.array([self.idx(a * u, a * v) for (u, v) in self.symbols], dtype=np.int64)
            self._diamond[a] = perm
        return perm

    def orbits(self):
        """Diamond-orbit decomposition: (reps, orbit_of, transporter) where
        transporter[i] is a unit a with <a> rep = symbol i."""
        if self._orbit_data is None:
            orbit_of = np.full(self.nsym, -1, dtype=np.int64)
            trans = np.zeros(self.nsym, dtype=np.int64)
            reps = []
            for i in range(self.nsym):
                if orbit_of[i] >= 0:
                    continue
                o = len(reps)
                reps.append(i)
                orbit_of[i] = o
                trans[i] = 1
                frontier = [i]
                while frontier:
                    j = frontier.pop()
                    for a in self.units:
                        t = int(self.diamond_perm(a)[j])
                        if orbit_of[t] < 0:
                            orbit_of[t] = o
                            trans[t] = a * trans[j] % self.N
                            frontier.append(t)
            self._orbit_data = (tuple(reps), orbit_of, trans)
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
