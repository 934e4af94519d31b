"""Finite presentations of modular-symbol spaces with their diamond action.

Generators are unimodular pairs (u, v) in (Z/NZ)^2 identified with
(-u, -v); that identification is performed at the index level.  The
relations are the sign relation [u:v] + [-v:u] = 0 and the parabolic
relation [u:v] - [u:u+v] - [u+v:v] = 0; the cuspidal-at-zero variant drops
symbols with a zero coordinate and keeps the parabolic relation only when
u, v and u+v are all nonzero.  No relation is stored whole: the eigenspaces
quotient the sign relations out through the sigma-pairing of the orbits and
take the parabolic relation of each orbit representative (`_orbit_data`).

The diamond operators <a>[u:v] = [au:av] permute the symbols.  Every
stabiliser is {1, -1} ((a -+ 1)(u, v) = 0 with gcd(u, v, N) = 1 forces
a = +-1), so an orbit is its least symbol, found by pointer doubling, moved
by the phi(N)/2 units a < N/2; no phi(N) x nsym table (`_orbit_data`).
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


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def _ring_free_part(N: int, variant: str):
    """What a presentation shares between rings: u, v and `table` (see
    SymbolSpace), read off the N x N grid of pairs: (u, v) is a symbol when
    gcd(u, v, N) = 1 and (u, v) <= (-u, -v) in grid order (cusp0: u, v != 0)."""
    if N < 4:
        raise ValueError(f"level must be at least 4, got {N}")
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}")
    u, v = np.divmod(np.arange(N * N), N)
    neg = -u % N * N + -v % N  # grid position of (-u, -v)
    keep = (np.gcd(np.gcd(u, v), N) == 1) & (np.arange(N * N) <= neg) & ((variant == FULL) | (u * v != 0))
    sym = np.flatnonzero(keep)
    table = np.full(N * N, -1, dtype=np.int64)
    table[neg[sym]] = table[sym] = np.arange(len(sym))
    return _read_only(u[sym], v[sym], table.reshape(N, N))


@lru_cache(maxsize=None)
def enumerate_symbols(N: int, variant: str) -> tuple[tuple[int, int], ...]:
    """The symbols as pairs (u, v), in lexicographic order (_ring_free_part)."""
    u, v, _ = _ring_free_part(N, variant)
    return tuple(zip(u.tolist(), v.tolist()))


@lru_cache(maxsize=None)
def _orbit_data(N: int, variant: str):
    """What the eigenspaces of one (N, variant) share, whatever the ring and
    theta: the orbit representatives `reps`, each symbol's orbit `orbit_of`
    and its `transporter`, the least unit a with <a> rep = symbol (a < N/2);
    per orbit O,
    the symbol `image` of sigma rep(O) = [-v:u], the orbit `partner` of
    sigma O and whether O is `first` in its sigma-pair; and `parabolic`,
    the parabolic rows (indices, coefficients) of the admissible
    representatives, the first row per orbit (admissibility is invariant).
    The representative is the least symbol of its orbit, found by pointer
    doubling: per generator g of the unit group, ceil(log2 ord g) rounds of
    least = min(least, least[step]), step = step[step], from step = <g>.
    The transporters are the units a < N/2 applied to the representatives.
    Every gather has O(nsym) entries."""
    u, v, table = _ring_free_part(N, variant)
    ug = unit_group(N)
    least = np.arange(len(u))
    for g, order in zip(ug.generators, ug.orders):
        step = table[g * u % N, g * v % N]
        for _ in range((order - 1).bit_length()):
            least = np.minimum(least, least[step])
            step = step[step]
    reps = np.flatnonzero(least == np.arange(len(u)))
    orbit_of = np.searchsorted(reps, least)
    half = np.array(ug.units[: ug.phi // 2], dtype=np.int64)[:, None]
    trans = np.empty(len(u), dtype=np.int64)
    trans[table[half * u[reps] % N, half * v[reps] % N]] = half
    image = table[-v[reps] % N, u[reps]]
    partner = orbit_of[image]
    w = (u[reps] + v[reps]) % N
    rows = np.stack([reps, table[u[reps], w], table[w, v[reps]]], axis=1)[(w != 0) | (variant == FULL)]
    coeffs = np.broadcast_to(np.array([1, -1, -1], dtype=np.int64), rows.shape)
    first = partner >= np.arange(len(reps))
    return (tuple(reps.tolist()), *_read_only(orbit_of, trans, image, partner, first), _read_only(rows, coeffs))


class SymbolSpace:
    """Presentation of a level-N modular-symbol space over a coefficient ring.

    Holds the canonical generator list `symbols` with its coordinates as
    arrays `u` and `v`, and `table`, the N x N array of symbol indices of
    all pairs (u, v) mod N (both signs of a symbol share its index; -1 where
    (u, v) is not a symbol), through which indexing, the diamond orbits and
    the terms of every relation are gathers.  The relations themselves are
    the sign and parabolic rows of the module docstring; an eigenspace reads
    them from the orbit data.  None of this depends on the ring: the spaces
    of one (N, variant) share it, read-only, with their orbits; `symbols` is
    built on first read.  Immutable.
    """

    def __init__(self, N: int, variant: str, ring: CoeffRing):
        self.N = N
        self.variant = variant
        self.ring = ring
        self.u, self.v, self.table = _ring_free_part(N, variant)
        self.nsym = len(self.u)

    symbols = property(lambda self: enumerate_symbols(self.N, self.variant))

    # -- indexing ---------------------------------------------------------
    def idx(self, u: int, v: int) -> int:
        i = int(self.table[u % self.N, v % self.N])
        if i < 0:
            raise ValueError(f"({u}, {v}) is not a symbol of this space")
        return i

    def __repr__(self):
        return f"SymbolSpace(N={self.N}, {self.variant}, {self.nsym} symbols, {self.ring})"


@lru_cache(maxsize=None)
def build_presentation(N: int, variant: str, ring: CoeffRing) -> SymbolSpace:
    """Presentation of the level-N space of the variant over the ring; its
    ring-free part is built once per (N, variant)."""
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
