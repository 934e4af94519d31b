"""Hecke-type quotient relations: trivial U_ell operators and the T2
eigenvalue condition, plus the strengthened generation checks they enable.

A trivial U_ell operator on a symbol space means the defining identity
U_ell [ell*u : v] = sum_k [u + k N/ell : v] holds with U_ell = 1; imposing
it is the universal quotient with that property, realized by one relation
row per admissible symbol.  The T2 condition is imposed inside the
omega^2-eigenspace, following the identity
e_{omega^2}(<2> T2 [u:v] - 2 [u:v] - [2u:2v]) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characters import teichmuller_character, unit_group
from .eigen import GenerationReport, _generation_core
from .rings import CoeffRing, is_prime
# build_presentation is not called here since the verdict path builds its
# space in eigen; perfbench/tracer.py still wraps it under this name.
from .symbols import CUSP0, SymbolSpace, build_presentation  # noqa: F401

__all__ = [
    "QuotientSpec",
    "trivial_Ul_relations",
    "t2_eisenstein_relations",
    "quotient_rows",
    "check_generation_with_quotient",
]


@dataclass(frozen=True)
class QuotientSpec:
    """Conditions to impose: trivial U_ell for primes ell | N, and/or the
    T2-Eisenstein condition (odd N; cuspidal-at-zero unless explicitly
    allowed on the full space for exploration)."""

    trivial_u: tuple[int, ...] = ()
    t2: bool = False
    t2_allow_full: bool = False
    t2_global: bool = False

    def __post_init__(self):
        object.__setattr__(self, "trivial_u", tuple(sorted(set(self.trivial_u))))

    def label(self) -> str:
        parts = []
        if self.trivial_u:
            parts.append("trivU:" + ",".join(str(x) for x in self.trivial_u))
        if self.t2:
            parts.append("t2eis" + ("-global" if self.t2_global else ""))
        return "+".join(parts) if parts else "none"

    def validate(self, N: int, variant: str):
        for ell in self.trivial_u:
            if not is_prime(ell):
                raise ValueError(f"U_{ell}: {ell} is not prime")
            if N % ell != 0:
                raise ValueError(f"U_{ell}: {ell} does not divide the level {N}")
        if self.t2:
            if N % 2 == 0:
                raise ValueError("the T2 condition requires odd N")
            if variant != CUSP0 and not self.t2_allow_full:
                raise ValueError(
                    "the T2 condition is only asserted on cuspidal-at-zero spaces; "
                    "set t2_allow_full to explore the full variant"
                )


def trivial_Ul_relations(space: SymbolSpace, ell: int) -> np.ndarray:
    """Rows [ell*u : v] - sum over u' with ell*u' = ell*u of [u' : v], one per
    admissible symbol with first coordinate divisible by ell, in symbol
    order, as one array (rows, nsym, m).  Every lift (u', v) is a symbol:
    a prime dividing u', v and N would divide ell*u' as well."""
    N = space.N
    ring = space.ring
    if not is_prime(ell) or N % ell != 0:
        raise ValueError(f"{ell} must be a prime divisor of {N}")
    w, z = np.array(space.symbols, dtype=np.int64).reshape(-1, 2).T
    # cusp0 spaces never contain w == 0, so the ell*u != 0 condition holds
    sel = np.flatnonzero(w % ell == 0)
    lifts = space.table[(w[sel] // ell)[:, None] + np.arange(ell) * (N // ell), z[sel, None]]
    rows = np.zeros((len(sel), space.nsym, ring.m), dtype=np.int64)
    at = np.arange(len(sel))
    np.add.at(rows[..., 0], (at, sel), 1)
    np.add.at(rows[..., 0], (at[:, None], lifts), -1)
    return rows % ring.pk


def t2_eisenstein_relations(space: SymbolSpace, ring: CoeffRing, p: int, allow_full: bool = False):
    """Vectors e_{omega^2}([2u:v] + [2u:u+v] + [u+v:2v] + [u:2v] - 2[u:v]
    - [2u:2v]) for admissible (u, v); imposing them makes T2 act as
    1 + 2 omega^{-2}(2) on the omega^2-eigenspace.  One row per admissible
    diamond-orbit representative, in orbit order: the six terms of every
    row and the permutations of every diamond are gathered from
    `space.table`, and the omega^-2-weighted diamond sum of all rows is one
    `np.add.at`."""
    N = space.N
    if N % 2 == 0:
        raise ValueError("the T2 condition requires odd N")
    if space.variant != CUSP0 and not allow_full:
        raise ValueError("T2 relations are asserted on cuspidal-at-zero spaces only")
    if N % p != 0:
        raise ValueError("omega^2 needs p to divide the level")
    if ring != space.ring:
        raise ValueError("ring mismatch")
    omega2 = teichmuller_character(N // p, p, ring) ** 2
    ug = unit_group(N)
    inv_phi = ring.from_int(ug.phi).inverse()
    coeffs = ring.vscale(omega2.inverse().values, inv_phi.as_array())
    moves = space.diamond_action()  # <units[t]> sends i to moves[t, i]
    u, v = np.array([space.symbols[s] for s in space.orbits()[0]], dtype=np.int64).reshape(-1, 2).T
    if space.variant == CUSP0:
        # admissibility: u, v, u+v nonzero (u, v nonzero already hold)
        admissible = (u + v) % N != 0
        u, v = u[admissible], v[admissible]
    # N is odd, so every term below is a symbol of the space
    w, u2, v2 = (u + v) % N, 2 * u % N, 2 * v % N
    terms = space.table[np.stack([u2, u2, w, u, u, u2], axis=1), np.stack([v, w, v2, v2, v, v2], axis=1)]
    six = np.array([1, 1, 1, 1, -2, -1], dtype=np.int64)
    rows = np.zeros((len(terms), space.nsym, ring.m), dtype=np.int64)
    at = np.arange(len(terms))[None, :, None]
    np.add.at(rows, (at, moves[:, terms]), six[None, None, :, None] * coeffs[:, None, None, :])
    return list(rows % ring.pk)


def t2_global_relations(space: SymbolSpace, ring: CoeffRing) -> list[np.ndarray]:
    """Exploration variant: the raw six-term vectors without projection."""
    N = space.N
    if N % 2 == 0:
        raise ValueError("the T2 condition requires odd N")
    rows = []
    for (u, v) in space.symbols:
        if space.variant == CUSP0 and (u + v) % N == 0:
            continue
        rows.append(_t2_vector(space, u, v) % ring.pk)
    return rows


def _t2_vector(space: SymbolSpace, u: int, v: int) -> np.ndarray:
    N = space.N
    vec = space.ring.vzeros(space.nsym)
    w = (u + v) % N
    vec[space.idx(2 * u, v), 0] += 1
    vec[space.idx(2 * u, w), 0] += 1
    vec[space.idx(w, 2 * v), 0] += 1
    vec[space.idx(u, 2 * v), 0] += 1
    vec[space.idx(u, v), 0] -= 2
    vec[space.idx(2 * u, 2 * v), 0] -= 1
    return vec


def quotient_rows(space: SymbolSpace, ring: CoeffRing, p: int, spec: QuotientSpec):
    spec.validate(space.N, space.variant)
    rows: list[np.ndarray] = []
    for ell in spec.trivial_u:
        rows.extend(trivial_Ul_relations(space, ell))
    if spec.t2:
        if spec.t2_global:
            rows.extend(t2_global_relations(space, ring))
        else:
            rows.extend(t2_eisenstein_relations(space, ring, p, allow_full=spec.t2_allow_full))
    return rows


def check_generation_with_quotient(
    p: int,
    k: int,
    M: int,
    level: str,
    variant: str,
    theta,
    spec: QuotientSpec,
    cd_bound: int | None = None,
) -> GenerationReport:
    """Impose the requested Hecke-type relations, recompute the spans in the
    quotient, and report the applicable strengthened case."""
    return _generation_core(
        p,
        k,
        M,
        level,
        variant,
        theta,
        quotient=lambda space: quotient_rows(space, space.ring, p, spec),
        quotient_label=spec.label(),
        trivial_u=spec.trivial_u,
        t2=spec.t2,
        cd_bound=cd_bound,
    )
