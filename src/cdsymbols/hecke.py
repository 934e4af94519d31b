"""Hecke-type quotient relations: trivial U_ell operators and the T2
eigenvalue condition, which the strengthened generation checks impose.

A trivial U_ell operator on a symbol space means the defining identity
U_ell [ell*u : v] = sum_k [u + k N/ell : v] holds with U_ell = 1; imposing
it is the universal quotient with that property, realized by one relation
row per admissible symbol.  The T2 condition is imposed inside the
omega^2-eigenspace, following the identity
e_{omega^2}(<2> T2 [u:v] - 2 [u:v] - [2u:2v]) = 0.  Both kinds of rows
reach an eigenspace as term blocks, symbol indices and integer
coefficients, like the parabolic relations of `symbols._orbit_data`.
`quotient_rows` turns a `QuotientSpec` into those blocks;
`eigen.check_generation` takes the spec and imposes them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characters import DirichletCharacter, teichmuller_character
from .rings import is_prime
# build_presentation is not called here since the verdict path builds its
# space in eigen; perfbench/tracer.py still wraps it under this name.
from .symbols import CUSP0, SymbolSpace, build_presentation  # noqa: F401

__all__ = [
    "QuotientSpec",
    "trivial_Ul_relations",
    "t2_eisenstein_relations",
    "quotient_rows",
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
            parts.append("t2eis" + ("-global" if self.t2_global else "-full" if self.t2_allow_full else ""))
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
                    "use --quotient t2eis-full to explore the full variant"
                )


def trivial_Ul_relations(space: SymbolSpace, ell: int):
    """Rows [ell*u : v] - sum over u' with ell*u' = ell*u of [u' : v], one per
    admissible symbol with first coordinate divisible by ell, in symbol
    order, as the term block (indices, coefficients), both (rows, ell + 1).
    Every lift (u', v) is a symbol: a prime dividing u', v and N would
    divide ell*u' as well."""
    N = space.N
    if not is_prime(ell) or N % ell != 0:
        raise ValueError(f"{ell} must be a prime divisor of {N}")
    w, z = space.u, space.v
    # cusp0 spaces never contain w == 0, so the ell*u != 0 condition holds
    sel = np.flatnonzero(w % ell == 0)
    lifts = space.table[(w[sel] // ell)[:, None] + np.arange(ell) * (N // ell), z[sel, None]]
    coeffs = np.repeat([[1] + [-1] * ell], len(sel), axis=0)
    return np.concatenate([sel[:, None], lifts], axis=1), coeffs


def t2_eisenstein_relations(space: SymbolSpace, allow_full: bool = False):
    """The six-term rows [2u:v] + [2u:u+v] + [u+v:2v] + [u:2v] - 2[u:v]
    - [2u:2v], one per admissible symbol [u:v] in symbol order, as the term
    block (indices, coefficients), both (rows, 6), gathered from
    `space.table`.

    The T2 condition imposes e_{omega^2} of these rows, which makes T2 act
    as 1 + 2 omega^{-2}(2) on the omega^2-eigenspace.  On the
    theta-eigenspace pi(<a> x) = theta(a) pi(x), so pi(e_{omega^2} x) is
    (1/phi(N)) sum_a omega^-2(a) theta(a) pi(x): pi(x) when theta = omega^2
    and 0 otherwise, as p does not divide phi(N).  So the rows enter the
    omega^2-eigenspace as they are, and no other eigenspace at all."""
    N = space.N
    if N % 2 == 0:
        raise ValueError("the T2 condition requires odd N")
    if space.variant != CUSP0 and not allow_full:
        raise ValueError("T2 relations are asserted on cuspidal-at-zero spaces only")
    u, v = space.u, space.v
    # admissibility on cusp0: u, v, u+v nonzero (u, v nonzero already hold)
    keep = ((u + v) % N != 0) | (space.variant != CUSP0)
    u, v = u[keep], v[keep]
    # N is odd, so every term below is a symbol of the space
    w, u2, v2 = (u + v) % N, 2 * u % N, 2 * v % N
    terms = space.table[np.stack([u2, u2, w, u, u, u2], axis=1), np.stack([v, w, v2, v2, v, v2], axis=1)]
    return terms, np.broadcast_to(np.array([1, 1, 1, 1, -2, -1], dtype=np.int64), terms.shape)


def quotient_rows(space: SymbolSpace, p: int, spec: QuotientSpec, theta: DirichletCharacter):
    """The term blocks spec imposes on the theta-eigenspace: one per trivial
    U_ell, and the six-term T2 block.  `t2eis` imposes that block on the
    omega^2-eigenspace only (see t2_eisenstein_relations); `t2eis-global`
    imposes the raw six-term rows on every eigenspace."""
    spec.validate(space.N, space.variant)
    blocks = [trivial_Ul_relations(space, ell) for ell in spec.trivial_u]
    if spec.t2 and not spec.t2_global:
        if space.N % p != 0:
            raise ValueError("omega^2 needs p to divide the level")
        if theta != teichmuller_character(space.N // p, p, space.ring) ** 2:
            return blocks
    if spec.t2:
        blocks.append(t2_eisenstein_relations(space, spec.t2_allow_full))
    return blocks
