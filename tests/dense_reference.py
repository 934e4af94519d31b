"""The dense eigenspace projector and ring matrix products on the ambient
free module, kept as the reference that the sigma-pair coordinate map of
`cdsymbols.eigen` is checked against.  The verdict path never builds an
(nsym, nsym) matrix."""

from __future__ import annotations

import numpy as np

from cdsymbols.characters import DirichletCharacter, unit_group
from cdsymbols.rings import CoeffRing, RingError
from cdsymbols.symbols import SymbolSpace


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
        P[space.diamond_perm(a), cols] = (P[space.diamond_perm(a), cols] + coeff) % ring.pk
    return P


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
