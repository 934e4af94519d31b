"""Reference code that only the tests call: the dense eigenspace projector
and ring matrix products on the ambient free module, which the sigma-pair
coordinate map of `cdsymbols.eigen` is checked against; the literal
double loop behind `cd_eigensymbol`; span membership with a witness; the
cusp0 presentation against the full one; and the C^theta + [1:p] check of
criterion 06.  The verdict path never builds an (nsym, nsym) matrix."""

from __future__ import annotations

from math import gcd

import numpy as np

from cdsymbols.characters import DirichletCharacter, parse_theta, unit_group
from cdsymbols.eigen import EigenContext, _validate_scenario, build_eigen_context, cd_span
from cdsymbols.linalg import HowellAccumulator, Submodule
from cdsymbols.rings import CoeffRing, RingError, make_coeff_ring
from cdsymbols.symbols import CUSP0, FULL, SymbolSpace, build_presentation, cd_symbol


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


def membership(vec, sub: Submodule):
    """Decide vec in span(sub); on success return (True, witness) where
    witness maps pivot columns to coefficients recombining exactly to vec."""
    v = np.asarray(vec, dtype=np.int64)
    if v.ndim == 1 and sub.ring.m == 1:
        v = v.reshape(-1, 1)
    if v.shape[0] != sub.ncols:
        raise ValueError(f"vector has dimension {v.shape[0]}, ambient is {sub.ncols}")
    witness: dict[int, np.ndarray] = {}
    rem = sub.reduce(v, witness)
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
    acc, _ = cd_span(ctx, stop_at_length=target.length, unit_bound=cd_bound)
    plain_equal = acc.length == target.length
    if not plain_equal:
        acc.add(ctx.etheta_column(1, p % N))
    return {
        "theta": theta.label(),
        "f": ctx.f,
        "M_divides_f": ctx.f % M == 0,
        "eta_nontrivial_at_p": ctx.f % p == 0,
        "plain_equal": plain_equal,
        "with_one_p_equal": acc.length == target.length,
    }
