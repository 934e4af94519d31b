"""Exact arithmetic in finite chain rings Z/p^k and Galois rings GR(p^k, m).

A Galois ring GR(p^k, m) is represented in a power basis Z/p^k[x]/(f) for a
deterministically chosen monic lift f of an irreducible degree-m factor of
the e-th cyclotomic polynomial over the prime field, so the same (p, k, e)
always produces the same ring and the same roots of unity.  Besides scalar
arithmetic (RingElem), the ring object carries vectorized helpers used by
the row-module code: rows are numpy int64 arrays of shape (ncols, m) holding
coefficient vectors reduced modulo p^k.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

__all__ = [
    "RingError",
    "CoeffRing",
    "RingElem",
    "make_coeff_ring",
    "chain_ring",
    "root_of_unity",
    "root_step",
]


class RingError(ValueError):
    """A ring construction or arithmetic precondition failed."""


# The row arithmetic runs in int64 on residues in [0, p^k).  Its widest
# intermediate is a sum of at most 2m products of two residues: a vscale
# entry sums m of them (the matrix product with smatrix(s)), and a (c,d)
# generator adds two scaled rows to two more before reducing.  Requiring
# 2 m p^(2k) <= 2^63 keeps every such sum exact; sums of residues alone
# (at most one per symbol) stay far below it.
#
# A ring product of width w (CoeffRing.vcombine: w scalars times w rows)
# sums, per entry and coefficient pair, w products of two residues, each at
# most (p^k - 1)^2.  It is summed in chunks of at most
# floor((2^63 - 1) / (p^k - 1)^2) of the w terms, each chunk reduced mod p^k
# before the next is added, so every partial sum is exact; under the bound
# below that chunk is at least 2m >= 2.  Folding the m^2 coefficient pairs
# into the power basis then sums 2m - 1 products of two residues, again
# inside the bound.


def check_int64_precision(p: int, k: int, m: int) -> None:
    """Reject rings whose row arithmetic could wrap in int64."""
    if 2 * m * p ** (2 * k) > 2**63:
        raise RingError(
            f"p^k = {p}^{k} with residue degree m = {m} is too large for exact int64 "
            f"row arithmetic: need 2*m*p^(2k) <= 2^63"
        )


# ---------------------------------------------------------------------------
# small integer number theory


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_factorization(n: int) -> dict[int, int]:
    """Factor n (> 0) into {prime: exponent}."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def multiplicative_order(a: int, n: int) -> int:
    """Order of a in (Z/nZ)^x; a must be a unit."""
    if n == 1:
        return 1
    a %= n
    if gcd(a, n) != 1:
        raise RingError(f"{a} is not a unit modulo {n}")
    x, t = a, 1
    while x != 1:
        x = x * a % n
        t += 1
    return t


# ---------------------------------------------------------------------------
# dense univariate polynomials (ascending coefficient tuples)


def _ptrim(f: list[int]) -> tuple[int, ...]:
    while f and f[-1] == 0:
        f.pop()
    return tuple(f)


def _pmul(f, g, mod):
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g):
                out[i + j] = (out[i + j] + fi * gj) % mod
    return _ptrim(out)


def _pdivmod(f, g, mod):
    """Divide with remainder modulo `mod`; the leading coefficient of g must
    be invertible (always true here: g is monic or mod is prime)."""
    f = list(f)
    dg = len(g) - 1
    if dg < 0:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(g[-1], -1, mod)
    q = [0] * max(len(f) - dg, 0)
    while len(f) - 1 >= dg and any(f):
        if f[-1] == 0:
            f.pop()
            continue
        c = f[-1] * inv_lead % mod
        s = len(f) - 1 - dg
        q[s] = c
        for i, gi in enumerate(g):
            f[s + i] = (f[s + i] - c * gi) % mod
        f.pop()
    return _ptrim(q), _ptrim(f)


def _pextgcd(f, g, p):
    """Extended gcd over F_p[x]: returns (u, v, d) with u*f + v*g = d, d monic."""
    r0, r1 = _ptrim(list(f)), _ptrim(list(g))
    u0, u1 = (1,), ()
    v0, v1 = (), (1,)
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        u0, u1 = u1, _psub(u0, _pmul(q, u1, p), p)
        v0, v1 = v1, _psub(v0, _pmul(q, v1, p), p)
    if r0:
        c = pow(r0[-1], -1, p)
        r0 = _ptrim([x * c % p for x in r0])
        u0 = _ptrim([x * c % p for x in u0])
        v0 = _ptrim([x * c % p for x in v0])
    return u0, v0, r0


def _psub(f, g, mod):
    n = max(len(f), len(g))
    out = [0] * n
    for i in range(n):
        a = f[i] if i < len(f) else 0
        b = g[i] if i < len(g) else 0
        out[i] = (a - b) % mod
    return _ptrim(out)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Coefficients of the e-th cyclotomic polynomial over Z (ascending)."""
    if e == 1:
        return (-1, 1)
    f = [-1] + [0] * (e - 1) + [1]
    for d in range(1, e):
        if e % d == 0:
            f = list(_int_exact_div(tuple(f), cyclotomic_polynomial(d)))
    return _ptrim(f)


def _int_exact_div(f, g):
    """Exact division of integer polynomials, g monic (up to sign)."""
    f = list(f)
    q = [0] * (len(f) - len(g) + 1)
    sign = g[-1]
    while len(f) >= len(g) and any(f):
        if f[-1] == 0:
            f.pop()
            continue
        c = f[-1] // sign
        s = len(f) - len(g)
        q[s] = c
        for i, gi in enumerate(g):
            f[s + i] -= c * gi
        f.pop()
    if any(f):
        raise ArithmeticError("division was not exact")
    return tuple(q)


def _choose_modulus(p: int, m: int, e: int) -> tuple[int, ...]:
    """Lexicographically smallest monic degree-m divisor of Phi_e over F_p."""
    phi = tuple(c % p for c in cyclotomic_polynomial(e))
    for tail in itertools.product(range(p), repeat=m):
        cand = tail + (1,)
        _, r = _pdivmod(phi, cand, p)
        if not r:
            return cand
    raise RingError(f"no degree-{m} factor of the {e}-th cyclotomic polynomial mod {p}")


def _hensel_lift_factor(p: int, k: int, e: int, f0: tuple[int, ...]):
    """Lift the factor f0 of x^e - 1 over F_p to a monic factor modulo p^k."""
    big = [(-1 if i == 0 else 0) + (1 if i == e else 0) for i in range(e + 1)]
    g0, r = _pdivmod(tuple(c % p for c in big), f0, p)
    assert not r
    s, t, d = _pextgcd(f0, g0, p)
    assert d == (1,), "x^e - 1 must be squarefree mod p"
    f = [c % p**k for c in f0]
    g = [c % p**k for c in g0]
    pk = p**k
    for i in range(1, k):
        pi = p**i
        prod = [0] * (len(f) + len(g) - 1)
        for a, fa in enumerate(f):
            if fa:
                for b, gb in enumerate(g):
                    prod[a + b] = (prod[a + b] + fa * gb) % pk
        err = [((big[j] if j < len(big) else 0) - (prod[j] if j < len(prod) else 0)) % (pi * p) for j in range(e + 1)]
        E = _ptrim([(c // pi) % p for c in err])
        if not E:
            continue
        a_corr = _pdivmod(_pmul(t, E, p), f0, p)[1]
        b_corr, rem = _pdivmod(_psub(E, _pmul(a_corr, g0, p), p), f0, p)
        assert not rem
        for j, c in enumerate(a_corr):
            f[j] = (f[j] + pi * c) % pk
        for j, c in enumerate(b_corr):
            g[j] = (g[j] + pi * c) % pk
    return tuple(f)


# ---------------------------------------------------------------------------
# elements


@dataclass(frozen=True)
class RingElem:
    """An element of a CoeffRing, stored as coefficients in the power basis."""

    ring: "CoeffRing"
    coeffs: tuple[int, ...]

    def _coerce(self, other):
        if isinstance(other, RingElem):
            if other.ring != self.ring:
                raise RingError("elements of different rings")
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RingElem(self.ring, self.ring._add(self.coeffs, o.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RingElem(self.ring, self.ring._sub(self.coeffs, o.coeffs))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return RingElem(self.ring, self.ring._neg(self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RingElem(self.ring, self.ring._mul(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self) -> "RingElem":
        return RingElem(self.ring, self.ring._inv(self.coeffs))

    def is_unit(self) -> bool:
        return any(c % self.ring.p for c in self.coeffs)

    def as_array(self) -> np.ndarray:
        return np.array(self.coeffs, dtype=np.int64)

    def reduce_to(self, ring: "CoeffRing") -> "RingElem":
        """Image under reduction to the same ring at lower precision."""
        if (ring.p, ring.m) != (self.ring.p, self.ring.m) or ring.k > self.ring.k:
            raise RingError("not a precision reduction of this ring")
        return RingElem(ring, tuple(c % ring.pk for c in self.coeffs))

    def __repr__(self):
        if self.ring.m == 1:
            return f"{self.coeffs[0]} (mod {self.ring.pk})"
        return f"{list(self.coeffs)} (mod {self.ring.pk}, deg {self.ring.m})"


class CoeffRing:
    """Z/p^k (m == 1) or GR(p^k, m) in the power basis of modulus_poly.

    Immutable after construction; all operations are pure.  Use
    make_coeff_ring to obtain interned, deterministic instances.
    """

    def __init__(self, p: int, k: int, m: int, modulus_poly, root_order: int):
        self.p = p
        self.k = k
        self.m = m
        self.pk = p**k
        self.q = p**m
        self.root_order = root_order
        self.modulus_poly = modulus_poly  # monic tuple of length m+1, or None
        self._key = (p, k, m, modulus_poly)
        # x^t mod modulus for t = 0 .. 2m-2, as an int64 array (2m-1, m)
        pows = np.zeros((2 * m - 1, m), dtype=np.int64)
        for t in range(min(m, 2 * m - 1)):
            pows[t, t] = 1
        if m > 1:
            red = np.array([(-modulus_poly[i]) % self.pk for i in range(m)], dtype=np.int64)
            for t in range(m, 2 * m - 1):
                prev = pows[t - 1]
                shifted = np.zeros(m, dtype=np.int64)
                shifted[1:] = prev[:-1]
                carry = prev[m - 1]
                pows[t] = (shifted + carry * red) % self.pk
        self._pows = pows
        # multiplication tensor T[i, j] = coefficient vector of x^(i+j),
        # flattened to (m, m*m) so that s @ T is the matrix of s
        idx = np.add.outer(np.arange(m), np.arange(m))
        self._mult_tensor = pows[idx].reshape(m, m * m)
        # terms per chunk of a vcombine sum (see check_int64_precision)
        self.chunk = (2**63 - 1) // (self.pk - 1) ** 2
        self._teich_gen_coeffs: tuple[int, ...] | None = None

    # -- identity / comparison ------------------------------------------------
    def __eq__(self, other):
        return isinstance(other, CoeffRing) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        if self.m == 1:
            return f"Z/{self.pk}"
        return f"GR({self.p}^{self.k}, {self.m})"

    # -- element constructors -------------------------------------------------
    def el(self, value) -> RingElem:
        if isinstance(value, RingElem):
            if value.ring != self:
                raise RingError("element of a different ring")
            return value
        if isinstance(value, (int, np.integer)):
            return self.from_int(int(value))
        coeffs = tuple(int(c) % self.pk for c in value)
        if len(coeffs) != self.m:
            raise RingError(f"expected {self.m} coefficients")
        return RingElem(self, coeffs)

    def from_int(self, n: int) -> RingElem:
        return RingElem(self, (n % self.pk,) + (0,) * (self.m - 1))

    def zero(self) -> RingElem:
        return self.from_int(0)

    def one(self) -> RingElem:
        return self.from_int(1)

    def generator(self) -> RingElem:
        """The power-basis generator x (only for m > 1)."""
        if self.m == 1:
            raise RingError("prime ring has no power-basis generator")
        return RingElem(self, (0, 1) + (0,) * (self.m - 2))

    # -- scalar coefficient arithmetic ----------------------------------------
    def _add(self, a, b):
        return tuple((x + y) % self.pk for x, y in zip(a, b))

    def _sub(self, a, b):
        return tuple((x - y) % self.pk for x, y in zip(a, b))

    def _neg(self, a):
        return tuple((-x) % self.pk for x in a)

    def _mul(self, a, b):
        if self.m == 1:
            return (a[0] * b[0] % self.pk,)
        out = [0] * self.m
        pows = self._pows
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if not bj:
                    continue
                c = ai * bj % self.pk
                row = pows[i + j]
                for t in range(self.m):
                    out[t] += c * int(row[t])
        return tuple(x % self.pk for x in out)

    def _inv(self, a):
        if self.m == 1:
            if a[0] % self.p == 0:
                raise RingError("not a unit")
            return (pow(a[0], -1, self.pk),)
        f0 = tuple(c % self.p for c in self.modulus_poly)
        abar = _ptrim([c % self.p for c in a])
        if not abar:
            raise RingError("not a unit")
        u, _, d = _pextgcd(abar, f0, self.p)
        if d != (1,):
            raise RingError("not a unit")
        z = tuple(u[i] if i < len(u) else 0 for i in range(self.m))
        # Hensel: z <- z(2 - a z) doubles the precision each step
        prec = 1
        while prec < self.k:
            az = self._mul(a, z)
            two_minus = tuple((2 if i == 0 else 0) - c for i, c in enumerate(az))
            z = self._mul(z, tuple(c % self.pk for c in two_minus))
            prec *= 2
        assert self._mul(a, z) == (1,) + (0,) * (self.m - 1)
        return z

    # -- residue field helpers (mod p) ----------------------------------------
    def _fmul(self, a, b):
        f0 = tuple(c % self.p for c in self.modulus_poly)
        return _pdivmod(_pmul(a, b, self.p), f0, self.p)[1]

    def _fpow(self, a, n):
        out = (1,)
        base = _ptrim(list(a))
        while n:
            if n & 1:
                out = self._fmul(out, base)
            base = self._fmul(base, base)
            n >>= 1
        return out

    def residue_order(self, a) -> int:
        """Multiplicative order of a nonzero element of the residue field."""
        if self.m == 1:
            return multiplicative_order(a[0] % self.p, self.p)
        order = self.q - 1
        for ell in prime_factorization(self.q - 1):
            while order % ell == 0 and self._fpow(a, order // ell) == (1,):
                order //= ell
        return order

    def teich_generator(self) -> RingElem:
        """Teichmueller lift of the canonical residue-field generator.

        Canonical: the first element, in base-p counting order of coefficient
        vectors, whose residue has multiplicative order p^m - 1.  For m > 1
        the constants c < p are skipped: their order is at most p - 1.
        """
        if self._teich_gen_coeffs is None:
            for c in range(self.p if self.m > 1 else 2, self.q):  # F_q^x is cyclic, so the scan breaks
                digs = tuple(c // self.p**i % self.p for i in range(self.m))
                if self.residue_order(digs) == self.q - 1:
                    break
            x = RingElem(self, digs)
            # x^(q^t) converges to the Teichmueller representative
            t = 0
            while self.m * t < self.k - 1:
                x = x**self.q
                t += 1
            assert (x ** (self.q - 1)).coeffs == self.one().coeffs
            self._teich_gen_coeffs = x.coeffs
        return RingElem(self, self._teich_gen_coeffs)

    def reduce_to(self, k2: int) -> "CoeffRing":
        """The same ring at a lower precision (identical modulus lift)."""
        if not 1 <= k2 <= self.k:
            raise RingError("invalid target precision")
        return make_coeff_ring(self.p, k2, self.root_order)

    # -- vectorized row helpers -----------------------------------------------
    # Rows are int64 arrays of shape (ncols, m), entries reduced mod p^k.

    def vzeros(self, ncols: int) -> np.ndarray:
        return np.zeros((ncols, self.m), dtype=np.int64)

    def smatrix(self, s) -> np.ndarray:
        """The (m, m) matrix of multiplication by the scalar s (coefficient
        vector): `entry @ smatrix(s)` is the coefficient vector of s * entry.
        A stack of scalars (..., m) gives a stack of matrices (..., m, m)."""
        s = np.asarray(s, dtype=np.int64)
        return (s @ self._mult_tensor).reshape(*s.shape[:-1], self.m, self.m) % self.pk

    def vscale(self, row: np.ndarray, s) -> np.ndarray:
        """Multiply every entry of the row by the scalar s (coefficient vector)."""
        s = np.asarray(s, dtype=np.int64)
        if self.m == 1:
            return (row * int(s[0])) % self.pk
        return (row @ self.smatrix(s)) % self.pk

    def vscale_stack(self, row: np.ndarray, scalars: np.ndarray) -> np.ndarray:
        """The stack (B, ncols, m) of the row multiplied by each scalar of
        `scalars` (B, m).  For m > 1 the row meets all B multiplication
        matrices in one (ncols, m) x (m, B m) product, a sum of m products
        of two residues per entry."""
        scalars = np.asarray(scalars, dtype=np.int64)
        if self.m == 1:
            out = row[None] * scalars[:, None, :]
        else:
            m = self.m
            # entry [s, u, c] of the tensor is coefficient c of x^(s+u), so
            # scalars @ tensor holds the B multiplication matrices as [u, b, c]
            mats = (scalars @ self._mult_tensor.reshape(m, m, m)) % self.pk
            out = (row @ mats.reshape(m, -1)).reshape(len(row), len(scalars), m).transpose(1, 0, 2)
        out %= self.pk
        return out

    def vcombine(self, coeffs: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The stack (B, ncols, m) of combinations sum_t coeffs[b, t] rows[t]
        of the rows (w, ncols, m) with the scalars `coeffs` (B, w, m).

        One integer matrix product Z[b, s, j, u] = sum_t coeffs[b, t, s]
        rows[t, j, u], taken in chunks of `self.chunk` of the w terms; for
        m > 1, Z is then folded into the power basis: the products
        x^(s+u) are gathered by degree (at most m residues each) and meet the
        2m - 1 powers of x (see check_int64_precision)."""
        coeffs = np.asarray(coeffs, dtype=np.int64)
        pk, m, chunk = self.pk, self.m, self.chunk
        B, w = coeffs.shape[:2]
        ncols = rows.shape[1]
        left = coeffs.transpose(0, 2, 1).reshape(B * m, w)
        right = rows.reshape(w, ncols * m)
        z = left[:, :chunk] @ right[:chunk]
        z %= pk
        for t in range(chunk, w, chunk):
            part = left[:, t : t + chunk] @ right[t : t + chunk]
            part %= pk
            z += part
            z %= pk
        z = z.reshape(B, m, ncols, m)
        if m == 1:
            return z[:, 0]
        by_degree = np.zeros((2 * m - 1, B, ncols), dtype=np.int64)
        for s in range(m):
            for u in range(m):
                by_degree[s + u] += z[:, s, :, u]
        by_degree %= pk
        out = np.zeros((B, ncols, m), dtype=np.int64)
        for d, power in enumerate(self._pows):
            out += by_degree[d, ..., None] * power
        return out % pk


@lru_cache(maxsize=None)
def make_coeff_ring(p: int, k: int, e: int = 1) -> CoeffRing:
    """Smallest unramified finite-precision ring over Z/p^k containing mu_e.

    The residue degree m is the multiplicative order of p modulo e, and the
    modulus polynomial is the Hensel lift (inside x^e - 1) of the
    lexicographically smallest irreducible degree-m factor of the e-th
    cyclotomic polynomial over F_p.  Rings beyond the int64 bound
    2 m p^(2k) <= 2^63 are rejected with a RingError.
    """
    if not is_prime(p) or p == 2:
        raise RingError(f"p must be an odd prime, got {p}")
    if k < 1:
        raise RingError("precision k must be at least 1")
    if e < 1:
        raise RingError("root order e must be positive")
    if e % p == 0:
        raise RingError(f"root order {e} is divisible by p = {p}")
    m = multiplicative_order(p, e) if e > 1 else 1
    check_int64_precision(p, k, m)
    if m == 1:
        return CoeffRing(p, k, 1, None, e)
    f0 = _choose_modulus(p, m, e)
    f = _hensel_lift_factor(p, k, e, f0) if k > 1 else f0
    return CoeffRing(p, k, m, tuple(f), e)


@lru_cache(maxsize=None)
def chain_ring(p: int, k: int) -> CoeffRing:
    """Plain Z/p^k for any prime p, including 2.

    The coefficient rings of the verification scenarios always come from
    make_coeff_ring (odd p only); this constructor exists for the generic
    row-module layer, whose algorithms are tested over Z/4 and Z/8 too.
    """
    if not is_prime(p):
        raise RingError(f"{p} is not prime")
    if k < 1:
        raise RingError("precision k must be at least 1")
    check_int64_precision(p, k, 1)
    return CoeffRing(p, k, 1, None, 1)


def root_step(ring: CoeffRing, n: int) -> int:
    """(p^m - 1)/n, the power of the Teichmueller generator that is the
    canonical primitive n-th root of unity; requires n | p^m - 1."""
    if n < 1:
        raise RingError("n must be positive")
    if (ring.q - 1) % n != 0:
        raise RingError(f"{n} does not divide p^m - 1 = {ring.q - 1}")
    return (ring.q - 1) // n


def root_of_unity(ring: CoeffRing, n: int) -> RingElem:
    """The canonical primitive n-th root of unity; requires n | p^m - 1."""
    return ring.teich_generator() ** root_step(ring, n)
