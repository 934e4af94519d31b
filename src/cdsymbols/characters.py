"""Unit groups of Z/NZ and Dirichlet characters valued in a CoeffRing.

A character is stored as integer exponents on the Teichmueller generator g
of its ring, which generates mu_{q-1} (q = p^m): chi(g_i) = g^s_i on a
canonical generator list g_i from the CRT decomposition of (Z/NZ)^x (the
representation of Stein, Modular Forms: A Computational Approach, ch. 4).
Products, powers, parity, conductors, labels and the maps between rings are
integer operations on the s_i; only values and evaluation make ring
elements.  The label, the exponent vector on the roots of unity of the
generator orders, is stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import product
from math import gcd

import numpy as np

from .rings import (
    CoeffRing,
    RingElem,
    RingError,
    is_prime,
    multiplicative_order,
    prime_factorization,
    root_of_unity,
    root_step,
)

__all__ = [
    "UnitGroupStructure",
    "DirichletCharacter",
    "unit_group",
    "enumerate_characters",
    "conductor",
    "teichmuller_character",
    "restrict_to_part",
    "parse_theta",
]


def _crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    g, x = m1, pow(m1, -1, m2)
    return (r1 + m1 * ((r2 - r1) * x % m2)) % (m1 * m2)


def _smallest_primitive_root(q: int, phi_q: int) -> int:
    for g in range(2, q):
        if gcd(g, q) == 1 and multiplicative_order(g, q) == phi_q:
            return g
    raise ValueError(f"no primitive root modulo {q}")


@dataclass(frozen=True)
class UnitGroupStructure:
    """CRT generators of (Z/NZ)^x, its units in increasing order and a full
    discrete-log table."""

    modulus: int
    generators: tuple[int, ...]
    orders: tuple[int, ...]
    units: tuple[int, ...] = field(compare=False, repr=False)
    dlog: dict[int, tuple[int, ...]] = field(compare=False, repr=False)

    @property
    def phi(self) -> int:
        return len(self.units)

    def exponents(self, a: int) -> tuple[int, ...]:
        a %= self.modulus
        try:
            return self.dlog[a]
        except KeyError:
            raise ValueError(f"{a} is not a unit modulo {self.modulus}") from None


@lru_cache(maxsize=None)
def unit_group(N: int) -> UnitGroupStructure:
    """Generators of (Z/NZ)^x from the CRT decomposition.

    Components are ordered by ascending prime; the 2-power part contributes
    the pair (-1, 5) when 8 | N.  Each generator is lifted to a unit mod N
    congruent to 1 modulo the complementary factor.
    """
    if N < 2:
        raise ValueError("modulus must be at least 2")
    gens: list[int] = []
    orders: list[int] = []
    for q_prime, e in sorted(prime_factorization(N).items()):
        q = q_prime**e
        local: list[tuple[int, int]] = []
        if q_prime == 2:
            if e == 2:
                local = [(3, 2)]
            elif e >= 3:
                local = [(q - 1, 2), (5, 2 ** (e - 2))]
        else:
            phi_q = q // q_prime * (q_prime - 1)
            local = [(_smallest_primitive_root(q, phi_q), phi_q)]
        for g, order in local:
            gens.append(_crt_pair(g, q, 1, N // q))
            orders.append(order)
    dlog: dict[int, tuple[int, ...]] = {}

    def fill(i: int, value: int, expo: tuple[int, ...]):
        if i == len(gens):
            dlog[value] = expo
            return
        cur = value
        for t in range(orders[i]):
            fill(i + 1, cur, expo + (t,))
            cur = cur * gens[i] % N

    fill(0, 1 % N, ())
    return UnitGroupStructure(N, tuple(gens), tuple(orders), tuple(sorted(dlog)), dlog)


@dataclass(frozen=True)
class DirichletCharacter:
    """Homomorphism (Z/NZ)^x -> mu_{q-1} in ring^x, q = p^m, stored by the
    exponents expo[i] mod q - 1 with chi(g_i) = g^expo[i], where g_i are the
    unit-group generators and g = ring.teich_generator()."""

    N: int
    ring: CoeffRing
    expo: tuple[int, ...]

    def __post_init__(self):
        ug, n = unit_group(self.N), self.ring.q - 1
        if len(self.expo) != len(ug.generators) or any(s * o % n for s, o in zip(self.expo, ug.orders)):
            raise ValueError("one exponent per unit-group generator, killed by its order, required")
        object.__setattr__(self, "expo", tuple(s % n for s in self.expo))

    @property
    def group(self) -> UnitGroupStructure:
        return unit_group(self.N)

    @cached_property
    def order(self) -> int:
        return (self.ring.q - 1) // gcd(self.ring.q - 1, *self.expo)

    def _log(self, a: int) -> int:
        """The exponent e < q - 1 with chi(a) = g^e."""
        return sum(s * t for s, t in zip(self.expo, self.group.exponents(a))) % (self.ring.q - 1)

    @cached_property
    def _index(self) -> np.ndarray:
        """j with chi(a) = zeta^j, zeta = g^((q-1)/order), for every unit a
        in `group.units` order.  Each expo[i] is a multiple of (q-1)/order,
        so every factor of the product is below phi(N) and none can wrap."""
        ug, d = self.group, (self.ring.q - 1) // self.order
        table = np.array([ug.dlog[a] for a in ug.units], dtype=np.int64)
        return table @ np.array([s // d for s in self.expo], dtype=np.int64) % self.order

    @property
    def descends(self) -> bool:
        """Whether chi takes values in Z/p^k: its roots of unity there are
        mu_{p-1}, generated by g^((q-1)/(p-1))."""
        return not any(s % root_step(self.ring, self.ring.p - 1) for s in self.expo)

    @cached_property
    def values(self) -> np.ndarray:
        """chi(a) for every unit a in `group.units` order, as a read-only
        (phi(N), m) array: one lookup into the powers of zeta."""
        out = _powers(self.ring, self.order)[self._index]
        out.setflags(write=False)
        return out

    def __call__(self, a: int) -> RingElem:
        return self.ring.el(_powers(self.ring, self.order)[self._log(a) * self.order // (self.ring.q - 1)])

    def __mul__(self, other: "DirichletCharacter") -> "DirichletCharacter":
        if (self.N, self.ring) != (other.N, other.ring):
            raise ValueError("characters of different moduli or rings")
        return DirichletCharacter(self.N, self.ring, tuple(s + t for s, t in zip(self.expo, other.expo)))

    def inverse(self) -> "DirichletCharacter":
        return self**-1

    def __pow__(self, n: int) -> "DirichletCharacter":
        return DirichletCharacter(self.N, self.ring, tuple(s * n for s in self.expo))

    def is_trivial(self) -> bool:
        return not any(self.expo)

    def is_even(self) -> bool:
        return self._log(-1) == 0

    def conductor(self) -> int:
        return conductor(self)

    def label(self) -> str:
        """The exponents t_i = expo[i] o_i / (q-1), o_i the order of g_i, with
        chi(g_i) = root_of_unity(ring, o_i)^t_i: a name stable across runs."""
        steps = (root_step(self.ring, o) for o in self.group.orders)
        return "[" + ",".join(str(s // step) for s, step in zip(self.expo, steps)) + "]"

    def primitive_eval(self, a: int) -> RingElem:
        """Evaluate the underlying primitive character at a (gcd(a, f) = 1)."""
        f = self.conductor()
        if f == 1:
            return self.ring.one()
        if gcd(a, f) != 1:
            raise ValueError(f"{a} is not a unit modulo the conductor {f}")
        b, mod = 0, 1
        for q_prime, e in sorted(prime_factorization(self.N).items()):
            q = q_prime**e
            r = a % q if f % q_prime == 0 else 1
            b, mod = _crt_pair(b, mod, r, q), mod * q
        return self(b)

    def over(self, ring: CoeffRing) -> "DirichletCharacter":
        """The same character valued in Z/p^k or in a Galois ring over it.
        Z/p^k is the prime subring of every GR(p^k, m), and its roots of
        unity are the Teichmueller lifts mu_{p-1}, generated by u = g^step,
        step = (q-1)/(p-1).  So g^s lies in Z/p^k iff step | s, and then it
        is u^(s/step), which is u'^(s/step * dlog_r' r) on the other side
        (r = u mod p, r' = u' mod p)."""
        if ring == self.ring:
            return self
        if (ring.p, ring.k) != (self.ring.p, self.ring.k) or 1 not in (ring.m, self.ring.m):
            raise RingError(f"no coefficient map from {self.ring} to {ring}")
        if not self.descends:
            raise RingError(f"the character does not take values in {ring}")
        src, dst = (root_step(r, r.p - 1) for r in (self.ring, ring))
        scale = _dlog_mod_p(ring.p, _prime_root(ring), _prime_root(self.ring)) * dst
        return DirichletCharacter(self.N, ring, tuple(s // src * scale for s in self.expo))

    def extend(self, N2: int) -> "DirichletCharacter":
        """View the character modulo a multiple N2 of N."""
        if N2 % self.N != 0:
            raise ValueError("target modulus must be a multiple of N")
        return DirichletCharacter(N2, self.ring, tuple(self._log(g) for g in unit_group(N2).generators))


@lru_cache(maxsize=None)
def _powers(ring: CoeffRing, n: int) -> np.ndarray:
    """zeta^j for j < n, zeta = root_of_unity(ring, n), as a read-only (n, m) array."""
    zeta, powers = root_of_unity(ring, n), [ring.one()]
    for _ in range(n - 1):
        powers.append(powers[-1] * zeta)
    out = np.array([x.coeffs for x in powers], dtype=np.int64)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _prime_root(ring: CoeffRing) -> int:
    """u mod p for u = root_of_unity(ring, p - 1): a primitive root mod p.
    u lies in the prime subring Z/p^k, so it is its constant coefficient."""
    return root_of_unity(ring, ring.p - 1).coeffs[0] % ring.p


def _dlog_mod_p(p: int, r: int, a: int) -> int:
    """The discrete log of a to the primitive root r in (Z/pZ)^x."""
    e = unit_group(p).exponents
    return e(a)[0] * pow(e(r)[0], -1, p - 1) % (p - 1)


def enumerate_characters(N: int, ring: CoeffRing) -> list[DirichletCharacter]:
    """All phi(N) characters (Z/NZ)^x -> ring^x, ordered by label."""
    ug = unit_group(N)
    if any((ring.q - 1) % o != 0 for o in ug.orders):
        raise RingError(f"ring has no mu_{ug.phi}: cannot represent all characters mod {N}")
    steps = (range(0, ring.q - 1, (ring.q - 1) // o) for o in ug.orders)
    return [DirichletCharacter(N, ring, expo) for expo in product(*steps)]


def conductor(chi: DirichletCharacter) -> int:
    """Minimal f | N such that chi factors through (Z/fZ)^x, read off the
    exponents per prime power l^e of N (n = q - 1): for l odd the least l^c
    with s phi(l^c) = 0 mod n (phi(1) = 1), as g^phi(l^c) generates the
    kernel mod l^c; for 2^e, e >= 3, on (-1, 5), the least 2^c, c >= 3, with
    s_5 2^(c-2) = 0 when s_5 != 0, else 4 or 1 as s_-1 is; 2^2 gives 4 or 1."""
    n = chi.ring.q - 1
    expo = iter(chi.expo)
    f = 1
    for ell, e in sorted(prime_factorization(chi.N).items()):
        if ell == 2 and e >= 3:
            s_minus, s = next(expo), next(expo)
            if s:
                f *= 2 ** next(c for c in range(3, e + 1) if s * 2 ** (c - 2) % n == 0)
            elif s_minus:
                f *= 4
        elif ell == 2:
            f *= 4 if e == 2 and next(expo) else 1
        else:
            s = next(expo)
            f *= ell ** next(c for c in range(e + 1) if s * (ell**c - ell ** (c - 1) if c else 1) % n == 0)
    return f


def teichmuller_character(M: int, p: int, ring: CoeffRing) -> DirichletCharacter:
    """The Teichmueller character omega modulo Mp, factoring through
    (Z/pZ)^x: omega(a) = u^(dlog_r a) with u = g^((q-1)/(p-1)), r = u mod p."""
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    if M % p == 0:
        raise ValueError("M must be prime to p")
    if ring.p != p:
        raise RingError("ring has the wrong residue characteristic")
    step, r, gens = root_step(ring, p - 1), _prime_root(ring), unit_group(M * p).generators
    return DirichletCharacter(M * p, ring, tuple(step * _dlog_mod_p(p, r, g) for g in gens))


def restrict_to_part(chi: DirichletCharacter, D: int) -> DirichletCharacter:
    """CRT component of chi at a unitary divisor D of N."""
    N = chi.N
    if D < 1 or N % D != 0 or gcd(D, N // D) != 1:
        raise ValueError(f"{D} is not a unitary divisor of {N}")
    if D == 1:
        raise ValueError("restriction to the trivial modulus is not a character")
    lifts = (_crt_pair(g, D, 1, N // D) for g in unit_group(D).generators)
    return DirichletCharacter(D, chi.ring, tuple(chi._log(a) for a in lifts))


# ---------------------------------------------------------------------------
# CLI character grammar


def _trivial(N: int, ring: CoeffRing) -> DirichletCharacter:
    return DirichletCharacter(N, ring, (0,) * len(unit_group(N).generators))


def _from_exponents(N: int, ring: CoeffRing, expo: list[int]) -> DirichletCharacter:
    ug = unit_group(N)
    if len(expo) != len(ug.generators):
        raise ValueError(
            f"theta vector has {len(expo)} entries but (Z/{N})^x has {len(ug.generators)} generators"
        )
    return DirichletCharacter(N, ring, tuple(t * root_step(ring, o) for o, t in zip(ug.orders, expo)))


def _quadratic_of_conductor(N: int, ring: CoeffRing, D: int) -> DirichletCharacter:
    """The one nontrivial character of conductor D with chi^2 trivial: its
    exponents are 0 or (q-1)/2, the latter only on a generator of even
    order (2^g - 1 candidates for g generators)."""
    half = (ring.q - 1) // 2
    choices = [(0, half) if o % 2 == 0 else (0,) for o in unit_group(N).orders]
    cands = [
        chi
        for chi in (DirichletCharacter(N, ring, expo) for expo in product(*choices))
        if not chi.is_trivial() and chi.conductor() == D
    ]
    if len(cands) != 1:
        raise ValueError(
            f"quad@{D}: {'no' if not cands else 'several'} quadratic characters of conductor {D} mod {N}"
        )
    return cands[0]


def _component_character(N: int, ring: CoeffRing, D: int, e: int) -> DirichletCharacter:
    if D < 1 or N % D != 0 or gcd(D, N // D) != 1:
        raise ValueError(f"chi@{D}: {D} is not a unitary divisor of {N}")
    ug = unit_group(N)
    hits = [i for i, g in enumerate(ug.generators) if g % D != 1 % D]
    if len(hits) != 1:
        raise ValueError(f"chi@{D} is ambiguous: component has {len(hits)} generators")
    i = hits[0]
    expo = [0] * len(ug.generators)
    expo[i] = e * root_step(ring, ug.orders[i])
    return DirichletCharacter(N, ring, tuple(expo))


def parse_theta(spec: str, N: int, p: int, ring: CoeffRing) -> DirichletCharacter:
    """Resolve a character specifier, either "[e1,e2,...]" on the canonical
    generator list or a '*'-product of tokens:

      1           trivial character
      omega^J     J-th power of the Teichmueller character (requires p | N)
      quad@D      the quadratic character of conductor D
      chi@D^E     E-th power of the canonical character of the D-component

    Anything else (including an ambiguous token) is an error.
    """
    s = spec.strip()
    if s.startswith("theta="):
        s = s[len("theta=") :]
    if s.startswith("["):
        if not s.endswith("]"):
            raise ValueError(f"unterminated exponent vector: {spec!r}")
        inner = s[1:-1].strip()
        expo = [int(t) for t in inner.split(",")] if inner else []
        return _from_exponents(N, ring, expo)
    chi = _trivial(N, ring)
    for token in s.split("*"):
        token = token.strip()
        if not token:
            raise ValueError(f"empty factor in theta specifier {spec!r}")
        if token == "1":
            continue
        if token.startswith("omega"):
            rest = token[len("omega") :]
            if rest.startswith("^"):
                rest = rest[1:]
            try:
                j = int(rest) if rest else 1
            except ValueError:
                raise ValueError(f"bad omega power in {token!r}") from None
            if N % p != 0:
                raise ValueError(f"omega is undefined at level {N} prime to p = {p}")
            omega = teichmuller_character(N // p, p, ring)
            chi = chi * omega**j
            continue
        if token.startswith("quad@"):
            chi = chi * _quadratic_of_conductor(N, ring, int(token[len("quad@") :]))
            continue
        if token.startswith("chi@"):
            body = token[len("chi@") :]
            if "^" in body:
                d_str, e_str = body.split("^", 1)
                chi = chi * _component_character(N, ring, int(d_str), int(e_str))
            else:
                chi = chi * _component_character(N, ring, int(body), 1)
            continue
        raise ValueError(
            f"cannot resolve theta factor {token!r}; use 1, omega^J, quad@D, chi@D^E or [e1,...]"
        )
    return chi
