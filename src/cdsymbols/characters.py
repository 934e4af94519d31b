"""Unit groups of Z/NZ and Dirichlet characters valued in a CoeffRing.

Characters are stored by their images on a canonical generator list coming
from the CRT decomposition of (Z/NZ)^x, so the exponent vector on that list
is a stable label for a character across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
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
    teichmuller,
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
    """CRT generators of (Z/NZ)^x with a full discrete-log table."""

    modulus: int
    generators: tuple[int, ...]
    orders: tuple[int, ...]
    dlog: dict[int, tuple[int, ...]] = field(compare=False, repr=False)

    @property
    def phi(self) -> int:
        p = 1
        for o in self.orders:
            p *= o
        return p

    @property
    def units(self) -> tuple[int, ...]:
        return tuple(sorted(self.dlog))

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
        comp = N // q
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
            lifted = g % q if comp == 1 else _crt_pair(g % q, q, 1, comp)
            gens.append(lifted)
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
    return UnitGroupStructure(N, tuple(gens), tuple(orders), dlog)


@dataclass(frozen=True)
class DirichletCharacter:
    """Homomorphism (Z/NZ)^x -> mu subset of ring^x, stored by generator images."""

    N: int
    ring: CoeffRing
    images: tuple[RingElem, ...]

    @property
    def group(self) -> UnitGroupStructure:
        return unit_group(self.N)

    def __post_init__(self):
        ug = unit_group(self.N)
        if len(self.images) != len(ug.generators):
            raise ValueError("one image per unit-group generator required")

    @cached_property
    def values(self) -> np.ndarray:
        """chi(a) for every unit a in `group.units` order, as a read-only
        (phi(N), m) array, built from the powers of the generator images."""
        ug, ring = self.group, self.ring
        table = ring.one().as_array()[None]  # on exponent vectors, first generator slowest
        position = np.zeros(len(ug.units), dtype=np.int64)  # of each unit in that order
        for i, (img, order) in enumerate(zip(self.images, ug.orders)):
            powers = [ring.one()]
            for _ in range(order - 1):
                powers.append(powers[-1] * img)
            powers = np.array([x.coeffs for x in powers], dtype=np.int64)
            table = ring.vscale_stack(powers, table).reshape(-1, ring.m)
            position = position * order + [ug.dlog[a][i] for a in ug.units]
        out = table[position]
        out.setflags(write=False)
        return out

    def __call__(self, a: int) -> RingElem:
        expo = self.group.exponents(a)
        out = self.ring.one()
        for img, t in zip(self.images, expo):
            if t:
                out = out * img**t
        return out

    def __mul__(self, other: "DirichletCharacter") -> "DirichletCharacter":
        if (self.N, self.ring) != (other.N, other.ring):
            raise ValueError("characters of different moduli or rings")
        return DirichletCharacter(
            self.N, self.ring, tuple(a * b for a, b in zip(self.images, other.images))
        )

    def inverse(self) -> "DirichletCharacter":
        return DirichletCharacter(self.N, self.ring, tuple(img.inverse() for img in self.images))

    def __pow__(self, n: int) -> "DirichletCharacter":
        if n < 0:
            return self.inverse() ** (-n)
        return DirichletCharacter(self.N, self.ring, tuple(img**n for img in self.images))

    def is_trivial(self) -> bool:
        one = self.ring.one()
        return all(img == one for img in self.images)

    def is_even(self) -> bool:
        return self(-1) == self.ring.one()

    def conductor(self) -> int:
        return conductor(self)

    def exponent_vector(self) -> tuple[int, ...]:
        """Exponents t_i with image_i = zeta_{order_i}^{t_i} (canonical label)."""
        out = []
        for img, order in zip(self.images, self.group.orders):
            zeta = root_of_unity(self.ring, order)
            cur = self.ring.one()
            for t in range(order):
                if cur == img:
                    out.append(t)
                    break
                cur = cur * zeta
            else:
                raise ValueError("image is not a root of unity of the expected order")
        return tuple(out)

    def label(self) -> str:
        return "[" + ",".join(str(t) for t in self.exponent_vector()) + "]"

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
        """The same character valued in Z/p^k or in a Galois ring over it:
        Z/p^k is the prime subring of every GR(p^k, m), so each generator
        image keeps its power-basis coefficients, zero-padded or cut to
        ring.m.  Cutting requires the dropped coefficients to be zero."""
        if ring == self.ring:
            return self
        if (ring.p, ring.k) != (self.ring.p, self.ring.k) or 1 not in (ring.m, self.ring.m):
            raise RingError(f"no coefficient map from {self.ring} to {ring}")
        if any(any(img.coeffs[ring.m :]) for img in self.images):
            raise RingError(f"the character does not take values in {ring}")
        pad = (0,) * ring.m
        return DirichletCharacter(self.N, ring, tuple(ring.el((img.coeffs + pad)[: ring.m]) for img in self.images))

    def extend(self, N2: int) -> "DirichletCharacter":
        """View the character modulo a multiple N2 of N."""
        if N2 % self.N != 0:
            raise ValueError("target modulus must be a multiple of N")
        ug2 = unit_group(N2)
        return DirichletCharacter(N2, self.ring, tuple(self(g % self.N) for g in ug2.generators))


def enumerate_characters(N: int, ring: CoeffRing) -> list[DirichletCharacter]:
    """All phi(N) characters (Z/NZ)^x -> ring^x, ordered by exponent vector."""
    ug = unit_group(N)
    if (ring.q - 1) % ug.phi != 0 and any((ring.q - 1) % o != 0 for o in ug.orders):
        raise RingError(f"ring has no mu_{ug.phi}: cannot represent all characters mod {N}")
    zetas = [root_of_unity(ring, o) for o in ug.orders]
    out: list[DirichletCharacter] = []

    def rec(i: int, images: tuple[RingElem, ...]):
        if i == len(zetas):
            out.append(DirichletCharacter(N, ring, images))
            return
        img = ring.one()
        for _ in range(ug.orders[i]):
            rec(i + 1, images + (img,))
            img = img * zetas[i]

    rec(0, ())
    return out


def conductor(chi: DirichletCharacter) -> int:
    """Minimal f | N such that chi factors through (Z/fZ)^x."""
    N = chi.N
    units = np.array(chi.group.units, dtype=np.int64)
    is_one = (chi.values == chi.ring.one().as_array()).all(axis=1)
    for f in range(1, N + 1):
        if N % f == 0 and is_one[units % f == 1 % f].all():
            return f
    return N


def teichmuller_character(M: int, p: int, ring: CoeffRing) -> DirichletCharacter:
    """The Teichmueller character omega modulo Mp, factoring through (Z/pZ)^x."""
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    if M % p == 0:
        raise ValueError("M must be prime to p")
    if ring.p != p:
        raise RingError("ring has the wrong residue characteristic")
    N = M * p
    ug = unit_group(N)
    images = tuple(teichmuller(ring, g % p) for g in ug.generators)
    return DirichletCharacter(N, ring, images)


def restrict_to_part(chi: DirichletCharacter, D: int) -> DirichletCharacter:
    """CRT component of chi at a unitary divisor D of N."""
    N = chi.N
    if D < 1 or N % D != 0 or gcd(D, N // D) != 1:
        raise ValueError(f"{D} is not a unitary divisor of {N}")
    ug_d = unit_group(D) if D > 1 else None
    if ug_d is None:
        raise ValueError("restriction to the trivial modulus is not a character")
    comp = N // D
    images = []
    for g in ug_d.generators:
        lifted = g % D if comp == 1 else _crt_pair(g % D, D, 1, comp)
        images.append(chi(lifted))
    return DirichletCharacter(D, chi.ring, tuple(images))


# ---------------------------------------------------------------------------
# CLI character grammar


def _trivial(N: int, ring: CoeffRing) -> DirichletCharacter:
    ug = unit_group(N)
    return DirichletCharacter(N, ring, (ring.one(),) * len(ug.generators))


def _from_exponents(N: int, ring: CoeffRing, expo: list[int]) -> DirichletCharacter:
    ug = unit_group(N)
    if len(expo) != len(ug.generators):
        raise ValueError(
            f"theta vector has {len(expo)} entries but (Z/{N})^x has {len(ug.generators)} generators"
        )
    images = tuple(root_of_unity(ring, o) ** (t % o) for o, t in zip(ug.orders, expo))
    return DirichletCharacter(N, ring, images)


def _quadratic_of_conductor(N: int, ring: CoeffRing, D: int) -> DirichletCharacter:
    cands = [
        chi
        for chi in enumerate_characters(N, ring)
        if (chi * chi).is_trivial() and not chi.is_trivial() and chi.conductor() == D
    ]
    if len(cands) != 1:
        raise ValueError(
            f"quad@{D}: {'no' if not cands else 'several'} quadratic characters of conductor {D} mod {N}"
        )
    return cands[0]


def _component_character(N: int, ring: CoeffRing, D: int, e: int) -> DirichletCharacter:
    ug = unit_group(N)
    hits = [i for i, g in enumerate(ug.generators) if g % D != 1 % D]
    if N % D != 0 or gcd(D, N // D) != 1:
        raise ValueError(f"chi@{D}: {D} is not a unitary divisor of {N}")
    if len(hits) != 1:
        raise ValueError(f"chi@{D} is ambiguous: component has {len(hits)} generators")
    i = hits[0]
    images = [ring.one()] * len(ug.generators)
    images[i] = root_of_unity(ring, ug.orders[i]) ** (e % ug.orders[i])
    return DirichletCharacter(N, ring, tuple(images))


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
