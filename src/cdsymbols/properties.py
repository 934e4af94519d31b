"""Seeded, reproducible property suites for the identity layer.

Each suite draws randomized cases from a fixed scenario pool and checks an
exact algebraic identity (no tolerances).  Failures are shrunk coordinate by
coordinate before being reported, and the report is a deterministic function
of the seed.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Callable

import numpy as np

from .characters import enumerate_characters, teichmuller_character, unit_group
from .eigen import EigenContext, bezout_units, build_eigen_context, cd_eigensymbol, eigensymbol_free, project
from .hecke import trivial_Ul_relations
from .linalg import howell_form
from .rings import chain_ring, make_coeff_ring, root_of_unity
from .symbols import build_presentation

__all__ = ["InvalidCase", "SUITES", "run_properties"]


class InvalidCase(Exception):
    """The shrunk parameters no longer describe a checkable case."""


# scenario pool shared by the eigensymbol suites: (p, k, M, level)
_SCENARIOS = (
    (5, 1, 1, "Mp"),
    (5, 2, 1, "Mp"),
    (7, 1, 1, "Mp"),
    (3, 1, 4, "Mp"),
    (3, 2, 4, "Mp"),
    (7, 1, 5, "Mp"),
    (7, 1, 5, "M"),
)

_U_SCENARIOS = (
    (7, 1, 5, 7),  # N = 35, ell = p
    (7, 1, 5, 5),  # N = 35, ell | M
    (3, 1, 4, 2),  # N = 12, ell | M
    (3, 1, 4, 3),  # N = 12, ell = p
    (5, 1, 9, 3),  # N = 45, ell^2 | N: exercises t < s
)


def _scenario_space(i: int, variant: str = "full"):
    p, k, M, level = _SCENARIOS[i % len(_SCENARIOS)]
    N = M if level == "M" else M * p
    ring = make_coeff_ring(p, k, unit_group(N).phi)
    return p, M, N, ring, build_presentation(N, variant, ring)


def _coprime_divisor_pairs(N: int):
    divs = [d for d in range(1, N + 1) if N % d == 0]
    return [(g, h) for g in divs for h in divs if gcd(g, h) == 1]


@lru_cache(maxsize=16)
def _characters(N: int, ring) -> tuple[tuple, tuple]:
    """All characters mod N over the ring, and the even ones, enumerated once
    per (N, ring)."""
    chars = tuple(enumerate_characters(N, ring))
    return chars, tuple(c for c in chars if c.is_even())


@lru_cache(maxsize=16)
def _theta_context(space, p: int, M: int, theta, trivial_u: tuple[int, ...] = ()) -> EigenContext:
    """The theta-eigenspace of the space modulo its relations and the trivial
    U_ell rows of trivial_u, built once per key."""
    return build_eigen_context(space, p, M, theta, [trivial_Ul_relations(space, ell) for ell in trivial_u])


def _in_relations(space, p: int, M: int, theta, vec: np.ndarray, trivial_u: tuple[int, ...] = ()) -> bool:
    """Whether the ambient vector lies in the relations plus the trivial
    U_ell rows of trivial_u.  It must be theta-eigen, vec = theta(g)
    <g>^-1 vec for each generator g of (Z/N)^x; then it lies there iff its
    image under pi lies in the projected relations.  The relations are
    diamond-stable and p does not divide phi(N), so e_theta of a relation
    is a relation, pi = pi e_theta, and the kernel of pi on the eigenspace
    is e_theta of the sign relations.  pi alone would drop the components
    outside theta."""
    ring, N = space.ring, space.N
    for g in unit_group(N).generators:
        moved = vec[space.table[g * space.u % N, g * space.v % N]]
        if not np.array_equal(vec, ring.vscale(moved, theta(g).as_array())):
            return False
    ctx = _theta_context(space, p, M, theta, trivial_u)
    return ctx.rel_acc.contains(project(ctx, vec))


# ---------------------------------------------------------------------------
# suite: Howell span versus brute-force enumeration


def _span_set(rows, pk, n):
    S = {(0,) * n}
    for r in rows:
        r = [int(x) % pk for x in r]
        S = {tuple((s[i] + c * r[i]) % pk for i in range(n)) for s in S for c in range(pk)}
    return S

_HOWELL_RINGS = ((2, 2), (2, 3), (3, 2), (5, 2))


def gen_howell(rng: random.Random) -> dict:
    ring_idx = rng.randrange(len(_HOWELL_RINGS))
    p, k = _HOWELL_RINGS[ring_idx]
    n = rng.randint(1, 4)
    nrows = rng.randint(0, 3)
    entries = [rng.randrange(p**k) for _ in range(n * nrows)]
    return {"ring": ring_idx, "n": n, "nrows": nrows, "seed": rng.randrange(10**6), "entries": entries}


def check_howell(case: dict) -> bool:
    try:
        p, k = _HOWELL_RINGS[case["ring"] % len(_HOWELL_RINGS)]
        n, nrows = case["n"], case["nrows"]
        if n < 1 or nrows < 0:
            raise InvalidCase
        entries = case["entries"]
        rows = [entries[i * n : (i + 1) * n] for i in range(nrows)]
        if any(len(r) != n for r in rows):
            raise InvalidCase
    except (IndexError, KeyError):
        raise InvalidCase from None
    ring = chain_ring(p, k)
    sub = howell_form(rows, ring, ncols=n)
    if _span_set(rows, p**k, n) != _span_set([r[:, 0] for r in sub.mat], p**k, n):
        return False
    shuffled = list(rows)
    random.Random(case["seed"]).shuffle(shuffled)
    return howell_form(shuffled, ring, ncols=n) == sub


# ---------------------------------------------------------------------------
# suite: ring invariants (Hensel consistency, reduction, unit criterion)

_RING_POOL = ((5, 3, 4), (7, 2, 24), (3, 3, 2), (7, 1, 20), (5, 2, 12))


def gen_ring(rng: random.Random) -> dict:
    return {
        "pool": rng.randrange(len(_RING_POOL)),
        "x": rng.randrange(10**6),
        "y": rng.randrange(10**6),
    }


def check_ring(case: dict) -> bool:
    p, k, e = _RING_POOL[case["pool"] % len(_RING_POOL)]
    ring = make_coeff_ring(p, k, e)
    # Hensel consistency: a divisor of q-1 gives a root of exact residue order
    q = ring.q
    divisors = [n for n in range(1, q) if (q - 1) % n == 0]
    n = divisors[case["x"] % len(divisors)]
    z = root_of_unity(ring, n)
    if ring.residue_order(tuple(c % p for c in z.coeffs)) != n:
        return False
    # reduction compatibility and unit criterion on pseudo-random elements
    x = ring.el([case["x"] // (i + 1) % ring.pk for i in range(ring.m)])
    y = ring.el([case["y"] // (i + 1) % ring.pk for i in range(ring.m)])
    for k2 in range(1, k):
        low = ring.reduce_to(k2)
        if (x * y).reduce_to(low) != x.reduce_to(low) * y.reduce_to(low):
            return False
        if (x + y).reduce_to(low) != x.reduce_to(low) + y.reduce_to(low):
            return False
    if x.is_unit() != any(c % p for c in x.coeffs):
        return False
    if x.is_unit() and x * x.inverse() != ring.one():
        return False
    return True


# ---------------------------------------------------------------------------
# suite: character invariants


def gen_characters(rng: random.Random) -> dict:
    return {"pool": rng.randrange(len(_SCENARIOS)), "a": rng.randrange(10**6), "b": rng.randrange(10**6)}


def check_characters(case: dict) -> bool:
    p, M, N, ring, _ = _scenario_space(case["pool"])
    ug = unit_group(N)
    units = ug.units
    a = units[case["a"] % len(units)]
    b = units[case["b"] % len(units)]
    chars, evens = _characters(N, ring)
    zero = ring.zero()
    for chi in chars:
        if chi(a) * chi(b) != chi(a * b):
            return False
        total = zero
        for u in units:
            total = total + chi(u)
        expect = ring.from_int(ug.phi) if chi.is_trivial() else zero
        if total != expect:
            return False
    if N > 2 and len(evens) != ug.phi // 2:
        return False
    # conductor multiplies over CRT components
    from .rings import prime_factorization
    from .characters import restrict_to_part

    for chi in chars[: min(6, len(chars))]:
        f = 1
        for q_prime, e in prime_factorization(N).items():
            f *= restrict_to_part(chi, q_prime**e).conductor()
        if f != chi.conductor():
            return False
    return True


# ---------------------------------------------------------------------------
# eigensymbol identity suites


def _draw_eigen_case(rng: random.Random) -> dict:
    return {
        "pool": rng.randrange(len(_SCENARIOS)),
        "theta": rng.randrange(64),
        "chi": rng.randrange(64),
        "pair": rng.randrange(64),
        "u": rng.randrange(64),
        "v": rng.randrange(64),
        "c": rng.randrange(64),
        "d": rng.randrange(64),
    }


def _resolve_eigen(case: dict, variant: str = "full"):
    p, M, N, ring, space = _scenario_space(case["pool"], variant)
    chars, evens = _characters(N, ring)
    theta = evens[case["theta"] % len(evens)]
    chi = chars[case["chi"] % len(chars)]
    pairs = _coprime_divisor_pairs(N)
    g, h = pairs[case["pair"] % len(pairs)]
    units = unit_group(N).units
    u = units[case["u"] % len(units)]
    v = units[case["v"] % len(units)]
    return p, M, N, ring, space, theta, chi, g, h, u, v


def check_projected_symbol_expansion(case: dict) -> bool:
    p, M, N, ring, space, theta, chi, g, h, u, v = _resolve_eigen(case)
    th_inv = theta.inverse()
    phi = unit_group(N).phi
    inv_phi = ring.from_int(phi).inverse()
    lhs = ring.vzeros(space.nsym)
    for a in unit_group(N).units:
        i = space.idx(a * g * u, a * h * v)
        lhs[i] = (lhs[i] + (th_inv(a) * inv_phi).as_array()) % ring.pk
    rhs = ring.vzeros(space.nsym)
    for cchi in _characters(N, ring)[0]:
        psi = theta * cchi.inverse()
        rhs = (rhs + ring.vscale(eigensymbol_free(space, cchi, psi, g, h), (cchi(u) * psi(v)).as_array())) % ring.pk
    return bool(np.array_equal(lhs, rhs))


def check_conductor_support_vanishing(case: dict) -> bool:
    p, M, N, ring, space, theta, chi, g, h, u, v = _resolve_eigen(case)
    psi = theta * chi.inverse()
    fc, fp = chi.conductor(), psi.conductor()
    if (N // g) % fc == 0 and (N // h) % fp == 0:
        raise InvalidCase  # vanishing is only asserted off the support condition
    return not eigensymbol_free(space, chi, psi, g, h).any()


def check_antisymmetry(case: dict) -> bool:
    p, M, N, ring, space, theta, chi, g, h, u, v = _resolve_eigen(case)
    psi = theta * chi.inverse()
    v1 = eigensymbol_free(space, chi, psi, g, h)
    v2 = eigensymbol_free(space, psi, chi, h, g)
    tot = (v1 + ring.vscale(v2, chi(-1).as_array())) % ring.pk
    return _in_relations(space, p, M, theta, tot)


def check_cd_scalar_identity(case: dict) -> bool:
    p, M, N, ring, space, theta, chi, g, h, u, v = _resolve_eigen(case)
    ctx = build_eigen_context(space, p, M, theta)
    psi = theta * chi.inverse()
    units = unit_group(N).units
    c = units[case["c"] % len(units)]
    d = units[case["d"] % len(units)]
    L = 6 * N * ring.pk // gcd(6 * N, ring.pk)
    cc = next(x for x in range(c, c + 2 * L + 2, N) if x > 1 and gcd(x, 6 * N) == 1)
    dd = next(x for x in range(d, d + 2 * L + 2, N) if x > 1 and gcd(x, 6 * N) == 1)
    lhs = cd_eigensymbol(ctx, cc, dd, chi, g, h)
    scalar = (ring.from_int(cc * cc) - chi(cc)) * (ring.from_int(dd * dd) - psi(dd))
    rhs = ring.vscale(eigensymbol_free(space, chi, psi, g, h), scalar.as_array())
    return bool(np.array_equal(lhs, rhs))


def check_bezout_splitting(case: dict) -> bool:
    p, M, N, ring, space, theta, chi, g, h, u, v = _resolve_eigen(case)
    a, b, delta = bezout_units(N, g, h)
    lhs = ring.vzeros(space.nsym)
    r1 = ring.vzeros(space.nsym)
    r2 = ring.vzeros(space.nsym)
    for cchi in _characters(N, ring)[0]:
        psi = theta * cchi.inverse()
        lhs = (lhs + ring.vscale(eigensymbol_free(space, cchi, psi, g, h), (cchi(a) * psi(b)).as_array())) % ring.pk
        r1 = (r1 + ring.vscale(eigensymbol_free(space, cchi, psi, g, delta), cchi(a).as_array())) % ring.pk
        r2 = (r2 + ring.vscale(eigensymbol_free(space, cchi, psi, delta, h), psi(b).as_array())) % ring.pk
    return _in_relations(space, p, M, theta, (lhs - r1 - r2) % ring.pk)


def check_omega2_vanishing(case: dict) -> bool:
    p, M, N, ring, space, theta, chi, g, h, u, v = _resolve_eigen(case)
    if N != M * p:
        raise InvalidCase
    om2 = teichmuller_character(M, p, ring) ** 2
    eta = theta * om2.inverse()
    f = eta.conductor()
    # standing hypotheses of the lemma: M | f, and f = Mp when p = 3
    if f % M or (p == 3 and f != N):
        raise InvalidCase
    beta = eigensymbol_free(space, om2, eta, g, h)
    if g % p == 0:
        if p >= 5:
            return not beta.any()
        raise InvalidCase
    if h == 1 or (f == M and h == p):
        raise InvalidCase  # no vanishing asserted
    return not beta.any()


def check_u_operator(case: dict) -> bool:
    p, k, M, ell = _U_SCENARIOS[case["pool"] % len(_U_SCENARIOS)]
    N = M * p
    ring = make_coeff_ring(p, k, unit_group(N).phi)
    space = build_presentation(N, "full", ring)
    chars, evens = _characters(N, ring)
    theta = evens[case["theta"] % len(evens)]
    s = 0
    nn = N
    while nn % ell == 0:
        s += 1
        nn //= ell
    chi = chars[case["chi"] % len(chars)]
    # admissible (g, h): ell does not divide g*h
    divs = [d for d in range(1, N + 1) if N % d == 0 and d % ell]
    pairs = [(g, h) for g in divs for h in divs if gcd(g, h) == 1]
    g, h = pairs[case["pair"] % len(pairs)]
    t = 1 + case["u"] % s
    if (N // ell**t) % chi.conductor():
        raise InvalidCase  # hypothesis f_chi | N / ell^t fails
    psi = theta * chi.inverse()
    if t < s:
        lhs = eigensymbol_free(space, chi, psi, ell**t * g, h)
        rhs = ring.vscale(eigensymbol_free(space, chi, psi, ell ** (t - 1) * g, h), ring.from_int(ell).as_array())
    else:
        scalar = ring.one() - chi.primitive_eval(ell).inverse()
        lhs = ring.vscale(eigensymbol_free(space, chi, psi, ell**s * g, h), scalar.as_array())
        rhs = ring.vscale(eigensymbol_free(space, chi, psi, ell ** (s - 1) * g, h), ring.from_int(ell - 1).as_array())
    return _in_relations(space, p, M, theta, (lhs - rhs) % ring.pk, (ell,))


@dataclass(frozen=True)
class PropertySuite:
    name: str
    gen: Callable[[random.Random], dict]
    check: Callable[[dict], bool]


SUITES: tuple[PropertySuite, ...] = (
    PropertySuite("howell_oracle", gen_howell, check_howell),
    PropertySuite("ring_invariants", gen_ring, check_ring),
    PropertySuite("character_invariants", gen_characters, check_characters),
    PropertySuite("projected_symbol_expansion", _draw_eigen_case, check_projected_symbol_expansion),
    PropertySuite("conductor_support_vanishing", _draw_eigen_case, check_conductor_support_vanishing),
    PropertySuite("antisymmetry", _draw_eigen_case, check_antisymmetry),
    PropertySuite("cd_scalar_identity", _draw_eigen_case, check_cd_scalar_identity),
    PropertySuite("bezout_splitting", _draw_eigen_case, check_bezout_splitting),
    PropertySuite("omega2_vanishing", _draw_eigen_case, check_omega2_vanishing),
    PropertySuite("u_operator", _draw_eigen_case, check_u_operator),
)


def _shrink(case: dict, check: Callable[[dict], bool], rounds: int = 64) -> dict:
    """Coordinate-wise shrink: repeatedly lower integer coordinates while the
    case still fails."""
    current = dict(case)
    for _ in range(rounds):
        improved = False
        for key in sorted(current):
            val = current[key]
            if not isinstance(val, int) or val <= 0:
                continue
            for cand in (0, val // 2, val - 1):
                if cand >= val:
                    continue
                trial = dict(current)
                trial[key] = cand
                try:
                    still_failing = not check(trial)
                except InvalidCase:
                    continue
                except Exception:
                    continue
                if still_failing:
                    current = trial
                    improved = True
                    break
        if not improved:
            break
    return current


def run_properties(seed: int, cases: int = 100, suites=None) -> dict:
    """Run every suite with the given seed; the report is deterministic."""
    chosen = SUITES if suites is None else tuple(s for s in SUITES if s.name in set(suites))
    report = {"seed": seed, "cases_per_suite": cases, "suites": [], "all_passed": True}
    for suite in chosen:
        rng = random.Random(zlib.crc32(f"{seed}:{suite.name}".encode()))
        ran = 0
        skipped = 0
        failures = []
        while ran < cases and skipped < 50 * cases:
            case = suite.gen(rng)
            try:
                ok = suite.check(case)
            except InvalidCase:
                skipped += 1
                continue
            ran += 1
            if not ok:
                failures.append(_shrink(case, suite.check))
                if len(failures) >= 5:
                    break
        entry = {
            "name": suite.name,
            "cases": ran,
            "skipped": skipped,
            "failures": failures,
        }
        report["suites"].append(entry)
        if failures:
            report["all_passed"] = False
    return report
