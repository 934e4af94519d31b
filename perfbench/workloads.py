"""Workload families of the cdsymbols benchmark and their seeded draws.

A workload is a list of strata.  Each stratum is a candidate list and a
count; the seed picks that many candidates from every stratum, so the
per-stratum counts (and with them the cost mix) never change with the seed.
Candidates inside a stratum were chosen to do about the same work (their
cd_span insertion counts agree within 10% at the pinned commit), so seeds
differ in inputs, not in cost.  Drawn scenarios keep their candidate
order, which fixes the order a pass runs them in.
"""

from __future__ import annotations

import random

FIELDS = ("p", "k", "M", "level", "variant", "theta", "quotient")


def scenario(p, k, M, theta, level="Mp", variant="full", quotient="none") -> dict:
    """One `cdsymbols verify` scenario as the dict `cli.run_config` takes."""
    return {"p": p, "k": k, "M": M, "level": level, "variant": variant,
            "theta": theta, "quotient": quotient}


def key(s: dict) -> str:
    """Stable name of a scenario: its `cdsymbols verify` flags."""
    return " ".join(f"--{f} {s[f]}" for f in FIELDS)


_PRIMES = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43)

# Level-M composites: p = 1 mod phi(M), so the ring is Z/p^k (m = 1), and
# p does not divide N.  Theta is fixed: the even characters of one level
# differ in cost by up to 2x, which would make the seed move the timings.
_LEVEL_M = ((9, 7, "[2]"), (9, 13, "[2]"), (15, 17, "[1,1]"), (16, 17, "[0,2]"),
            (21, 13, "[1,1]"), (28, 13, "[1,1]"))


def _omega_case_a(p: int) -> list[str]:
    """Even powers omega^2j at level p other than omega^2: case a or U-i."""
    return [f"omega^{2 * j}" for j in range((p - 1) // 2) if j != 1]


def _deficit35():
    return [
        (1, [scenario(7, 1, 5, "[2,4]")]),
        (1, [scenario(7, 1, 5, "[0,4]")]),
    ]


def _cold_levels():
    strata = []
    for k in (1, 2):
        for p in _PRIMES:
            strata.append((1, [scenario(p, k, 1, t, variant="cusp0") for t in _omega_case_a(p)]))
            strata.append((1, [scenario(p, k, 1, t, quotient=f"trivU:{p}") for t in _omega_case_a(p)]))
            strata.append((1, [scenario(p, k, 1, "omega^2", variant="cusp0", quotient="t2eis")]))
        for M, p, theta in _LEVEL_M:
            strata.append((1, [scenario(p, k, M, theta, level="M")]))
    return strata


WORKLOADS = {
    "deficit35": _deficit35,
    "cold_levels": _cold_levels,
}


def draw(workload: str, seed: int) -> list[dict]:
    """The workload's scenario list for this seed, in run order."""
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for count, candidates in WORKLOADS[workload]():
        picks = sorted(rng.sample(range(len(candidates)), count))
        out.extend(candidates[i] for i in picks)
    return out


def candidates(workload: str) -> list[dict]:
    """Every scenario any seed can draw for the workload."""
    return [s for _, cands in WORKLOADS[workload]() for s in cands]
