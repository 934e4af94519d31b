import json
import random

import numpy as np

from cdsymbols import properties
from cdsymbols.characters import parse_theta, unit_group
from cdsymbols.eigen import project
from cdsymbols.properties import SUITES, run_properties
from cdsymbols.rings import make_coeff_ring
from cdsymbols.symbols import build_presentation
from dense_reference import ambient_relations, dense_relation_rows, relation_coeffs, relation_rows


def test_suite_registry_names():
    names = {s.name for s in SUITES}
    assert {
        "howell_oracle",
        "ring_invariants",
        "character_invariants",
        "projected_symbol_expansion",
        "conductor_support_vanishing",
        "antisymmetry",
        "cd_scalar_identity",
        "bezout_splitting",
        "omega2_vanishing",
        "u_operator",
    } <= names


def test_run_properties_deterministic_and_passing():
    r1 = run_properties(123, cases=4)
    r2 = run_properties(123, cases=4)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    assert r1["all_passed"], [s for s in r1["suites"] if s["failures"]]
    for suite in r1["suites"]:
        assert suite["cases"] == 4


def test_run_properties_seed_changes_cases():
    r1 = run_properties(1, cases=3, suites=["projected_symbol_expansion"])
    r2 = run_properties(2, cases=3, suites=["projected_symbol_expansion"])
    assert r1["seed"] != r2["seed"]


def test_shrinker_reports_minimized_failures():
    # a deliberately broken check exercises the shrink loop
    from cdsymbols.properties import _shrink

    def failing_check(case):
        return case["x"] < 3  # fails for x >= 3; minimal failing x is 3

    shrunk = _shrink({"x": 57, "y": 9}, failing_check)
    assert shrunk["x"] == 3
    assert shrunk["y"] == 0


# The suites that decide membership in the relations, and the scenario pools
# each draws at N = 12 (k = 1 and 2), 35 and 45, every U_ell block included.
_MEMBERSHIP_POOLS = {"antisymmetry": (3, 4, 5), "bezout_splitting": (3, 4, 5), "u_operator": (0, 1, 2, 3, 4)}


def _membership_sample(monkeypatch, per_pool: int = 3) -> list[tuple]:
    """The (space, p, M, theta, vec, trivial_u) that the membership suites
    test on a fixed draw of cases, recorded as they call `_in_relations`:
    per_pool checkable cases from each pool, drawn in a fixed order."""
    calls = []
    real = properties._in_relations

    def record(space, p, M, theta, vec, trivial_u=()):
        calls.append((space, p, M, theta, vec, trivial_u))
        return real(space, p, M, theta, vec, trivial_u)

    monkeypatch.setattr(properties, "_in_relations", record)
    rng = random.Random(2026)
    for suite in SUITES:
        for pool in _MEMBERSHIP_POOLS.get(suite.name, ()):
            start = len(calls)
            for _ in range(50 * per_pool):
                if len(calls) - start == per_pool:
                    break
                try:
                    suite.check(dict(suite.gen(rng), pool=pool))
                except properties.InvalidCase:
                    pass
    monkeypatch.setattr(properties, "_in_relations", real)
    return calls


def etheta_symbol(space, theta, i: int) -> np.ndarray:
    """e_theta [i] = (1/phi(N)) sum_a theta^-1(a) <a>[i], a theta-eigenvector."""
    ring, N = space.ring, space.N
    units = np.array(unit_group(N).units, dtype=np.int64)
    vec = ring.vzeros(space.nsym)
    coeffs = ring.vscale(theta.inverse().values, ring.from_int(len(units)).inverse().as_array())
    np.add.at(vec, space.table[units * space.u[i] % N, units * space.v[i] % N], coeffs)
    return vec % ring.pk


def test_membership_through_pi_matches_the_ambient_relations(monkeypatch):
    """On each vector the membership suites test, and on it plus a multiple
    of a random e_theta [i] (a theta-eigenvector, mostly outside the
    relations), the pi route answers as the Howell form of the dense Manin
    and U_ell rows over all symbols does."""
    calls = _membership_sample(monkeypatch)
    assert {(space.N, trivial_u) for space, *_, trivial_u in calls} == {
        (12, ()), (35, ()), (12, (2,)), (12, (3,)), (35, (5,)), (35, (7,)), (45, (3,))
    }
    assert {space.ring.k for space, *_ in calls if space.N == 12} == {1, 2}
    rng = random.Random(7)
    answers = []
    for space, p, M, theta, vec, trivial_u in calls:
        ring = space.ring
        moved = vec + rng.randrange(1, ring.pk) * etheta_symbol(space, theta, rng.randrange(space.nsym))
        for w in (vec, moved % ring.pk):
            want = ambient_relations(space, trivial_u).contains(w)
            assert properties._in_relations(space, p, M, theta, w, trivial_u) == want
            answers.append(want)
    assert answers.count(True) >= len(calls) and answers.count(False) >= len(calls) // 2


def test_sign_relation_is_rejected_by_the_eigen_guard():
    """A sign row [u:v] + [-v:u] lies in the ambient relations and pi sends
    it to 0, but it is not theta-eigen: the guard rejects it, where pi alone
    would accept it."""
    ring = make_coeff_ring(7, 1, unit_group(35).phi)
    space = build_presentation(35, "full", ring)
    theta = parse_theta("[2,4]", 35, 7, ring)
    sign = np.flatnonzero(relation_coeffs(space)[:, 2] == 0)[:1]
    row = dense_relation_rows(space, (relation_rows(space)[sign], relation_coeffs(space)[sign]))[0]
    assert ambient_relations(space).contains(row)
    ctx = properties._theta_context(space, 7, 5, theta)
    assert ctx.rel_acc.contains(project(ctx, row))
    assert not properties._in_relations(space, 7, 5, theta, row)
