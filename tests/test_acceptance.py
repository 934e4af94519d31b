"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The grid fixture runs the built-in acceptance grid once (timing every
scenario) and once more in stable mode for the byte-determinism check; the
stable run is also compared with the pinned output in
data/acceptance_stable.json.
"""

import json
import random
import time
from functools import lru_cache
from pathlib import Path

import pytest

from cdsymbols.characters import parse_theta, teichmuller_character, unit_group
from cdsymbols.cli import _grid_summary, _parse_grid_line, acceptance_grid, run_config
from cdsymbols.eigen import build_eigen_context, cd_span, eigensymbol
from cdsymbols.linalg import howell_form
from cdsymbols.properties import run_properties
from cdsymbols.rings import chain_ring, make_coeff_ring
from cdsymbols.symbols import FULL, build_presentation
from dense_reference import etheta_column, verify_cd_span_of_one_p
from manin_modp import ModpEigenspace, omega2_mod7, theta35

import argparse

from cdsymbols.cli import _add_scenario_args

SEED = 20260811
PINNED_STABLE = Path(__file__).parent / "data" / "acceptance_stable.json"


def _line_parser():
    p = argparse.ArgumentParser(prog="grid-line", add_help=False)
    _add_scenario_args(p)
    return p


@pytest.fixture(scope="session")
def grid_results():
    parser = _line_parser()
    configs = [_parse_grid_line(line, parser) for line in acceptance_grid()]
    rows = []
    t_total0 = time.perf_counter()
    for cfg in configs:
        t0 = time.perf_counter()
        report = run_config(cfg)
        rows.append((cfg, report, time.perf_counter() - t0))
    wall = time.perf_counter() - t_total0
    return {"rows": rows, "wall": wall}


@pytest.fixture(scope="session")
def stable_payload():
    """The acceptance grid rerun in stable mode, serialized as
    `cdsymbols grid --acceptance --stable` prints it (without the final
    newline)."""
    parser = _line_parser()
    rows2 = []
    reports2 = []
    for line in acceptance_grid():
        cfg = _parse_grid_line(line, parser)
        cfg["stable"] = True
        rep = run_config(cfg)
        reports2.append(rep)
        rows2.append(rep.to_json_dict())
    return json.dumps({"reports": rows2, "summary": _grid_summary(reports2, [])}, indent=2)


def _verdict(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{name}] {status} {detail}".rstrip())
    return ok


def _find(rows, **want):
    out = []
    for cfg, report, secs in rows:
        if all(getattr(report, key) == val for key, val in want.items()):
            out.append((cfg, report, secs))
    return out


def test_criterion_01_case_a_equalities(grid_results):
    """Generation by (c,d)-symbols alone in the full-conductor case, at both
    precisions, each scenario within its time budget."""
    rows = grid_results["rows"]

    def label(p, M, spec):
        N = M * p
        ring = make_coeff_ring(p, 1, unit_group(N).phi)
        return parse_theta(spec, N, p, ring).label()

    wanted = [
        (5, 1, label(5, 1, "1")),
        (7, 1, label(7, 1, "1")),
        (7, 1, label(7, 1, "omega^4")),
        (7, 5, label(7, 5, "quad@5")),
    ]
    ok = True
    for p, M, theta in wanted:
        for k in (1, 2):
            hits = _find(rows, p=p, k=k, M=M, theta=theta, variant="full", quotient="none")
            assert hits, f"scenario (p={p}, k={k}, M={M}, theta={theta}) missing from grid"
            _, report, secs = hits[0]
            ok &= report.case == "a" and report.equal and report.claim_ok is True
            ok &= secs < 60.0
    assert _verdict("criterion 1", ok)


@lru_cache(maxsize=None)
def _case_b_spans(p, k, M, theta):
    """Lengths over the relations (full variant, level Mp) of H^theta, of
    C^theta, and of C^theta with these extras adjoined:
    a1p = alpha(omega^2, theta omega^-2; 1, p), e1p = e_theta[1:p] and
    aM1 = alpha(omega^2, theta omega^-2; M, 1)."""
    N = M * p
    ring = make_coeff_ring(p, k, unit_group(N).phi)
    ctx = build_eigen_context(build_presentation(N, FULL, ring), p, M, parse_theta(theta, N, p, ring))
    om2 = ctx.omega**2
    a1p = eigensymbol(ctx, om2, 1, p)
    aM1 = eigensymbol(ctx, om2, M, 1)
    e1p = etheta_column(ctx, 1, p)
    c_acc = cd_span(ctx)

    def length(*extras):
        acc = c_acc.copy()
        for vec in extras:
            acc.add(vec)
        return acc.length - ctx.rel_length

    return {
        "H": ctx.htheta_target().length - ctx.rel_length,
        "C": length(),
        "C+a1p": length(a1p),
        "C+a1p+aM1": length(a1p, aM1),
        "C+e1p": length(e1p),
        "C+e1p+aM1": length(e1p, aM1),
    }


def _modp_case_b_lengths():
    """The k = 1 lengths H, C, C + a1p, C + a1p + aM1 of _case_b_spans for
    theta = omega^2*quad@5 mod 35, from the independent mod-7 model in
    manin_modp.py."""
    E = ModpEigenspace(35, 7, theta35)
    C = E.span(E.cd_symbols())
    a1p = E.alpha(omega2_mod7, 1, 7)
    aM1 = E.alpha(omega2_mod7, 5, 1)
    return E.length(), E.length(*C), E.length(*C, a1p), E.length(*C, a1p, aM1)


def test_criterion_02_case_b(grid_results):
    """Case b at N = 35: theta = omega^2*quad@5 = [2,4] is the only case-b
    character mod 35 (p = 7, M = 5, full variant).  The engine adjoins the
    prescribed extra alpha(omega^2, theta omega^-2; 1, p), which leaves a
    cokernel of length one (divisor >=7 at k = 1, 7 at k = 2); adjoining
    alpha(omega^2, theta omega^-2; M, 1) as well closes the span.  The k = 1
    lengths must equal those of the independent mod-p model (manin_modp.py);
    tests/test_eigen.py::test_case_b_corrected_span_structure pins the same
    structure."""
    rows = grid_results["rows"]
    want_divisors = {1: (">=7",), 2: ("7",)}
    ok = True
    details = []
    lengths = {}
    for k in (1, 2):
        hits = _find(rows, p=7, k=k, M=5, theta="[2,4]", variant="full", quotient="none")
        assert hits
        _, report, _ = hits[0]
        spans = _case_b_spans(7, k, 5, "[2,4]")
        lengths[k] = (spans["H"], spans["C"], spans["C+a1p"], spans["C+a1p+aM1"])
        ok &= report.case == "b"
        # [0,4] is omega^2 on the canonical generators of (Z/35)^x
        ok &= report.extras == ("alpha(chi=[0,4],g=1,h=7)",)
        ok &= report.divisors == want_divisors[k]
        ok &= (report.dim_H, report.dim_C) == (spans["H"], spans["C"])
        ok &= spans["C+a1p"] == spans["H"] - 1
        ok &= spans["C+a1p+aM1"] == spans["H"]
        details.append(
            f"k={k}: case {report.case}, extras {list(report.extras)}, divisors {list(report.divisors)}, "
            f"lengths H/C/C+a1p/C+a1p+aM1 = {lengths[k]}"
        )
    modp = _modp_case_b_lengths()
    ok &= lengths[1] == modp
    details.append(f"mod-7 model at k=1: {modp}")
    _verdict("criterion 2", ok, "; ".join(details))
    assert ok, (
        "case b must need exactly alpha(omega^2,psi;1,p) and alpha(omega^2,psi;M,1) beyond C, "
        "as the independent mod-7 model and test_case_b_corrected_span_structure show. "
        + "; ".join(details)
    )


def test_criterion_03_case_c(grid_results):
    rows = grid_results["rows"]
    ok = True
    for k in (1, 2):
        hits = _find(rows, p=3, k=k, M=4, theta="[1,1]", variant="full", quotient="none")
        assert hits
        _, report, _ = hits[0]
        ok &= report.case == "c" and report.claim_ok is True and not report.divisors
        ok &= len(report.extras) == 2
    assert _verdict("criterion 3", ok)


def test_criterion_04_u_theorem(grid_results):
    rows = grid_results["rows"]
    ok = True
    for k in (1, 2):
        hits = _find(rows, p=7, k=k, M=5, theta="[2,4]", quotient="trivU:7")
        assert hits
        ok &= hits[0][1].case == "U-ii" and hits[0][1].equal
        hits = _find(rows, p=3, k=k, M=4, theta="[1,1]", variant="cusp0", quotient="trivU:2")
        assert hits
        ok &= hits[0][1].case == "U-iii" and hits[0][1].equal
    assert _verdict("criterion 4", ok)


def test_criterion_05_t2_theorem(grid_results):
    rows = grid_results["rows"]
    ok = True
    for k in (1, 2):
        hits = _find(rows, p=5, k=k, M=1, variant="cusp0", quotient="t2eis")
        assert hits
        ok &= hits[0][1].case == "T2" and hits[0][1].equal
    assert _verdict("criterion 5", ok)


def test_criterion_06_one_p_span(grid_results):
    """For every full-variant grid scenario with theta != omega^2 and M | f,
    where f is the conductor of theta omega^-2: the eigenspace equals C alone
    whenever theta omega^-2 is nontrivial on (Z/pZ)^x.  Otherwise f = M (case
    b): C + e_theta[1:p] has corank exactly one, and adjoining
    alpha(omega^2, theta omega^-2; M, 1) as well gives H.  The independent
    mod-7 model (manin_modp.py, test_manin_modp.py) finds the same lengths at
    N = 35: 7 of 8 with e_theta[1:p], 8 with both."""
    rows = grid_results["rows"]
    failures = []
    seen = set()
    for cfg, report, _ in rows:
        if report.variant != "full" or report.quotient != "none" or report.p < 5:
            continue
        if report.N != report.M * report.p:
            continue
        key = (report.p, report.k, report.M, report.theta)
        if key in seen:
            continue
        seen.add(key)
        ring = make_coeff_ring(report.p, report.k, unit_group(report.N).phi)
        theta = parse_theta(report.theta, report.N, report.p, ring)
        omega = teichmuller_character(report.M, report.p, ring)
        if theta == omega**2:
            continue
        f = (theta * omega**-2).conductor()
        if f % report.M:
            continue
        out = verify_cd_span_of_one_p(report.p, report.k, report.M, report.theta)
        where = f"(p={report.p},k={report.k},M={report.M},theta={report.theta})"
        if f == report.M:
            spans = _case_b_spans(report.p, report.k, report.M, report.theta)
            if spans["C+e1p"] != spans["H"] - 1:
                failures.append(f"{where}: C + e_theta[1:p] has length {spans['C+e1p']} of {spans['H']}, not corank one")
            if spans["C+e1p+aM1"] != spans["H"]:
                failures.append(f"{where}: C + e_theta[1:p] + alpha(omega^2,psi;M,1) != H")
        elif not out["with_one_p_equal"]:
            failures.append(f"{where}: C + e_theta[1:p] != H")
        if out["eta_nontrivial_at_p"] and not out["plain_equal"]:
            failures.append(f"{where}: C != H despite eta nontrivial at p")
    assert seen, "no applicable scenarios found"
    _verdict("criterion 6", not failures, "; ".join(failures))
    assert not failures, "; ".join(failures)


def test_criterion_07_identity_suites():
    report = run_properties(SEED, cases=100)
    needed = {
        "projected_symbol_expansion",
        "conductor_support_vanishing",
        "antisymmetry",
        "cd_scalar_identity",
        "bezout_splitting",
        "omega2_vanishing",
        "u_operator",
    }
    by_name = {s["name"]: s for s in report["suites"]}
    ok = needed <= set(by_name)
    for name in sorted(needed):
        suite = by_name[name]
        ok &= suite["cases"] >= 100 and not suite["failures"]
    ok &= report["all_passed"]
    assert _verdict("criterion 7", ok, f"suites={sorted(by_name)}")


def test_criterion_08_howell_oracle():
    def span_set(rows, pk, n):
        S = {(0,) * n}
        for r in rows:
            r = [int(x) % pk for x in r]
            S = {tuple((s[i] + c * r[i]) % pk for i in range(n)) for s in S for c in range(pk)}
        return S

    rng = random.Random(SEED)
    ok = True
    count = 0
    for p, k in ((2, 2), (2, 3), (3, 2), (5, 2)):
        ring = chain_ring(p, k)
        pk = p**k
        for _ in range(50):
            n = rng.randint(1, 4)
            nrows = rng.randint(0, 3)
            rows = [[rng.randrange(pk) for _ in range(n)] for _ in range(nrows)]
            sub = howell_form(rows, ring, ncols=n)
            ok &= span_set(rows, pk, n) == span_set([r[:, 0] for r in sub.rows], pk, n)
            shuffled = rows[:]
            rng.shuffle(shuffled)
            ok &= howell_form(shuffled, ring, ncols=n) == sub
            count += 1
    assert count == 200
    assert _verdict("criterion 8", ok, f"{count} matrices")


def test_criterion_09_nakayama_stability(grid_results):
    rows = grid_results["rows"]
    by_key = {}
    for cfg, report, _ in rows:
        key = (report.p, report.M, report.N, report.variant, report.theta, report.quotient)
        by_key.setdefault(key, {})[report.k] = report
    ok = True
    pairs = 0
    for key, reports in by_key.items():
        if 1 in reports and 2 in reports:
            pairs += 1
            ok &= reports[1].equal == reports[2].equal
            ok &= reports[1].case == reports[2].case
            ok &= reports[1].claim_ok == reports[2].claim_ok
    assert pairs >= 20
    assert _verdict("criterion 9", ok, f"{pairs} matched precision pairs")


def test_criterion_10_grid_time_and_determinism(grid_results, stable_payload):
    wall = grid_results["wall"]
    ok_time = wall < 900.0
    # byte-determinism: serialize run 1 with zeroed timings, rerun in stable
    # mode, compare the full payloads
    rows1 = []
    for cfg, report, _ in grid_results["rows"]:
        d = report.to_json_dict()
        d["millis"] = 0
        rows1.append(d)
    payload1 = json.dumps(
        {"reports": rows1, "summary": _grid_summary([r for _, r, _ in grid_results["rows"]], [])},
        indent=2,
    )
    ok = ok_time and payload1 == stable_payload
    assert _verdict("criterion 10", ok, f"wall={wall:.1f}s")


def test_acceptance_stable_output_matches_pinned_bytes(stable_payload):
    """The stable acceptance report is byte-identical to the pinned output
    of `cdsymbols grid --acceptance --stable`."""
    assert (stable_payload + "\n").encode() == PINNED_STABLE.read_bytes()
