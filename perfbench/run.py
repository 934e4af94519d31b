"""cdsymbols benchmark: time to verdict for grids of generation scenarios.

Run from the repository root:

    python3 perfbench/run.py --workload deficit35 --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Each pass runs the workload's scenario list in a fresh interpreter (child.py),
so the engine's caches start cold, as for a user's `cdsymbols grid` run.  It
is a closed loop with one client: the next scenario starts only when
`cdsymbols.cli.run_config` has returned.  Passes repeat while the next one is
expected to end within --seconds (at least one pass).  Every report is
checked against reference.json; an exception or a differing report counts
as failed.  With --trace 1 each untraced pass is paired with a traced one,
and the per-layer metrics come from the traced passes.

The last stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  The lines before it are a readable summary, and the full record
(per-scenario times, spans, environment) goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads
from tracer import LAYER_METRICS, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
RESULTS = BENCH / "results"

SETUP_PROBES = 9
# A run must exit within 180 s; no pass is started that is expected to end
# after this many seconds, and a child still running then is killed.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    """Pinned child environment: one numeric thread, no engine worker pool,
    bytecode cached as for an installed package, and the checkout's own
    sources."""
    env = dict(os.environ)
    env.pop("CDSYMBOLS_WORKERS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        PYTHONPATH=str(SRC),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def run_child(scenarios: list[dict], trace: bool, deadline: float):
    """Launch one child; return (set-up seconds, result dict or None)."""
    job = json.dumps({"scenarios": scenarios, "trace": trace})
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py")],
        cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        proc.stdin.write(job)
        proc.stdin.close()
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not ready.startswith("ready "):
        raise BenchError(f"benchmark child exited with code {proc.returncode}")
    imported = Path(ready.split(" ", 1)[1].strip()).resolve()
    if SRC.resolve() not in imported.parents:
        raise BenchError(f"cdsymbols was imported from {imported}, not from {SRC}")
    if not scenarios:
        return setup, None
    return setup, json.loads(rest.strip().splitlines()[-1])


def environment() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "child_env": {k: child_env().get(k) for k in
                      ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "PYTHONHASHSEED")},
    }


def traffic(scenarios: list[dict]) -> dict:
    """Static properties of the scenario list, from public engine functions."""
    from cdsymbols import enumerate_symbols, make_coeff_ring, unit_group

    levels = [s["M"] * (s["p"] if s["level"] == "Mp" else 1) for s in scenarios]
    n = len(scenarios)
    degrees = [make_coeff_ring(s["p"], s["k"], unit_group(N).phi).m
               for s, N in zip(scenarios, levels)]
    return {
        "scenarios": n,
        "share_m_gt_1": sum(m > 1 for m in degrees) / n,
        "share_p_not_dividing_N": sum(N % s["p"] != 0 for s, N in zip(scenarios, levels)) / n,
        "share_quotient": sum(s["quotient"] != "none" for s in scenarios) / n,
        "distinct_levels": len(set(levels)),
        "total_nsym": sum(len(enumerate_symbols(N, s["variant"])) for s, N in zip(scenarios, levels)),
    }


def check(scenarios, passes, reference) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every pass against the reference."""
    attempted = failed = 0
    problems = []
    for p in passes:
        for s, r in zip(scenarios, p["results"], strict=True):
            attempted += 1
            name = workloads.key(s)
            want = reference.get(name)
            if r["error"] is not None:
                problem = r["error"]
            elif want is None:
                problem = "no pinned reference"
            elif dict(r["report"], millis=0) != want:
                problem = "report differs from the pinned reference"
            else:
                continue
            failed += 1
            problems.append(f"{name}: {problem}")
    return attempted, failed, problems


def stable_reports(p: dict) -> list:
    return [r["report"] and dict(r["report"], millis=0) for r in p["results"]]


def bench_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    scenarios = workloads.draw(name, seed)
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    run_child([], False, deadline)  # untimed: compiles bytecode on a fresh checkout
    setups = [] if trace else [run_child([], False, deadline)[0] for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    t_begin = time.monotonic()
    while True:
        t_pass = time.monotonic()
        setup, result = run_child(scenarios, False, deadline)
        setups.append(setup)
        plain.append(result)
        if trace:
            traced.append(run_child(scenarios, True, deadline)[1])
        now = time.monotonic()
        last = now - t_pass
        if now - t_begin + last > seconds or now + last > deadline:
            break
    attempted, failed, problems = check(scenarios, plain + traced, reference)
    same = all(stable_reports(t) == stable_reports(p) for p, t in zip(plain, traced))
    wall = statistics.median(p["wall_s"] for p in plain)
    if trace:
        per_pass = [layer_metrics(t["trace"]) for t in traced]
        values = {m: statistics.median(v[m] for v in per_pass) for m in LAYER_METRICS}
        values["trace.overhead_s"] = statistics.median(t["wall_s"] for t in traced) - wall
        units = dict(LAYER_METRICS, **{"trace.overhead_s": "s"})
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["maxrss_kb"] for p in plain) / 1024,
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "traffic": traffic(scenarios),
        "scenarios": [workloads.key(s) for s in scenarios],
        "passes": len(plain),
        "setup_samples": setups,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        # reported, not gated: a single scenario is too short to time steadily
        "slowest_s": statistics.median(max(r["seconds"] for r in p["results"]) for p in plain),
        "traced_reports_match": same,
        "problems": problems,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
        "per_scenario": [
            [{"seconds": r["seconds"], "millis": r["report"] and r["report"]["millis"]}
             for r in p["results"]] for p in plain
        ],
        "missing_layers": traced[0]["trace"]["missing"] if traced else [],
        "spans": traced[0]["trace"]["spans"] if traced else [],
    }
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh)
    return record


def summarize(rec: dict) -> None:
    env, tr = rec["environment"], rec["traffic"]
    print(f"workload {rec['workload']}  seed {rec['seed']}  trace {int(rec['trace'])}  "
          f"passes {rec['passes']}  scenarios per pass {tr['scenarios']}")
    print(f"  environment: python {env['python']}, numpy {env['numpy']}, "
          f"nproc {env['nproc']}, cpu {env['cpu']}")
    print(f"  traffic: m>1 {tr['share_m_gt_1']:.3f}, p does not divide N "
          f"{tr['share_p_not_dividing_N']:.3f}, quotient {tr['share_quotient']:.3f}, "
          f"distinct levels {tr['distinct_levels']}, total nsym {tr['total_nsym']}")
    for m, v in rec["metrics"].items():
        samples = len(rec["setup_samples"]) if m == "setup_s" else rec["passes"]
        print(f"  {m:30s} {v['value']:14.6g} {v['unit']:6s} median of {samples}")
    print(f"  {'slowest_s':30s} {rec['slowest_s']:14.6g} {'s':6s} median of {rec['passes']}")
    print(f"  {'failed_frac':30s} {rec['failed_frac']:14.6g} {'':6s} "
          f"{rec['failed']} of {rec['attempted']} attempted")
    if rec["trace"]:
        print(f"  traced reports identical to untraced: {rec['traced_reports_match']}")
        print(f"  missing layers: {', '.join(rec['missing_layers']) or 'none'}")
    for problem in rec["problems"][:20]:
        print(f"  FAILED {problem}")


def main(argv=None) -> int:
    names = list(workloads.WORKLOADS)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if not (SRC / "cdsymbols" / "cli.py").is_file():
        print(f"error: no cdsymbols sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # for the traffic properties
    chosen = names if ns.workload == "all" else [ns.workload]
    try:
        records = [bench_workload(w, ns.seed, ns.seconds, bool(ns.trace)) for w in chosen]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for rec in records:
        summarize(rec)
    prefix = len(records) > 1
    metrics = {
        (f"{rec['workload']}.{m}" if prefix else m): v
        for rec in records for m, v in rec["metrics"].items()
    }
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    correct = failed == 0 and all(r["traced_reports_match"] for r in records)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
