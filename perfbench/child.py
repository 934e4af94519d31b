"""One benchmark pass in a fresh interpreter, so every engine cache starts
cold.

Protocol: the parent writes a JSON job {"scenarios": [...], "trace": bool}
to stdin.  The child imports `cdsymbols.cli` (the set-up being timed),
prints "ready <path of cdsymbols>" and then runs the scenarios in order,
one `cli.run_config` call at a time, timing each call from outside.  The
last stdout line is the JSON result.  A job with no scenarios is a set-up
probe.
"""

import sys

import cdsymbols.cli

print("ready", cdsymbols.cli.__file__, flush=True)

import json
import resource
import time


def main() -> None:
    job = json.load(sys.stdin)
    if not job["scenarios"]:
        return
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    t_begin = time.perf_counter()
    for i, s in enumerate(job["scenarios"]):
        root = tracer.begin_scenario(i) if tracer else None
        t0 = time.perf_counter()
        try:
            report, error = cdsymbols.cli.run_config(dict(s, cd_bound=None)).to_json_dict(), None
        except Exception as exc:  # counted as a failure by the parent
            report, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if tracer:
            tracer.close(root)
        results.append({"seconds": seconds, "report": report, "error": error})
    wall = time.perf_counter() - t_begin
    out = {
        "wall_s": wall,
        "results": results,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.dump() if tracer else None,
    }
    sys.stdout.write("\n" + json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
