"""Regenerate reference.json: the report of every scenario any seed can draw
for any workload, with `millis` zeroed.  The benchmark counts a report that
differs from its pinned reference as failed, so regenerate only when a
change of verdict bytes is intended and explained.

    python3 perfbench/make_reference.py      # from the repository root
"""

import json
import time

import workloads
from run import REFERENCE, run_child


def main() -> None:
    entries = {}
    for name in workloads.WORKLOADS:
        scenarios = workloads.candidates(name)
        _, result = run_child(scenarios, False, deadline=time.monotonic() + 3600)
        for s, r in zip(scenarios, result["results"], strict=True):
            if r["error"] is not None:
                raise SystemExit(f"{workloads.key(s)}: {r['error']}")
            entries[workloads.key(s)] = dict(r["report"], millis=0)
        print(f"{name}: {len(scenarios)} scenarios in {result['wall_s']:.1f} s", flush=True)
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in entries.items()]
    REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
