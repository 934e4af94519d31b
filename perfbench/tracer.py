"""Outside-in per-layer tracing for the cdsymbols benchmark.

The tracer replaces module and class attributes that the engine looks up at
call time (the names `eigen._generation_core` and
`hecke.check_generation_with_quotient` call through) with wrappers that
record a span or bump a counter, then call the original.  Nothing under
src/ is edited.  A name that no longer exists is recorded as a missing layer
and left alone, so a refactor that renames a layer shows up in the output
instead of crashing the benchmark.

Spans carry (id, parent, scenario, name, start_ns, end_ns, counts); counts
land on the innermost open span.  A layer's self time is its spans'
durations minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module, attribute path, layer).  One layer may be reached through
# several bindings of the same function.
SPANS = (
    ("cdsymbols.eigen", "make_coeff_ring", "rings.make_coeff_ring"),
    ("cdsymbols.rings", "make_coeff_ring", "rings.make_coeff_ring"),
    ("cdsymbols.eigen", "parse_theta", "characters.parse_theta"),
    ("cdsymbols.eigen", "build_presentation", "symbols.build_presentation"),
    ("cdsymbols.hecke", "build_presentation", "symbols.build_presentation"),
    ("cdsymbols.hecke", "quotient_rows", "hecke.quotient_rows"),
    ("cdsymbols.eigen", "build_eigen_context", "eigen.context"),
    ("cdsymbols.eigen", "_relations_accumulator", "linalg.relations"),
    ("cdsymbols.eigen", "EigenContext.htheta_target", "eigen.htheta_target"),
    ("cdsymbols.eigen", "cd_span", "eigen.cd_span"),
    ("cdsymbols.eigen", "eigensymbol", "eigen.extras"),
    ("cdsymbols.eigen", "elementary_divisors", "linalg.elementary_divisors"),
    ("cdsymbols.linalg", "HowellAccumulator.finalize", "linalg.finalize"),
)

# Hot calls get counters only: a span per Howell insertion would cost more
# than the insertion's bookkeeping is worth.
COUNTERS = (
    ("cdsymbols.linalg", "HowellAccumulator.add", "add"),
    ("cdsymbols.rings", "CoeffRing.vscale", "vscale"),
)

# Per-layer metrics the benchmark reports: name -> unit.
LAYER_METRICS = {
    "rings.make_coeff_ring.s": "s",
    "rings.vscale.calls": "count",
    "rings.vscale.mults": "count",
    "characters.parse_theta.s": "s",
    "symbols.build_presentation.s": "s",
    "symbols.nsym": "count",
    "symbols.relation_rows": "count",
    "hecke.quotient_rows.s": "s",
    "hecke.quotient_rows.rows": "count",
    "linalg.relations.s": "s",
    "linalg.finalize.s": "s",
    "linalg.elementary_divisors.s": "s",
    "linalg.add.calls": "count",
    "linalg.add.grew": "count",
    "eigen.context.s": "s",
    "eigen.context.cold": "count",
    "eigen.htheta_target.s": "s",
    "eigen.cd_span.s": "s",
    "eigen.cd_span.adds": "count",
    "eigen.cd_span.grew": "count",
    "eigen.cd_span.useful_ratio": "ratio",
    "eigen.extras.s": "s",
    "eigen.extras.calls": "count",
}


def _resolve(module: str, path: str):
    """(owner, attribute name) for module:path, or None if any part is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, name):
        return None
    return owner, name


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.scenario = -1
        self.missing: list[str] = []
        # per scenario: the presented space's nsym and relation row count
        self.spaces: dict[int, tuple[int, int]] = {}

    def open(self, name: str) -> list:
        parent = self.stack[-1][0] if self.stack else None
        span = [len(self.spans), parent, self.scenario, name, time.perf_counter_ns(), 0, {}]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[5] = time.perf_counter_ns()
        self.stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        if self.stack:
            counts = self.stack[-1][6]
            counts[key] = counts.get(key, 0) + n

    def begin_scenario(self, index: int) -> list:
        self.scenario = index
        return self.open("scenario")

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        for module, path, layer in SPANS:
            self._wrap(module, path, functools.partial(self._span_wrapper, layer))
        for module, path, kind in COUNTERS:
            self._wrap(module, path, getattr(self, f"_{kind}_wrapper"))

    def _wrap(self, module: str, path: str, make_wrapper) -> None:
        target = _resolve(module, path)
        if target is None:
            self.missing.append(f"{module}.{path}")
            return
        owner, name = target
        original = getattr(owner, name)
        setattr(owner, name, functools.wraps(original)(make_wrapper(original)))

    def _span_wrapper(self, layer: str, fn):
        def wrapper(*args, **kwargs):
            span = self.open(layer)
            try:
                result = fn(*args, **kwargs)
                if layer == "symbols.build_presentation":
                    rows = getattr(result, "relation_rows", ())
                    self.spaces[self.scenario] = (getattr(result, "nsym", 0), len(rows))
                elif layer == "hecke.quotient_rows":
                    self.count("rows", len(result))
            finally:
                self.close(span)
            return result

        return wrapper

    def _add_wrapper(self, fn):
        def add(acc, *args, **kwargs):
            grew = fn(acc, *args, **kwargs)
            self.count("add.calls")
            if grew:
                self.count("add.grew")
            return grew

        return add

    def _vscale_wrapper(self, fn):
        def vscale(ring, row, *args, **kwargs):
            self.count("vscale.calls")
            rows = len(row)
            m = getattr(ring, "m", 1)
            self.count("vscale.mults", rows * m**3 if m > 1 else rows)
            return fn(ring, row, *args, **kwargs)

        return vscale

    def dump(self) -> dict:
        return {"spans": self.spans, "missing": self.missing,
                "spaces": sorted(self.spaces.items())}


def layer_metrics(trace: dict) -> dict:
    """Per-layer values (without trace.overhead_s) from a dumped trace."""
    spans = trace["spans"]
    covered = [0] * len(spans)
    for sid, parent, _, _, start, end, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    counts: dict[str, dict[str, int]] = {}
    for sid, _, _, name, start, end, c in spans:
        self_ns[name] = self_ns.get(name, 0) + (end - start) - covered[sid]
        calls[name] = calls.get(name, 0) + 1
        bucket = counts.setdefault(name, {})
        for k, v in c.items():
            bucket[k] = bucket.get(k, 0) + v

    def total(key: str) -> int:
        return sum(c.get(key, 0) for c in counts.values())

    cold = sum(1 for s in spans if s[3] == "linalg.relations" and s[6].get("add.calls"))
    cd = counts.get("eigen.cd_span", {})
    adds, grew = cd.get("add.calls", 0), cd.get("add.grew", 0)
    out = {}
    for metric in LAYER_METRICS:
        layer, _, stat = metric.rpartition(".")
        if stat == "s":
            out[metric] = self_ns.get(layer, 0) / 1e9
    out.update({
        "rings.vscale.calls": total("vscale.calls"),
        "rings.vscale.mults": total("vscale.mults"),
        "symbols.nsym": sum(n for _, (n, _) in trace["spaces"]),
        "symbols.relation_rows": sum(r for _, (_, r) in trace["spaces"]),
        "hecke.quotient_rows.rows": counts.get("hecke.quotient_rows", {}).get("rows", 0),
        "linalg.add.calls": total("add.calls"),
        "linalg.add.grew": total("add.grew"),
        "eigen.context.cold": cold,
        "eigen.cd_span.adds": adds,
        "eigen.cd_span.grew": grew,
        "eigen.cd_span.useful_ratio": grew / adds if adds else 0.0,
        "eigen.extras.calls": calls.get("eigen.extras", 0),
    })
    return out
