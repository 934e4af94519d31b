"""Command-line scenario runner and report writer.

Subcommands:
  verify      run one scenario and emit its JSON report
  grid        run a declarative grid file (or the built-in acceptance grid)
  properties  run the seeded identity suites

Reports use a stable field order so they diff cleanly; `--stable` zeroes the
wall-clock field, which is the one non-deterministic entry, making report
bytes reproducible for a fixed seed and configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import sys

from .eigen import GenerationReport, check_generation
from .hecke import QuotientSpec
from .properties import SUITES, run_properties

WORKERS_ENV = "CDSYMBOLS_WORKERS"


def parse_quotient(text: str) -> QuotientSpec:
    """Parse 'trivU:5,7', 't2eis', 't2eis-global', or '+'-combinations.  At
    most one of the T2 modes t2eis, t2eis-global and t2eis-full may appear."""
    if not text or text == "none":
        return QuotientSpec()
    trivial: list[int] = []
    t2_mode = None
    for part in text.split("+"):
        part = part.strip()
        if part.startswith("trivU:"):
            body = part[len("trivU:") :]
            try:
                trivial.extend(int(x) for x in body.split(",") if x)
            except ValueError:
                raise ValueError(f"bad trivU prime list in {part!r}") from None
        elif part in ("t2eis", "t2eis-global", "t2eis-full"):
            if t2_mode is not None:
                raise ValueError(f"conflicting T2 conditions {t2_mode!r} and {part!r}")
            t2_mode = part
        else:
            raise ValueError(f"unknown quotient condition {part!r}")
    return QuotientSpec(
        trivial_u=tuple(trivial),
        t2=t2_mode is not None,
        t2_global=t2_mode == "t2eis-global",
        t2_allow_full=t2_mode == "t2eis-full",
    )


def _add_scenario_args(p: argparse.ArgumentParser):
    p.add_argument("--p", type=int, required=True, help="odd prime p")
    p.add_argument("--k", type=int, default=1, help="coefficient precision exponent")
    p.add_argument("--M", type=int, required=True, help="tame level M with p prime to M*phi(M)")
    p.add_argument("--level", choices=("M", "Mp"), default="Mp", help="level selector")
    p.add_argument("--variant", choices=("full", "cusp0"), default="full")
    p.add_argument("--theta", required=True, help="character specifier, e.g. [1,0] or omega^2*quad@5")
    p.add_argument("--quotient", default="none", help="trivU:L1,L2 and/or t2eis, joined by '+'")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--cd-exhaustive", action="store_true", help="exhaustive class enumeration (default)")
    group.add_argument("--cd-bound", type=int, default=None, help="restrict c,d residues to values <= B (marks the report non-exhaustive)")


def run_config(config: dict) -> GenerationReport:
    """Execute one scenario described by a plain dict (picklable for the
    worker pool)."""
    report = check_generation(
        config["p"],
        config["k"],
        config["M"],
        config["level"],
        config["variant"],
        config["theta"],
        parse_quotient(config.get("quotient", "none")),
        cd_bound=config.get("cd_bound"),
    )
    if config.get("stable"):
        report.millis = 0
    return report


def _config_from_namespace(ns) -> dict:
    return {
        "p": ns.p,
        "k": ns.k,
        "M": ns.M,
        "level": ns.level,
        "variant": ns.variant,
        "theta": ns.theta,
        "quotient": ns.quotient,
        "cd_bound": ns.cd_bound,
    }


CSV_FIELDS = [
    "p",
    "k",
    "M",
    "N",
    "variant",
    "theta",
    "quotient",
    "cd",
    "case",
    "dim_H_theta",
    "dim_C_theta",
    "extras",
    "divisors",
    "equal",
    "millis",
]


def _csv_row(r: GenerationReport) -> dict:
    return {
        "p": r.p,
        "k": r.k,
        "M": r.M,
        "N": r.N,
        "variant": r.variant,
        "theta": r.theta,
        "quotient": r.quotient,
        "cd": r.cd,
        "case": r.case,
        "dim_H_theta": r.dim_H,
        "dim_C_theta": r.dim_C,
        "extras": ";".join(r.extras),
        "divisors": ";".join(r.divisors),
        "equal": str(r.equal).lower(),
        "millis": r.millis,
    }


def _write_csv(path: str, reports) -> None:
    import csv  # only the CSV mirror needs it; verify and grid load without it

    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        w.writeheader()
        for r in reports:
            w.writerow(_csv_row(r))


def acceptance_grid() -> list[str]:
    """The default verification grid covering the desk-scale theorem cases."""
    lines = []
    for k in (1, 2):
        for theta in ("[0]", "[2]"):
            lines.append(f"--p 5 --k {k} --M 1 --theta {theta}")
            lines.append(f"--p 5 --k {k} --M 1 --variant cusp0 --theta {theta}")
        for theta in ("[0]", "[2]", "[4]"):
            lines.append(f"--p 7 --k {k} --M 1 --theta {theta}")
        for t1 in range(4):
            for t2 in range(6):
                if ((-1) ** t1) * ((-1) ** t2) != 1:
                    continue  # even characters mod 35 only
                lines.append(f"--p 7 --k {k} --M 5 --theta [{t1},{t2}]")
        for theta in ("[0,0]", "[1,1]"):
            lines.append(f"--p 3 --k {k} --M 4 --theta {theta}")
        lines.append(f"--p 3 --k {k} --M 4 --variant cusp0 --theta [1,1]")
        # strengthened checks through Hecke-type quotients
        lines.append(f"--p 7 --k {k} --M 5 --theta omega^2*quad@5 --quotient trivU:7")
        lines.append(f"--p 7 --k {k} --M 1 --theta [0] --quotient trivU:7")
        lines.append(f"--p 3 --k {k} --M 4 --variant cusp0 --theta [1,1] --quotient trivU:2")
        lines.append(f"--p 5 --k {k} --M 1 --variant cusp0 --theta omega^2 --quotient t2eis")
        # a level-M scenario (no theorem case applies; reported descriptively)
        lines.append(f"--p 7 --k {k} --M 5 --level M --theta [0]")
    return lines


def _parse_grid_line(line: str, parser: argparse.ArgumentParser) -> dict:
    ns = parser.parse_args(shlex.split(line))
    return _config_from_namespace(ns)


def _grid_summary(reports, errors) -> dict:
    by_case: dict[str, int] = {}
    passed = failed = uncovered = 0
    for r in reports:
        by_case[r.case] = by_case.get(r.case, 0) + 1
        if r.claim_ok is None:
            uncovered += 1
        elif r.claim_ok:
            passed += 1
        else:
            failed += 1
    return {
        "scenarios": len(reports) + len(errors),
        "by_case": dict(sorted(by_case.items())),
        "claims_passed": passed,
        "claims_failed": failed,
        "uncovered": uncovered,
        "errors": len(errors),
    }


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _suite_names(text: str) -> list[str]:
    names, valid = text.split(",") if text else [], [s.name for s in SUITES]
    unknown = [n for n in names if n not in valid]
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown suite {unknown[0]!r}; valid: {', '.join(valid)}")
    return names


def _worker_count(ns) -> int:
    """Workers from --workers, else $CDSYMBOLS_WORKERS, else 1; clamped to
    [1, os.cpu_count()]."""
    workers = getattr(ns, "workers", None)
    if workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        try:
            workers = int(env) if env else 1
        except ValueError:
            raise ValueError(f"{WORKERS_ENV} must be an integer, got {env!r}") from None
    return max(1, min(workers, os.cpu_count() or 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cdsymbols",
        description="verify generation of modular-symbol eigenspaces by (c,d)-symbols",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a single scenario")
    _add_scenario_args(pv)
    pv.add_argument("--out", help="write the JSON report to this path")
    pv.add_argument("--csv", help="write a one-row CSV mirror to this path")
    pv.add_argument("--assert", dest="assert_mode", action="store_true",
                    help="exit nonzero if the scenario's asserted identity fails")
    pv.add_argument("--stable", action="store_true", help="zero the millis field for byte-stable output")

    pg = sub.add_parser("grid", help="run a grid of scenarios")
    src = pg.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="file with one scenario per line (verify flags)")
    src.add_argument("--acceptance", action="store_true", help="run the built-in acceptance grid")
    pg.add_argument("--out", help="write the JSON report collection to this path")
    pg.add_argument("--csv", help="write the CSV mirror to this path")
    pg.add_argument("--assert", dest="assert_mode", action="store_true")
    pg.add_argument("--stable", action="store_true")
    pg.add_argument("--workers", type=_positive_int, default=None,
                    help=f"worker processes, at most the CPU count (default: ${WORKERS_ENV} or 1)")

    pp = sub.add_parser("properties", help="run the seeded identity suites")
    pp.add_argument("--seed", type=int, default=0)
    pp.add_argument("--cases", type=_positive_int, default=25, help="randomized cases per suite")
    pp.add_argument("--out", help="write the JSON report to this path")
    pp.add_argument("--suites", type=_suite_names, help="comma-separated subset of suite names")

    ns = parser.parse_args(argv)

    if ns.command == "verify":
        config = _config_from_namespace(ns)
        config["stable"] = ns.stable
        try:
            report = run_config(config)
        except (ValueError, ArithmeticError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        payload = json.dumps(report.to_json_dict(), indent=2) + "\n"
        if ns.out:
            with open(ns.out, "w") as fh:
                fh.write(payload)
        if ns.csv:
            _write_csv(ns.csv, [report])
        sys.stdout.write(payload)
        if ns.assert_mode and report.claim_ok is False:
            print("assertion failed: claimed identity does not hold", file=sys.stderr)
            return 1
        return 0

    if ns.command == "grid":
        line_parser = argparse.ArgumentParser(prog="grid-line", add_help=False)
        _add_scenario_args(line_parser)
        if ns.acceptance:
            lines = acceptance_grid()
        else:
            with open(ns.config) as fh:
                lines = [ln.strip() for ln in fh if ln.strip() and not ln.strip().startswith("#")]
        configs = []
        for line in lines:
            cfg = _parse_grid_line(line, line_parser)
            cfg["stable"] = ns.stable
            configs.append(cfg)
        try:
            workers = _worker_count(ns)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        reports: list = []
        errors: list[dict] = []
        if workers > 1:
            import concurrent.futures  # only a worker pool needs it

            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_run_config_safe, configs))
        else:
            results = [_run_config_safe(c) for c in configs]
        rows = []
        for cfg, (report, err) in zip(configs, results):
            if err is not None:
                errors.append({"config": {k: v for k, v in cfg.items() if k != "stable"}, "error": err})
                rows.append({"error": err, "config": {k: v for k, v in cfg.items() if k != "stable"}})
            else:
                reports.append(report)
                rows.append(report.to_json_dict())
        summary = _grid_summary(reports, errors)
        payload = json.dumps({"reports": rows, "summary": summary}, indent=2) + "\n"
        if ns.out:
            with open(ns.out, "w") as fh:
                fh.write(payload)
        if ns.csv:
            _write_csv(ns.csv, reports)
        sys.stdout.write(payload)
        if ns.assert_mode and (summary["claims_failed"] or errors):
            return 1
        return 0

    if ns.command == "properties":
        report = run_properties(ns.seed, cases=ns.cases, suites=ns.suites or None)
        payload = json.dumps(report, indent=2) + "\n"
        if ns.out:
            with open(ns.out, "w") as fh:
                fh.write(payload)
        sys.stdout.write(payload)
        return 0 if report["all_passed"] else 1

    return 2


def _run_config_safe(config: dict):
    try:
        return run_config(config), None
    except Exception as exc:  # recorded per row, never fatal to the grid
        return None, f"{type(exc).__name__}: {exc}"


if __name__ == "__main__":
    sys.exit(main())
