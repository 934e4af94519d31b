import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cdsymbols.cli import _worker_count, acceptance_grid, main, parse_quotient
from cdsymbols.hecke import QuotientSpec

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(args, **kw):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "cdsymbols.cli", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        **kw,
    )


def test_parse_quotient():
    assert parse_quotient("none") == QuotientSpec()
    assert parse_quotient("trivU:5,7") == QuotientSpec(trivial_u=(5, 7))
    assert parse_quotient("trivU:7+t2eis") == QuotientSpec(trivial_u=(7,), t2=True)
    assert parse_quotient("t2eis-global") == QuotientSpec(t2=True, t2_global=True)
    with pytest.raises(ValueError):
        parse_quotient("hida")


@pytest.mark.parametrize(
    "text,first,second",
    [
        ("t2eis-global+t2eis", "t2eis-global", "t2eis"),
        ("t2eis-global+t2eis-full", "t2eis-global", "t2eis-full"),
        ("t2eis+trivU:5+t2eis-full", "t2eis", "t2eis-full"),
    ],
)
def test_parse_quotient_rejects_conflicting_t2_modes(text, first, second):
    with pytest.raises(ValueError, match=f"conflicting T2 conditions '{first}' and '{second}'"):
        parse_quotient(text)
    code = main(["verify", "--p", "5", "--k", "1", "--M", "1", "--theta", "[0]", "--quotient", text])
    assert code == 2


def test_verify_json_schema_and_field_order(tmp_path):
    out = tmp_path / "r.json"
    csvp = tmp_path / "r.csv"
    code = main([
        "verify", "--p", "5", "--k", "1", "--M", "1", "--theta", "[0]",
        "--out", str(out), "--csv", str(csvp), "--stable",
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert list(payload) == ["params", "case", "dims", "extras", "divisors", "equal", "millis"]
    assert list(payload["params"]) == ["p", "k", "M", "N", "variant", "theta", "quotient", "cd"]
    assert payload["case"] == "a" and payload["equal"] is True
    assert payload["millis"] == 0
    header = csvp.read_text().splitlines()[0]
    assert header.startswith("p,k,M,N,variant,theta,quotient,cd,case,")


def test_verify_assert_mode_exit_codes(tmp_path, capsys):
    # passing claim
    assert main(["verify", "--p", "5", "--k", "1", "--M", "1", "--theta", "[0]", "--assert"]) == 0
    # uncovered scenario never fails assertion
    assert main(["verify", "--p", "5", "--k", "1", "--M", "1", "--theta", "omega^2", "--assert"]) == 0
    # a failing asserted identity exits nonzero (the conductor-M regime)
    assert main(["verify", "--p", "7", "--k", "1", "--M", "5", "--theta", "omega^2*quad@5", "--assert"]) == 1
    capsys.readouterr()


def test_verify_rejects_bad_config():
    r = run_cli(["verify", "--p", "5", "--k", "1", "--M", "11", "--theta", "[0]"])
    assert r.returncode == 2
    assert "phi" in r.stderr
    r2 = run_cli(["verify", "--p", "5", "--k", "1", "--M", "1", "--theta", "nonsense"])
    assert r2.returncode == 2


@pytest.mark.parametrize("args,message", [
    (["--p", "3", "--M", "3"], "error: p divides M*phi(M): p=3, M=3, phi(M)=2\n"),
    (["--p", "5", "--M", "2", "--level", "M"], "error: level N = 2 must be at least 4\n"),
])
def test_quotient_path_validates_the_scenario_first(args, message, capsys):
    for quotient in ("none", "trivU:2"):
        assert main(["verify", *args, "--theta", "[0]", "--quotient", quotient]) == 2
        assert capsys.readouterr().err == message


def test_cd_exhaustive_spells_the_default(capsys):
    args = ["verify", "--p", "5", "--k", "2", "--M", "1", "--theta", "[2]", "--stable"]
    assert main(args) == 0
    default = capsys.readouterr().out
    assert main(args + ["--cd-exhaustive"]) == 0
    assert capsys.readouterr().out == default
    assert '"cd": "exhaustive"' in default


@pytest.mark.parametrize("M,level,theta", [(9, "M", "[2]"), (5, "Mp", "[2,4]")])
def test_cd_bound_below_every_unit_is_rejected(M, level, theta, capsys):
    """A bound below 1 leaves no residue class, whether or not cd_span forms
    a stream (p = 7 does not divide N = 9, and divides N = 35)."""
    args = ["verify", "--p", "7", "--k", "1", "--M", str(M), "--level", level, "--theta", theta]
    assert main(args + ["--cd-bound", "0"]) == 2
    assert capsys.readouterr().err == "error: cd bound excludes every residue class\n"


def test_verify_rejects_precision_beyond_int64_bound(capsys):
    assert main(["verify", "--p", "3", "--k", "20", "--M", "4", "--theta", "[0,0]"]) == 2
    assert "2^63" in capsys.readouterr().err


def test_grid_runs_config_file(tmp_path):
    cfg = tmp_path / "grid.txt"
    cfg.write_text(
        "# demo grid\n"
        "--p 5 --k 1 --M 1 --theta [0]\n"
        "--p 5 --k 1 --M 1 --theta [2]\n"
        "--p 5 --k 1 --M 11 --theta [0]\n"  # invalid scenario: recorded, not fatal
    )
    out = tmp_path / "grid.json"
    code = main(["grid", "--config", str(cfg), "--out", str(out), "--stable"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["summary"]["scenarios"] == 3
    assert payload["summary"]["errors"] == 1
    assert payload["summary"]["claims_passed"] >= 1
    assert any("error" in row for row in payload["reports"])
    # assert mode turns the recorded error into a nonzero exit
    assert main(["grid", "--config", str(cfg), "--stable", "--assert"]) == 1


def test_grid_empty_config(tmp_path):
    cfg = tmp_path / "empty.txt"
    cfg.write_text("# nothing here\n")
    out = tmp_path / "empty.json"
    assert main(["grid", "--config", str(cfg), "--out", str(out), "--stable"]) == 0
    payload = json.loads(out.read_text())
    assert payload["reports"] == [] and payload["summary"]["scenarios"] == 0


def test_grid_deterministic_bytes(tmp_path):
    cfg = tmp_path / "grid.txt"
    cfg.write_text("--p 5 --k 1 --M 1 --theta [0]\n--p 5 --k 2 --M 1 --theta [2]\n")
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["grid", "--config", str(cfg), "--out", str(out1), "--stable"]) == 0
    assert main(["grid", "--config", str(cfg), "--out", str(out2), "--stable"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verdict_path_does_not_import_numpy_ma():
    """A plain np.unique imports numpy.ma on first use; the verdict path
    makes none, so a deficit scenario at N = 35 leaves it unimported."""
    code = (
        "import sys\n"
        "from cdsymbols.cli import run_config\n"
        "run_config({'p': 7, 'k': 1, 'M': 5, 'level': 'Mp', 'variant': 'full', 'theta': '[2,4]'})\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    r = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path)
    )
    assert (r.returncode, r.stdout) == (0, "False\n"), r.stderr


def test_grid_worker_pool_subprocess(tmp_path):
    cfg = tmp_path / "grid.txt"
    cfg.write_text("--p 5 --k 1 --M 1 --theta [0]\n--p 7 --k 1 --M 1 --theta [0]\n")
    out = tmp_path / "par.json"
    r = run_cli(["grid", "--config", str(cfg), "--out", str(out), "--stable", "--workers", "2"])
    assert r.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["summary"]["scenarios"] == 2 and payload["summary"]["errors"] == 0
    # order follows the config file regardless of completion order
    assert [row["params"]["p"] for row in payload["reports"]] == [5, 7]


def test_worker_count_is_clamped_and_validated(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert _worker_count(argparse.Namespace(workers=1)) == 1
    assert _worker_count(argparse.Namespace(workers=10**6)) == 2
    cfg = tmp_path / "grid.txt"
    cfg.write_text("--p 5 --k 1 --M 1 --theta [0]\n")
    for bad in ("0", "-3", "x"):
        with pytest.raises(SystemExit) as exc:
            main(["grid", "--config", str(cfg), "--workers", bad])
        assert exc.value.code == 2


def test_grid_config_that_cannot_be_read_is_an_error(tmp_path, capsys):
    """A missing grid file exits 2 with a one-line message, not a traceback
    with the exit code of a failed --assert."""
    missing = tmp_path / "missing.grid"
    assert main(["grid", "--config", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err and "Traceback" not in err


@pytest.mark.parametrize("extra,message", [
    (["--quotient", "trivU:"], "empty trivU prime list in 'trivU:'"),
    (["--quotient", "trivU:7+trivU:"], "empty trivU prime list in 'trivU:'"),
    (["--theta", "chi@0"], "chi@0: 0 is not a unitary divisor of 35"),
    (["--theta", "chi@-5"], "chi@-5: -5 is not a unitary divisor of 35"),
])
def test_malformed_quotient_and_theta_are_rejected(extra, message, capsys):
    """An empty trivU prime list is not read as no quotient, and chi@D checks
    that D is a unitary divisor before it reduces by D (the later flag wins)."""
    assert main(["verify", "--p", "7", "--M", "5", "--theta", "[0,0]", *extra]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_properties_report_matches_pinned_bytes(tmp_path, capsys):
    """`cdsymbols properties --seed 0 --cases 25` reproduces its pinned report."""
    out = tmp_path / "props.json"
    assert main(["properties", "--seed", "0", "--cases", "25", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (Path(__file__).parent / "data" / "properties_stable.json").read_bytes()


def test_properties_cli_deterministic(tmp_path):
    out1, out2 = tmp_path / "p1.json", tmp_path / "p2.json"
    args = ["properties", "--seed", "7", "--cases", "3",
            "--suites", "howell_oracle,ring_invariants"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["seed"] == 7 and payload["all_passed"] is True


@pytest.mark.parametrize("args,message", [
    (["--suites", "howell_orcale"], "unknown suite 'howell_orcale'; valid: howell_oracle, ring_invariants"),
    (["--suites", "howell_oracle,u_operators"], "unknown suite 'u_operators'"),
    (["--cases", "0"], "argument --cases: must be at least 1, got 0"),
    (["--cases", "-1"], "argument --cases: must be at least 1, got -1"),
])
def test_properties_rejects_runs_that_check_nothing(args, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["properties", *args])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "all_passed" not in err


@pytest.mark.parametrize("text", [
    "none", "trivU:7", "trivU:5,7", "t2eis", "t2eis-global", "t2eis-full",
    "trivU:7+t2eis", "trivU:5+t2eis-global", "trivU:3,5+t2eis-full",
])
def test_quotient_label_spells_what_parses(text):
    assert parse_quotient(text).label() == text


def test_t2eis_full_report_replays(capsys):
    args = ["verify", "--p", "5", "--M", "1", "--theta", "omega^2", "--stable"]
    assert main([*args, "--quotient", "t2eis-full"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["params"]["quotient"] == "t2eis-full"
    assert main([*args, "--quotient", report["params"]["quotient"]]) == 0
    assert json.loads(capsys.readouterr().out) == report
    assert main([*args, "--quotient", "t2eis"]) == 2
    assert "use --quotient t2eis-full" in capsys.readouterr().err


def test_acceptance_grid_is_wellformed():
    lines = acceptance_grid()
    assert len(lines) >= 40
    assert all(line.startswith("--p") for line in lines)
    # both precisions appear
    assert any("--k 1" in line for line in lines)
    assert any("--k 2" in line for line in lines)


def test_console_entrypoint_help():
    r = run_cli(["--help"])
    assert r.returncode == 0
    assert "verify" in r.stdout and "grid" in r.stdout and "properties" in r.stdout
