"""Drive kplane.cli.main in process and check exit codes, stdout, artifacts."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from kplane import (
    RadialProfile,
    TransformParams,
    competing_iterate,
    default_radial_grid,
    read_profile,
    verify,
    write_profile,
)
from kplane.cli import _THREAD_VARS, main


def test_constant_text(capsys):
    code = main(["constant", "--k", "1", "--d", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "A(1, 3) = 1.33133536380038" in out  # pi^(1/4), last ulp free
    assert "sphere-area form" in out and "gamma-ratio form" in out
    assert "quadrature cross-check" in out


def test_constant_json(capsys):
    code = main(["constant", "--k", "1", "--d", "3", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["k"] == 1 and payload["d"] == 3
    assert abs(payload["sphere_form"] - math.pi ** 0.25) < 1e-15
    assert abs(payload["gamma_form"] - payload["sphere_form"]) < 1e-12
    assert payload["relative_deviation"] <= 2e-4
    assert payload["within_2e-4"] is True
    assert payload["grid"] == 2048


def test_constant_k2_d3(capsys):
    # A(2, 3) = 2^(3/4) pi^(-1/4)
    code = main(["constant", "--k", "2", "--d", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "A(2, 3) = 1.2632375554921296" in out


def test_constant_bad_dims(capsys):
    code = main(["constant", "--k", "3", "--d", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("kplane:")


def test_iterate_h_is_fixed_point(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code = main(
        ["iterate", "--k", "1", "--d", "3", "--init", "h", "--grid", "512",
         "--seed", "7", "--out", str(out_dir)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "seed 7" in out
    assert "converged = True after 0 iterations" in out
    with open(out_dir / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["converged"] is True
    assert summary["n_iters"] == 0
    assert summary["seed"] == 7
    assert all(summary["invariants"].values())
    trace = (out_dir / "trace.csv").read_text().strip().splitlines()
    assert trace[0] == "n,distance,ratio,norm"
    assert len(trace) == 2  # just the starting point


def test_iterate_gaussian_json_trace(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code = main(
        ["iterate", "--init", "gaussian", "--grid", "512", "--iters", "60",
         "--out", str(out_dir), "--format", "json"]
    )
    capsys.readouterr()
    assert code == 0
    with open(out_dir / "trace.json") as fh:
        trace = json.load(fh)
    with open(out_dir / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["converged"] is True
    n = len(trace["distance"])
    assert trace["n"] == list(range(n))
    assert n == summary["n_iters"] + 1
    assert len(trace["ratio"]) == n and len(trace["norm"]) == n


def test_iterate_indicator_norm_guard(tmp_path, capsys):
    # the raw norm of every iterate, before the rescale, stays within 5e-3
    # of the start's (the flow suite's bound); summary.json records it
    out_dir = tmp_path / "run"
    code = main(["iterate", "--init", "indicator", "--grid", "512", "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert code == 0
    assert "norm_conserved: ok" in out
    with open(out_dir / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["invariants"]["norm_conserved"] is True
    assert 0.0 <= summary["norm_defect"] <= 5e-3
    assert summary["warnings"] == []


def test_iterate_unbounded_start_warns(tmp_path, capsys):
    # tail exponent 1.8 < k + 1 = 2 at (1, 3) is admissible (1.8 p > d), but
    # the S-image is unbounded near the origin: stderr and summary.json say so
    r = np.geomspace(1e-4, 1e4, 512)
    path = tmp_path / "start.csv"
    write_profile(path, RadialProfile(3, r, (1.0 + r**2) ** -0.9, tail_exponent=1.8))
    out_dir = tmp_path / "run"
    code = main(["iterate", "--init", str(path), "--grid", "512", "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 0
    assert "kplane: warning:" in err and "unbounded near the origin" in err
    with open(out_dir / "summary.json") as fh:
        summary = json.load(fh)
    assert len(summary["warnings"]) == 1
    assert "unbounded near the origin" in summary["warnings"][0]
    # the run's warning, step-1 raw norm defect included, unchanged
    r512 = default_radial_grid(512)
    report = competing_iterate(read_profile(path), TransformParams(1, 3), out_radii=r512)
    assert summary["warnings"] == list(report.warnings)
    assert "step-1 raw norm defect" in summary["warnings"][0]


def test_iterate_profile_from_csv(tmp_path, capsys):
    r = np.geomspace(1e-4, 1e4, 512)
    f = RadialProfile(3, r, (1.0 + 0.5 * r**2) ** -1.8, tail_exponent=3.6)
    path = tmp_path / "start.csv"
    write_profile(path, f)
    out_dir = tmp_path / "run"
    code = main(
        ["iterate", "--init", str(path), "--grid", "512", "--iters", "80",
         "--out", str(out_dir)]
    )
    capsys.readouterr()
    assert code == 0
    with open(out_dir / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["init"] == str(path)
    assert summary["converged"] is True
    assert summary["final_distance"] < 1e-3


def test_iterate_malformed_csv(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("r,value\n1.0,oops\n")
    (tmp_path / "bad.json").write_text('{"d": 3, "tail_exponent": 4.0}')
    code = main(["iterate", "--init", str(path), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 2" in err


def test_iterate_dimension_mismatch(tmp_path, capsys):
    r = np.geomspace(1e-3, 1e3, 64)
    f = RadialProfile(2, r, (1.0 + r**2) ** -1.5, tail_exponent=3.0)
    path = tmp_path / "flat.csv"
    write_profile(path, f)
    code = main(
        ["iterate", "--k", "1", "--d", "3", "--init", str(path),
         "--out", str(tmp_path / "run")]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "d = 2" in err and "d = 3" in err


def test_verify_symmetry_csv(capsys, monkeypatch, verify_run):
    # the CLI formats the session's seed-0 symmetry run instead of running
    # it again; the call must ask for exactly that run
    calls = []

    def session_run(suite, seed, n_samples):
        calls.append((suite, seed, n_samples))
        return verify_run(suite)[0]

    monkeypatch.setattr(verify, "run_suite", session_run)
    code = main(["verify", "--suite", "symmetry"])
    assert calls == [("symmetry", 0, 1_000_000)]
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# suite symmetry, seed 0, samples 1000000"
    assert lines[1].split(",")[:2] == ["status", "name"]
    assert all(row.startswith("PASS,") for row in lines[2:])
    assert len(lines) > 2


def test_verify_symmetry_json(capsys):
    # not a repeat of the session's seed-0 run: the only run of a verify
    # suite at a second seed, passed through the CLI's --seed
    code = main(["verify", "--suite", "symmetry", "--format", "json", "--seed", "3"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["suite"] == "symmetry" and payload["seed"] == 3
    assert payload["all_pass"] is True
    assert all(c["passed"] for c in payload["checks"])


def test_verify_all_json(capsys, monkeypatch, verify_run):
    # every suite's checks reach the JSON report as JSON values (the flow
    # suite's numpy comparisons once made json.dump raise); the suites hand
    # back their session runs, which are made before the suites are replaced
    runs = {name: verify_run(name)[0] for name in verify.SUITE_NAMES[1:]}
    for name in runs:

        def session_suite(seed, name=name, **kwargs):
            return runs[name]

        monkeypatch.setitem(verify._SUITES, name, session_suite)
    code = main(["verify", "--suite", "all", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["all_pass"] is True
    assert len(payload["checks"]) == 25
    assert all(c["passed"] is True for c in payload["checks"])
    assert all(isinstance(c["data"], dict) for c in payload["checks"])


def test_verify_drury_json_carries_estimates(capsys):
    # each Drury check writes its estimates as fields, not only as text
    code = main(["verify", "--suite", "drury", "--samples", "20000", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    names = [c["name"] for c in payload["checks"]]
    assert names == [
        "drury-hand-derived",
        "drury-hand-derived-1-3",
        "drury-s-invariance",
        "drury-affine-covariance",
    ]
    for check in payload["checks"]:
        estimates = check["data"]["estimates"]
        assert estimates, check["name"]
        for est in estimates.values():
            assert math.isfinite(est["std_error"]) and est["std_error"] > 0
            assert isinstance(est["rejected"], int) and est["rejected"] >= 0
            assert est["n_samples"] + est["rejected"] == 20000


def test_suite_choices_match_verify():
    # the CLI keeps its own copy so that it can import verify lazily
    from kplane.cli import _SUITE_CHOICES
    from kplane.verify import SUITE_NAMES

    assert _SUITE_CHOICES == SUITE_NAMES


def test_verify_unknown_suite():
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "nosuch"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["iterate", "--grid", "0"], "--grid"),
        (["constant", "--k", "1", "--d", "3", "--grid", "0"], "--grid"),
        (["verify", "--samples", "1"], "--samples"),
        (["iterate", "--iters", "-1"], "--iters"),
        (["iterate", "--tol=-1e-4"], "--tol"),
        (["iterate", "--tol", "nan"], "--tol"),  # would never converge
        (["iterate", "--tol", "inf"], "--tol"),
        (["verify", "--suite", "drury", "--seed", "-1"], "--seed"),  # was a traceback
    ],
)
def test_bad_numeric_flags_are_usage_errors(argv, flag):
    # the parser rejects them before any numerical module loads
    proc = subprocess.run(
        [sys.executable, "-m", "kplane.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert f"argument {flag}:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_thread_cap_invalid(monkeypatch, capsys):
    monkeypatch.setenv("KPLANE_THREADS", "many")
    code = main(["constant", "--k", "1", "--d", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "KPLANE_THREADS" in err


def test_thread_cap_zero(monkeypatch, capsys):
    monkeypatch.setenv("KPLANE_THREADS", "0")
    code = main(["constant", "--k", "1", "--d", "2"])
    capsys.readouterr()
    assert code == 2


def test_thread_cap_exported(monkeypatch, capsys):
    monkeypatch.setenv("KPLANE_THREADS", "2")
    for var in _THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    code = main(["constant", "--k", "1", "--d", "2"])
    capsys.readouterr()
    assert code == 0
    for var in _THREAD_VARS:
        assert os.environ[var] == "2"


def test_console_script_end_to_end():
    proc = subprocess.run(
        [sys.executable, "-m", "kplane.cli", "constant", "--k", "1", "--d", "2",
         "--grid", "512"],
        capture_output=True,
        text=True,
    )
    print(proc.stdout)
    assert proc.returncode == 0
    # (pi/2)^(1/3)
    assert "A(1, 2) = 1.16244735150962" in proc.stdout
