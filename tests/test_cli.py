"""End-to-end CLI runs over temporary files."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jensen_stab
from jensen_stab import ExperimentConfig, FormatError, bundled_carrier, carrier_from_dict, perturb
from jensen_stab.cli import main
from jensen_stab.funcspace import noise_from_dict


def _write(path, data):
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


@pytest.fixture
def s3_files(tmp_path):
    c = bundled_carrier("s3")
    carrier_path = tmp_path / "s3.json"
    _write(carrier_path, c.to_dict())
    f = perturb(c.exact_solution(3 + 2j), "seeded_uniform", 0.1, seed=5)
    fn_path = tmp_path / "f.json"
    _write(fn_path, f.to_dict())
    return carrier_path, fn_path


def test_check_carrier_ok_and_bundled(s3_files, capsys):
    carrier_path, _ = s3_files
    assert main(["check-carrier", "--carrier", str(carrier_path)]) == 0
    assert main(["check-carrier", "--carrier", "q8"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


def test_check_carrier_rejects_corrupted(tmp_path, capsys):
    c = bundled_carrier("z6")
    data = c.to_dict()
    data["op"][2][3] = (data["op"][2][3] + 1) % 6
    bad_path = tmp_path / "bad.json"
    _write(bad_path, data)
    report_path = tmp_path / "report.json"
    assert main(["check-carrier", "--carrier", str(bad_path), "--report", str(report_path)]) == 1
    report = json.loads(report_path.read_text())
    assert not report["ok"]
    assert report["violations"][0]["axiom"] == "associativity"
    assert "INVALID" in capsys.readouterr().out


def test_defect_command(s3_files, tmp_path, capsys):
    carrier_path, fn_path = s3_files
    report_path = tmp_path / "defect.json"
    code = main([
        "defect", "--carrier", str(carrier_path), "--function", str(fn_path),
        "--report", str(report_path),
    ])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["equation"] == "jensen"
    assert report["delta"] > 0
    assert "delta" in capsys.readouterr().out


def test_inequalities_command(s3_files, tmp_path):
    carrier_path, fn_path = s3_files
    report_path = tmp_path / "ineq.json"
    code = main([
        "inequalities", "--carrier", str(carrier_path), "--function", str(fn_path),
        "--report", str(report_path),
    ])
    assert code == 0
    records = json.loads(report_path.read_text())["inequalities"]
    assert {r["name"] for r in records} == {
        "eq_2_9", "eq_2_10", "eq_2_11", "eq_2_12", "eq_2_13", "eq_2_14", "eq_2_15", "eq_2_16", "eq_2_21",
    }
    assert all(r["holds"] for r in records)


def test_stabilize_then_verify_roundtrip(s3_files, tmp_path):
    carrier_path, fn_path = s3_files
    out_path = tmp_path / "g.json"
    side_path = tmp_path / "g.report.json"
    code = main([
        "stabilize", "--method", "mean", "--carrier", str(carrier_path),
        "--function", str(fn_path), "--out", str(out_path), "--report", str(side_path),
    ])
    assert code == 0
    g_data = json.loads(out_path.read_text())
    assert g_data["kind"] == "table"
    side = json.loads(side_path.read_text())
    assert side["method"] == "mean"

    verify_report = tmp_path / "verify.json"
    code = main([
        "verify", "--carrier", str(carrier_path), "--function", str(fn_path),
        "--solution", str(out_path), "--solution-report", str(side_path),
        "--report", str(verify_report),
    ])
    assert code == 0
    rep = json.loads(verify_report.read_text())
    assert rep["pass"]
    assert rep["stability"]["holds"]


def test_verify_fails_on_wrong_solution(s3_files, tmp_path):
    carrier_path, fn_path = s3_files
    c = bundled_carrier("s3")
    bogus = c.exact_solution(40 + 0j)
    bogus_path = tmp_path / "bogus.json"
    _write(bogus_path, bogus.to_dict())
    code = main([
        "verify", "--carrier", str(carrier_path), "--function", str(fn_path),
        "--solution", str(bogus_path),
    ])
    assert code == 1


def test_experiment_command_and_determinism(tmp_path):
    cfg = {
        "carrier": "z6",
        "base": {"constant": [2.0, 0.0], "linear": None},
        "noise": {"type": "seeded_uniform", "amplitude": 0.2, "seed": 11},
        "methods": ["mean", "dyadic"],
    }
    cfg_path = tmp_path / "cfg.json"
    _write(cfg_path, cfg)
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert main(["experiment", "--config", str(cfg_path), "--report", str(r1)]) == 0
    assert main(["experiment", "--config", str(cfg_path), "--report", str(r2)]) == 0
    d1 = json.loads(r1.read_text())
    d2 = json.loads(r2.read_text())
    d1.pop("timing")
    d2.pop("timing")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_experiment_on_a_carrier_that_fails_its_axioms_exits_1(tmp_path, capsys):
    # S3 with sigma = id: involutive, but not an anti-homomorphism.
    carrier = {**bundled_carrier("s3").to_dict(), "involution": list(range(6))}
    cfg_path, report_path = tmp_path / "cfg.json", tmp_path / "report.json"
    _write(cfg_path, {"carrier": carrier, "methods": ["dyadic"]})
    assert main(["experiment", "--config", str(cfg_path), "--report", str(report_path)]) == 1
    report = json.loads(report_path.read_text())
    assert report["pass"] is False
    assert report["errors"] == [{"stage": "validation", "error": "carrier axioms violated"}]
    assert "pass=False" in capsys.readouterr().out


def test_inequalities_skips_eq_2_21_on_a_carrier_without_a_mean(tmp_path, capsys):
    c = bundled_carrier("m3")
    fn_path = tmp_path / "f.json"
    _write(fn_path, perturb(c.exact_solution(1 + 1j), "seeded_uniform", 0.1, seed=3).to_dict())
    assert main(["inequalities", "--carrier", "m3", "--function", str(fn_path)]) == 0
    states = {line.split()[0]: line.split()[-1] for line in capsys.readouterr().out.splitlines()}
    assert states.pop("eq_2_21") == "SKIP"
    assert set(states.values()) == {"PASS"}


def test_experiment_seed_override(tmp_path):
    cfg = {
        "carrier": "z6",
        "base": {"constant": [2.0, 0.0], "linear": None},
        "noise": {"type": "seeded_uniform", "amplitude": 0.2, "seed": 11},
        "methods": ["dyadic"],
    }
    cfg_path = tmp_path / "cfg.json"
    _write(cfg_path, cfg)
    r1 = tmp_path / "r1.json"
    assert main(["experiment", "--config", str(cfg_path), "--seed", "99", "--report", str(r1)]) == 0
    assert json.loads(r1.read_text())["config"]["noise"]["seed"] == 99


def test_unknown_carrier_is_a_clean_error(capsys):
    assert main(["check-carrier", "--carrier", "missing.json"]) == 2
    assert "error:" in capsys.readouterr().err


def _assert_clean_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "config",
    [
        None,  # no file at all
        "{not json",
        [],
        {"carrier": "s3", "folner_k": "abc"},
        {"carrier": "s3", "folner_k": 0},
        {"carrier": "s3", "base": {"constant": [1, "a"]}},
        {"carrier": "s3", "noise": {"type": "seeded_uniform", "amplitude": "0.1", "seed": " 7 "}, "tol": "1e-3"},
        {"carrier": "s3", "tol": -1.0},
        {"carrier": "s3", "conv_tol": -1.0},
        {"carrier": "s3", "noise": {"type": "seeded_uniform", "amplitude": float("nan")}},
        {"carrier": "s3", "noise": {"type": "seeded_uniform", "amplitude": float("inf")}},
        {
            "carrier": "s3",
            "noise": {"type": "seeded_uniform", "amplitude": 0.1, "seed": 1},
            "methods": ["dyadic"],
            "identity_powers": [1024],
        },
        {"carrier": "nope"},
        {"carrier": 5},
        {"carrier": {"kind": "lattice", "dim": 1}},
        {"carrier": "int2", "base": {"linear": [1.0]}},
        {"carrier": "s3", "base": {"linear": [1.0]}},
        {"carrier": "s3", "methods": []},
        {"carrier": "s3", "methods": ["dyadic", "dyadic"]},
        {"carrier": {"kind": "lattice", "dim": 70, "window": 1, "folner_max": 1}},
    ],
)
def test_experiment_bad_config_is_a_clean_error(tmp_path, capsys, config):
    cfg_path = tmp_path / "cfg.json"
    if isinstance(config, str):
        cfg_path.write_text(config, encoding="utf-8")
    elif config is not None:
        _write(cfg_path, config)
    _assert_clean_error(capsys, ["experiment", "--config", str(cfg_path)])


def test_missing_or_malformed_input_files_are_clean_errors(s3_files, tmp_path, capsys):
    carrier_path, fn_path = s3_files
    missing = str(tmp_path / "missing.json")
    broken = tmp_path / "broken.json"
    broken.write_text('{"kind": "table", "values": ', encoding="utf-8")
    _assert_clean_error(capsys, ["defect", "--carrier", str(carrier_path), "--function", missing])
    _assert_clean_error(capsys, ["defect", "--carrier", str(carrier_path), "--function", str(broken)])
    _assert_clean_error(capsys, ["check-carrier", "--carrier", str(broken)])
    _assert_clean_error(capsys, [
        "verify", "--carrier", str(carrier_path), "--function", str(fn_path), "--solution", missing,
    ])


@pytest.mark.parametrize(
    "carrier",
    [
        {"kind": "lattice", "dim": None, "window": 8, "folner_max": 16},
        {"kind": "lattice", "dim": "x", "window": 8, "folner_max": 16},
        {"kind": "lattice", "dim": 1.7, "window": 8, "folner_max": 16},
        {"kind": "finite", "elements": ["e", "a"], "neutral": "e", "op": [[0, 1], [1]], "involution": [0, 1]},
        {"kind": "finite", "elements": ["e", "a"], "neutral": "e", "op": [[0, 1], [1, 0.5]], "involution": [0, 1]},
        {"kind": "lattice", "dim": "1", "window": "8", "folner_max": "16"},
    ],
)
def test_malformed_carrier_file_is_a_clean_error(tmp_path, capsys, carrier):
    path = tmp_path / "c.json"
    _write(path, carrier)
    _assert_clean_error(capsys, ["check-carrier", "--carrier", str(path)])


def test_unwritable_output_is_a_clean_error(s3_files, tmp_path, capsys):
    carrier_path, fn_path = s3_files
    cfg_path = tmp_path / "cfg.json"
    _write(cfg_path, {"carrier": "z2"})
    missing_dir = tmp_path / "missing_dir"
    _assert_clean_error(capsys, ["experiment", "--config", str(cfg_path), "--report", str(missing_dir / "r.json")])
    _assert_clean_error(capsys, [
        "stabilize", "--method", "dyadic", "--carrier", str(carrier_path), "--function", str(fn_path),
        "--out", str(missing_dir / "g.json"),
    ])


@pytest.mark.parametrize("method", ["forti-sikorska", "dyadic", "mean"])
def test_stabilize_rejects_zero_dyadic_levels(s3_files, tmp_path, capsys, method):
    carrier_path, fn_path = s3_files
    out = tmp_path / "g.json"
    _assert_clean_error(capsys, [
        "stabilize", "--method", method, "--carrier", str(carrier_path), "--function", str(fn_path),
        "--out", str(out), "--dyadic-n", "0",
    ])
    assert not out.exists()


@pytest.mark.parametrize("command", ["inequalities", "stabilize"])
def test_folner_k_below_one_is_a_clean_error(tmp_path, capsys, command):
    fn_path = tmp_path / "f.json"
    _write(fn_path, {"kind": "oracle", "linear": [2.0]})
    out = tmp_path / "g.json"
    extra = ["--method", "mean", "--out", str(out)] if command == "stabilize" else []
    _assert_clean_error(capsys, [
        command, *extra, "--carrier", "int1", "--function", str(fn_path), "--folner-k", "0",
    ])
    assert not out.exists()


def test_non_finite_report_is_a_clean_error(tmp_path, capsys):
    # a . x overflows to inf on the window, and inf - inf makes the defect NaN
    fn_path = tmp_path / "f.json"
    _write(fn_path, {"kind": "oracle", "linear": [1e307]})
    report_path = tmp_path / "r.json"
    _assert_clean_error(capsys, [
        "defect", "--carrier", "int1", "--function", str(fn_path), "--report", str(report_path),
    ])
    assert not report_path.exists()


@pytest.mark.parametrize("command", ["defect", "inequalities"])
def test_non_finite_defect_writes_only_the_error_line_to_stderr(tmp_path, command):
    # In a child process, so no warning capture of the test runner can hide
    # what numpy writes to stderr.
    fn_path = tmp_path / "f.json"
    _write(fn_path, {"kind": "oracle", "linear": [1e307]})
    env = {**os.environ, "PYTHONPATH": str(Path(jensen_stab.__file__).resolve().parents[1])}
    argv = [command, "--carrier", "int1", "--function", str(fn_path)]
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "jensen_stab.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: "), proc.stderr
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("command", ["defect", "inequalities", "experiment"])
def test_an_oracle_that_overflows_with_its_noise_writes_no_warning(tmp_path, command):
    # Linear part, constant and seeded noise amplitude 1e308: the oracle's sums
    # overflow, which each command reports without numpy's warnings.
    noise = {"type": "seeded_uniform", "amplitude": 1e308, "seed": 0}
    path = tmp_path / "in.json"
    if command == "experiment":
        _write(path, {"carrier": "int1", "base": {"constant": 1e308, "linear": [1e308]}, "noise": noise})
        argv = [command, "--config", str(path)]
    else:
        _write(path, {"kind": "oracle", "linear": [1e308], "constant": 1e308, "noise": noise})
        argv = [command, "--carrier", "int1", "--function", str(path)]
    env = {**os.environ, "PYTHONPATH": str(Path(jensen_stab.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "jensen_stab.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    if command == "experiment":
        # The defect stage's error goes into the report, which fails.
        assert (proc.returncode, proc.stderr) == (1, "")
    else:
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: "), proc.stderr
        assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "sidecar",
    [
        {"offset": [0, 0]},
        {"offset": "x", "error_budget": 0},
        {"offset": [0, 0], "error_budget": "inf"},
        [],
        {"offset": [3, 2], "error_budget": -1},
        {"offset": [0, 0], "error_budget": 0, "method": [1]},
        {"offset": [0, 0], "error_budget": 0, "method": 7},
        {"offset": [0, 0], "error_budget": 0, "method": None},
    ],
)
def test_malformed_solution_report_is_a_clean_error(s3_files, tmp_path, capsys, sidecar):
    carrier_path, fn_path = s3_files
    side_path = tmp_path / "side.json"
    _write(side_path, sidecar)
    _assert_clean_error(capsys, [
        "verify", "--carrier", str(carrier_path), "--function", str(fn_path),
        "--solution", str(fn_path), "--solution-report", str(side_path),
    ])


def test_a_solution_report_without_a_method_reads_external(s3_files, tmp_path, capsys):
    carrier_path, fn_path = s3_files
    side_path, out = tmp_path / "side.json", tmp_path / "verify.json"
    _write(side_path, {"offset": [0, 0], "error_budget": 0})
    main([
        "verify", "--carrier", str(carrier_path), "--function", str(fn_path),
        "--solution", str(fn_path), "--solution-report", str(side_path), "--report", str(out),
    ])
    assert json.loads(out.read_text())["method"] == "external"
    assert capsys.readouterr().out.startswith("verify[external]: ")


def test_lattice_carrier_file_and_oracle(tmp_path):
    _write(tmp_path / "lat.json", {"kind": "lattice", "dim": 1, "window": 16, "folner_max": 64})
    _write(
        tmp_path / "f.json",
        {"kind": "oracle", "linear": [2.0], "constant": [5.0, 0.0],
         "noise": {"type": "parity", "amplitude": 0.1, "seed": 0}},
    )
    out = tmp_path / "g.json"
    code = main([
        "stabilize", "--method", "dyadic", "--carrier", str(tmp_path / "lat.json"),
        "--function", str(tmp_path / "f.json"), "--out", str(out),
    ])
    assert code == 0
    code = main([
        "verify", "--carrier", str(tmp_path / "lat.json"), "--function", str(tmp_path / "f.json"),
        "--solution", str(out), "--solution-report", str(tmp_path / "g.report.json"),
    ])
    assert code == 0


@pytest.mark.parametrize("command", ["inequalities", "stabilize", "verify"])
@pytest.mark.parametrize("tol", ["-1", "inf", "nan"])
def test_negative_or_non_finite_tol_is_a_clean_error(s3_files, tmp_path, capsys, command, tol):
    carrier_path, fn_path = s3_files
    out = tmp_path / "g.json"
    extra = {
        "inequalities": [],
        "stabilize": ["--method", "dyadic", "--out", str(out)],
        "verify": ["--solution", str(fn_path)],
    }[command]
    _assert_clean_error(capsys, [
        command, *extra, "--carrier", str(carrier_path), "--function", str(fn_path), "--tol", tol,
    ])
    assert not out.exists()


@pytest.mark.parametrize("delta", ["-1", "inf", "nan"])
def test_negative_or_non_finite_delta_is_a_clean_error(s3_files, capsys, delta):
    # g = f is wrong; --delta inf would make its bound inf and pass it.
    carrier_path, fn_path = s3_files
    argv = ["verify", "--carrier", str(carrier_path), "--function", str(fn_path), "--solution", str(fn_path)]
    assert main(argv) == 1
    capsys.readouterr()
    _assert_clean_error(capsys, [*argv, "--delta", delta])


def test_zero_tol_is_legal(tmp_path):
    # An exact solution: every dyadic step is 0, and every check holds with no tolerance.
    fn_path, out = tmp_path / "f.json", tmp_path / "g.json"
    _write(fn_path, bundled_carrier("s3").exact_solution(3 + 2j).to_dict())
    argv = ["--carrier", "s3", "--function", str(fn_path), "--tol", "0"]
    assert main(["stabilize", "--method", "dyadic", "--out", str(out), *argv]) == 0
    assert main(["inequalities", *argv]) == 0
    assert main(["verify", "--solution", str(out), *argv]) == 0


# Every entry point that carries a count (an integer >= 1) or a tolerance
# (finite and >= 0): (entry point, setting), and the values each rule refuses.
COUNT_SITES = [
    *(("config", n) for n in ("component_dim", "dyadic_n", "folner_k")),
    *(("from_dict", n) for n in ("component_dim", "dyadic_n", "folner_k")),
    ("cli", "--folner-k"), ("cli", "--dyadic-n"),
    ("lattice", "dim"), ("lattice", "window"),
]
TOLERANCE_SITES = [
    *(("config", n) for n in ("noise_amplitude", "tol", "conv_tol")),
    *(("from_dict", n) for n in ("noise_amplitude", "tol", "conv_tol")),
    ("cli", "--tol"), ("cli", "--conv-tol"), ("cli", "--delta"),
    ("noise", "parity"), ("noise", "seeded_uniform"),
]
RULE_CASES = [
    *((entry, name, v) for entry, name in COUNT_SITES for v in (True, 2.5, 0, -1)),
    *((entry, name, v) for entry, name in TOLERANCE_SITES for v in (-1.0, float("nan"), float("inf"))),
]


@pytest.mark.parametrize("entry, name, value", RULE_CASES)
def test_every_entry_point_applies_the_count_and_tolerance_rules(s3_files, tmp_path, capsys, entry, name, value):
    if entry == "cli":
        carrier_path, fn_path = s3_files
        out = tmp_path / "g.json"
        oracle_path = tmp_path / "oracle.json"
        _write(oracle_path, {"kind": "oracle", "linear": [2.0]})
        command = {
            "--folner-k": ["inequalities", "--carrier", "int1", "--function", str(oracle_path)],
            "--tol": ["inequalities", "--carrier", str(carrier_path), "--function", str(fn_path)],
            "--delta": ["verify", "--carrier", str(carrier_path), "--function", str(fn_path), "--solution", str(fn_path)],
        }.get(name, ["stabilize", "--method", "dyadic", "--carrier", str(carrier_path), "--function", str(fn_path),
                     "--out", str(out)])
        try:
            code = main([*command, f"{name}={value}"])
        except SystemExit as exc:  # argparse refuses a value that is not an int or a float
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2
        assert len([line for line in err.splitlines() if "error:" in line]) == 1
        assert "Traceback" not in err
        assert not out.exists()
        return
    with pytest.raises(FormatError):
        if entry == "config":
            ExperimentConfig(carrier="s3", **{name: value})
        elif entry == "from_dict":
            data = {"noise": {"type": "seeded_uniform", "amplitude": value}} if name == "noise_amplitude" else {name: value}
            ExperimentConfig.from_dict({"carrier": "s3", **data})
        elif entry == "lattice":
            carrier_from_dict({"kind": "lattice", "dim": 1, "window": 2, "folner_max": 4, name: value})
        else:
            noise_from_dict({"type": name, "amplitude": value, "seed": 1})
