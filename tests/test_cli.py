"""Exit statuses, output formats, and determinism of the command line."""

import csv
import io
import json
import pathlib
import re

import pytest

from bergman_lab import cli

runs = cli.main


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_wall_ms(text: str) -> str:
    return re.sub(r'"wall_ms": [0-9.]+', '"wall_ms": 0', text)


def test_weights_text(capsys):
    code, out, _ = run_cli(capsys, "weights", "--alpha", "0.5", "--dim", "3")
    assert code == 0
    assert "omega[0] = 1.0" in out
    assert "omega[2] = 0.2285714285714286" in out


def test_weights_json_exact(capsys):
    code, out, _ = run_cli(capsys, "weights", "--alpha", "1/2", "--dim", "4",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == "1/2"
    assert payload["mode"] == "exact"
    assert payload["values"][3] == "16/105"


def test_weights_csv(capsys):
    code, out, _ = run_cli(capsys, "weights", "--alpha", "0", "--dim", "4",
                           "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "omega"]
    assert len(rows) == 5
    assert rows[2] == ["1", "0.5"]


def test_coeffs_json(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--N", "2", "--alpha", "0",
                           "--dim", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["values"] == [(n + 1) / (n + 3) for n in range(3)]
    assert payload["lower_bound"] == pytest.approx(1 / 9)


def test_coeffs_exact_text(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--N", "2", "--alpha", "0/1",
                           "--dim", "2")
    assert code == 0
    assert "C[0] = 1/3" in out
    assert "lower bound (strict): 1/9" in out


def test_verify_pass_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "coeff_bounds",
                           "--N", "2", "--alpha", "0.5", "--dim", "16",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"] == {"total": 1, "passed": 1, "failed": 0}
    entry = payload["entries"][0]
    assert entry["pass"] is True
    assert entry["params"]["mode"] == "float64"
    assert entry["params"]["alpha"] == 0.5


def test_verify_forced_failure_exits_one(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "norm_identity",
                           "--N", "2", "--alpha", "0.5", "--dim", "16",
                           "--tol", "1e-300", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["summary"]["failed"] == 1
    assert payload["entries"][0]["pass"] is False
    assert payload["entries"][0]["residual"] > 0.0


def test_rational_alpha_implies_exact(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "left_inverse",
                           "--N", "2", "--alpha", "1/2", "--dim", "12",
                           "--format", "json")
    assert code == 0
    params = json.loads(out)["entries"][0]["params"]
    assert params["alpha"] == "1/2"
    assert params["mode"] == "exact"


def test_mode_flag_overrides_alpha_syntax(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "left_inverse",
                           "--N", "2", "--alpha", "1/2", "--dim", "12",
                           "--mode", "float64", "--format", "json")
    assert code == 0
    params = json.loads(out)["entries"][0]["params"]
    assert params["alpha"] == 0.5
    assert params["mode"] == "float64"


def test_exact_mode_accepts_decimal_alpha(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "coeff_bounds",
                           "--N", "2", "--alpha", "0.5", "--dim", "12",
                           "--mode", "exact", "--format", "json")
    assert code == 0
    params = json.loads(out)["entries"][0]["params"]
    assert params["alpha"] == "1/2"
    assert params["mode"] == "exact"


@pytest.mark.parametrize("argv,flag", [
    (("weights", "--alpha", "abc", "--dim", "3"), "--alpha"),
    (("weights", "--alpha", "-2.0", "--dim", "3"), "--alpha"),
    (("weights", "--alpha", "inf", "--dim", "3"), "--alpha"),
    (("weights", "--alpha", "1e300", "--dim", "3"), "--alpha"),
    (("coeffs", "--N", "1", "--alpha", "1e400", "--dim", "3"), "--alpha"),
    (("weights", "--alpha", "0.5", "--dim", "0"), "--dim"),
    (("coeffs", "--N", "0", "--alpha", "0.5", "--dim", "3"), "--N"),
    (("verify", "--check", "coeff_bounds", "--N", "2", "--alpha", "0.5",
      "--dim", "16", "--residues", "5"), "--residues"),
    (("verify", "--check", "coeff_bounds", "--N", "2", "--alpha", "0.5",
      "--dim", "16", "--residues", "x"), "--residues"),
    (("verify", "--check", "coeff_bounds", "--N", "2", "--alpha", "0.5",
      "--dim", "2"), "--dim"),
    (("verify", "--check", "coeff_bounds", "--N", "2", "--alpha", "0.5",
      "--dim", "16", "--tol", "-1"), "--tol"),
    # NaN and infinity would be written as the JSON-invalid NaN and Infinity
    (("verify", "--check", "left_inverse", "--N", "2", "--alpha", "0.5",
      "--dim", "8", "--tol", "nan", "--format", "json"), "--tol"),
    (("verify", "--check", "left_inverse", "--N", "2", "--alpha", "0.5",
      "--dim", "8", "--tol", "inf", "--format", "json"), "--tol"),
    (("verify", "--check", "coeff_bounds", "--N", "2", "--alpha", "0.5",
      "--dim", "16", "--depth", "0"), "--depth"),
    # a negative seed reached default_rng and failed the check with ValueError
    (("verify", "--check", "lower_bound", "--N", "2", "--alpha", "0.5",
      "--dim", "8", "--seed", "-3"), "--seed"),
    (("census", "--N", "2", "--alpha", "1/2", "--dim", "8", "--seed", "-3"), "--seed"),
    (("verify", "--check", "expansive", "--N", "1", "--alpha", "1e300",
      "--dim", "3"), "--alpha"),
    (("beurling", "--N", "1", "--alpha", "1e300", "--dim", "3"), "--alpha"),
    (("census", "--N", "1", "--alpha", "1e300", "--dim", "3"), "--alpha"),
    # omega_6 underflows: read by the levels of a tower check, not by D + N
    (("verify", "--check", "expansive", "--N", "1", "--alpha", "1e60",
      "--dim", "3"), "--alpha"),
    # omega_257 of the tower is nonzero but below 1 / max float64
    (("verify", "--check", "telescoping", "--N", "3", "--alpha", "1390",
      "--dim", "256", "--residues", "0,1"), "--alpha"),
], ids=["alpha-text", "alpha-range", "alpha-inf", "alpha-underflow", "coeffs-alpha-inf",
        "weights-dim", "coeffs-N", "residue-range",
        "residue-text", "verify-dim", "tol-negative", "tol-nan", "tol-inf", "depth-zero",
        "seed-negative",
        "census-seed-negative",
        "verify-alpha-underflow", "beurling-alpha-underflow", "census-alpha-underflow",
        "verify-alpha-underflow-tower", "verify-alpha-subnormal-tower"])
def test_usage_errors_name_the_flag(capsys, argv, flag):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert flag in err


def test_blank_residues_mean_every_residue(capsys):
    """``--residues ''`` (or only spaces) is the default: every residue class."""
    argv = ("verify", "--check", "left_inverse", "--N", "2", "--alpha", "0.5",
            "--dim", "8", "--format", "json")
    reports = []
    for extra in ((), ("--residues", ""), ("--residues", "  ")):
        code, out, _ = run_cli(capsys, *argv, *extra)
        assert code == 0
        reports.append(strip_wall_ms(out))
    assert reports[0] == reports[1] == reports[2]
    assert json.loads(reports[0])["entries"][0]["params"]["residues"] is None


def test_alpha_is_checked_only_as_far_as_the_check_reads(capsys):
    """norm_identity reads the weights up to D + N only, so the alpha that
    the tower checks refuse at these flags still runs and passes."""
    code, out, _ = run_cli(capsys, "verify", "--check", "norm_identity", "--N", "1",
                           "--alpha", "1e60", "--dim", "3")
    assert code == 0
    assert out.startswith("PASS norm_identity")


def test_unknown_check_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--check", "nonsense",
                           "--N", "2", "--alpha", "0.5", "--dim", "16")
    assert code == 2
    assert "--check" in err


def test_missing_subcommand_is_usage_error(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 2


def test_help_exits_zero(capsys):
    code, out, err = run_cli(capsys, "--help")
    assert code == 0
    assert "weights" in out + err


def test_unwritable_out_is_io_error(capsys, tmp_path):
    target = tmp_path / "missing-dir" / "report.json"
    code, _, err = run_cli(capsys, "weights", "--alpha", "0.5", "--dim", "3",
                           "--out", str(target))
    assert code == 3
    assert "cannot write" in err


def test_beurling_subcommand(capsys):
    code, out, _ = run_cli(capsys, "beurling", "--N", "2", "--alpha", "1.0",
                           "--dim", "16", "--residues", "0")
    assert code == 0
    assert "PASS beurling" in out
    assert "total=1 passed=1 failed=0" in out


def test_census_subcommand_csv(capsys):
    code, out, _ = run_cli(capsys, "census", "--N", "2", "--alpha", "0.5",
                           "--dim", "12", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["name", "N", "alpha", "D", "residues", "depth", "seed",
                       "mode", "residual", "tol", "pass", "wall_ms"]
    assert rows[1][0] == "census"
    assert rows[1][10] == "true"
    assert float(rows[1][8]) == 0.0


def test_suite_smoke_json_deterministic(tmp_path, capsys):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    code_a = cli.main(["suite", "--grid", "smoke", "--format", "json",
                       "--out", str(out_a)])
    code_b = cli.main(["suite", "--grid", "smoke", "--format", "json",
                       "--out", str(out_b)])
    capsys.readouterr()
    assert code_a == 0 and code_b == 0
    text_a = out_a.read_text(encoding="utf-8")
    text_b = out_b.read_text(encoding="utf-8")
    assert strip_wall_ms(text_a) == strip_wall_ms(text_b)
    payload = json.loads(text_a)
    assert payload["summary"]["total"] == 103
    assert payload["summary"]["failed"] == 0


def test_suite_smoke_csv_schema(capsys):
    code, out, _ = run_cli(capsys, "suite", "--grid", "smoke", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 104
    assert all(row[10] == "true" for row in rows[1:])
    modes = {row[7] for row in rows[1:]}
    assert modes == {"float64", "exact"}


def test_suite_text_has_summary(capsys):
    code, out, _ = run_cli(capsys, "suite", "--grid", "smoke")
    assert code == 0
    assert "total=103 passed=103 failed=0" in out
    assert out.count("PASS") == 103


SMOKE_VERDICTS = pathlib.Path(__file__).parent / "data" / "smoke_verdicts.txt"


def test_suite_smoke_verdicts_pinned(capsys):
    # every pass/fail, note and [exact] tag of the smoke grid; residual digits masked
    code, out, _ = run_cli(capsys, "suite", "--grid", "smoke")
    assert code == 0
    masked = re.sub(r"residual=\S+", "residual=*", out)
    assert masked == SMOKE_VERDICTS.read_text(encoding="utf-8")


def test_module_entry_point():
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "bergman_lab", "weights", "--alpha", "0",
         "--dim", "2"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "omega[1] = 0.5" in proc.stdout
