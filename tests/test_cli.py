import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from landaudelta.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestLaguerre:
    def test_zeros_with_null_root(self, capsys):
        code, out, _ = run_cli(capsys, "laguerre", "zeros", "--q", "2", "--alpha", "-1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "zero,multiplicity"
        assert lines[1] == "0,1"
        assert lines[2].startswith("2,") or lines[2] == "2,1"

    def test_eval(self, capsys):
        code, out, _ = run_cli(capsys, "laguerre", "eval", "--q", "1", "--alpha", "2", "--t", "3")
        assert code == 0
        assert float(out.strip()) == 0.0

    def test_eval_requires_t(self, capsys):
        code, _, err = run_cli(capsys, "laguerre", "eval", "--q", "1", "--alpha", "2")
        assert code == 2

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "laguerre", "zeros", "--q", "1", "--alpha", "0", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload == [{"zero": 1.0, "multiplicity": 1}]


class TestCensus:
    def test_nine_rows_starting_at_one(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--b", "2", "--q", "1", "--rmax", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,t,multiplicity,witness_ks"
        assert len(lines) == 10
        assert lines[1].split(",")[0] == "1"

    def test_determinism(self, capsys):
        _, out1, _ = run_cli(capsys, "census", "--b", "2", "--q", "2", "--rmax", "3")
        _, out2, _ = run_cli(capsys, "census", "--b", "2", "--q", "2", "--rmax", "3")
        assert out1 == out2

    def test_explicit_sets(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--b", "2", "--q", "1", "--explicit", "3", "--format", "json")
        assert code == 0
        sets = json.loads(out)
        assert sets["D1"] == pytest.approx([1.0, math.sqrt(2), math.sqrt(3)])

    def test_eta_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "census", "--b", "2", "--q", "2", "--eta",
            "--alpha-min", "-1", "--alpha-max", "1", "--alpha-step", "0.5",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,eta_1,eta_2"
        assert len(lines) == 6


class TestToeplitz:
    def test_spectrum_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "toeplitz", "--b", "2", "--q", "0", "--r", "1", "--K", "4",
            "--N", "256", "--no-resolution-check",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,eigenvalue,residual"
        top = float(lines[1].split(",")[1])
        assert top == pytest.approx(2 * math.exp(-1), rel=1e-10)

    def test_export_import_bit_identical(self, capsys, tmp_path):
        path = str(tmp_path / "m.json")
        code, out1, _ = run_cli(
            capsys, "toeplitz", "--b", "2", "--q", "1", "--r", "1", "--K", "6",
            "--N", "256", "--export", path, "--no-resolution-check",
        )
        assert code == 0
        code, out2, _ = run_cli(capsys, "toeplitz", "--import", path)
        assert code == 0
        assert out1 == out2

    def test_kernel_estimate(self, capsys):
        code, out, _ = run_cli(
            capsys, "toeplitz", "--b", "2", "--q", "1", "--r", "1", "--K", "6",
            "--N", "256", "--kernel", "--no-resolution-check",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 1
        assert payload["census_multiplicity"] == 1

    def test_weight_file(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        t = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
        rows = "\n".join(f"{ti:.17g} {1.0 + 0.5 * math.sin(ti):.17g}" for ti in t)
        path.write_text("# weight v1\n" + rows + "\n")
        code, out, _ = run_cli(
            capsys, "toeplitz", "--b", "2", "--q", "0", "--r", "1", "--K", "3",
            "--N", "256", "--weight-file", str(path), "--no-resolution-check",
        )
        assert code == 0

    def test_bad_arguments_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["toeplitz", "--q", "not-an-int"])
        assert err.value.code == 2

    def test_invalid_value_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "toeplitz", "--b", "-1", "--q", "0", "--r", "1")
        assert code == 2
        assert "error" in err


class TestGalerkin:
    def test_cluster_report_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "galerkin", "--b", "2", "--q", "1", "--Q", "2", "--K", "6",
            "--r", "1", "--N", "256", "--no-resolution-check",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["levels"]) == 3
        level1 = payload["levels"][1]
        assert level1["Lambda"] == 6.0
        assert any(abs(h - 6.0) < 1e-9 for h in level1["exact_hits"])

    def test_persistence_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "galerkin", "--b", "2", "--q", "1", "--r", "1", "--persistence",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["persists"] is True
        assert payload["witnesses"] == [1]


class TestVerify:
    def test_clean_build_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        lines = out.strip().splitlines()
        assert code == 0, "\n".join(l for l in lines if l.startswith("FAIL"))
        assert all(l.startswith("PASS") for l in lines[:-1])
        assert lines[-1].endswith("checks passed")


def test_import_leaves_scipy_unloaded():
    # Only the verify subcommand needs scipy; importing the package or the CLI must not load it.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for module in ("landaudelta", "landaudelta.cli"):
        code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]", f"import {module} loaded {proc.stdout.strip()}"
