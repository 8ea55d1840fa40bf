import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from landaudelta import cli, toeplitz
from landaudelta.curves import JordanCurve, make_ellipse, save_curve
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
        assert err == "error: laguerre eval requires --t\n"

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

    @pytest.mark.parametrize("step", ["0", "-0.5", "nan"])
    def test_eta_step_must_be_positive(self, capsys, step):
        code, out, err = run_cli(capsys, "census", "--q", "2", "--eta", "--alpha-step", step)
        assert code == 2 and out == ""
        assert err.startswith("error: --alpha-step must be positive")


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

    def test_kernel_estimate(self, capsys, monkeypatch):
        calls = []
        original = toeplitz.spectrum

        def counting(matrix):
            calls.append(matrix)
            return original(matrix)

        monkeypatch.setattr(cli, "spectrum", counting)
        monkeypatch.setattr(toeplitz, "spectrum", counting)
        code, out, _ = run_cli(
            capsys, "toeplitz", "--b", "2", "--q", "1", "--r", "1", "--K", "6",
            "--N", "256", "--kernel", "--no-resolution-check",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 1
        assert payload["census_multiplicity"] == 1
        assert len(calls) == 1

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

    @pytest.mark.parametrize("n", ["0", "1"])
    @pytest.mark.parametrize("curve", [("--r", "1"), ("--ellipse", "1,0.7")])
    def test_too_few_nodes_exit_2(self, capsys, n, curve):
        code, out, err = run_cli(capsys, "toeplitz", *curve, "--N", n, "--K", "3")
        assert code == 2 and out == ""
        assert err == f"error: need at least 16 nodes, got {n}\n"

    @pytest.mark.parametrize("axes", ["1", "1,2,3", "x,1", ""])
    def test_malformed_ellipse_exit_2(self, capsys, axes):
        code, out, err = run_cli(capsys, "toeplitz", "--ellipse", axes, "--N", "64", "--K", "3")
        assert code == 2 and out == ""
        assert err == f"error: --ellipse expects A,B, got {axes!r}\n"

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"re": [[1.0]], "im": [[0.0]]}, "no key 'meta'"),
            ({"meta": {"q": 0, "K": 0, "b": 1.0, "provenance": {}}, "re": [[1.0]]}, "no key 'im'"),
            ({"meta": {"q": 0, "K": 1, "b": 1.0}, "re": [[1.0]], "im": [[0.0]]}, "no key 'provenance'"),
            ({"meta": {"q": 0, "K": 1, "b": 1.0, "provenance": {}}, "re": [[1.0, 0.0], [0.0]],
              "im": [[0.0, 0.0], [0.0, 0.0]]}, "arrays of numbers"),
            ({"meta": {"q": 0, "K": 1, "b": 1.0, "provenance": {}}, "re": [[1.0, 0.0]],
              "im": [[0.0, 0.0]]}, "must both be (2, 2)"),
            ({"meta": {"q": 0, "K": 1, "b": 1.0, "provenance": {}}, "re": [[1.0, 0.0], [0.0, 1.0]],
              "im": [[0.0]]}, "must both be (2, 2)"),
            ({"meta": {"q": 0, "K": 2, "b": 1.0, "provenance": {}}, "re": [[1.0, 0.0], [0.0, 1.0]],
              "im": [[0.0, 0.0], [0.0, 0.0]]}, "must both be (3, 3)"),
            ([1], "must be objects"),
            ("x", "must be objects"),
            ({"meta": [1], "re": [[1.0]], "im": [[0.0]]}, "must be objects"),
            ({"meta": {"q": 0, "K": 0, "b": 1.0, "provenance": [1]}, "re": [[1.0]], "im": [[0.0]]}, "must be objects"),
            ({"meta": {"q": None, "K": 0, "b": 1.0, "provenance": {}}, "re": [[1.0]], "im": [[0.0]]}, "q, K and b numbers"),
            ({"meta": {"q": 0, "K": 0, "b": 1.0, "provenance": {}}, "re": {}, "im": [[0.0]]}, "arrays of numbers"),
        ],
    )
    def test_malformed_import_exit_2(self, capsys, tmp_path, payload, message):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(message)):
            toeplitz.matrix_from_json(path.read_text())
        code, out, err = run_cli(capsys, "toeplitz", "--import", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: matrix JSON") and message in err

    def test_short_curve_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "c.txt"
        e = make_ellipse(1.4, 0.9, n=16)
        save_curve(JordanCurve("sampled", e.params[::2], e.points[::2], e.derivs[::2], ()), path)
        for k in ((), ("--K", "4")):
            code, out, err = run_cli(capsys, "toeplitz", "--curve-file", str(path), *k)
            assert code == 2 and out == ""
            assert err == f"error: {path}: need at least 16 samples, got 8\n"

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

    @pytest.mark.parametrize("n", ["0", "1"])
    @pytest.mark.parametrize("mode", [(), ("--persistence",)])
    def test_too_few_nodes_exit_2(self, capsys, n, mode):
        code, out, err = run_cli(capsys, "galerkin", "--b", "2", "--q", "1", "--r", "1", "--N", n, *mode)
        assert code == 2 and out == ""
        assert err == f"error: need at least 16 nodes, got {n}\n"

    @pytest.mark.parametrize("curve", [("--ellipse", "1.4,0.9"), ("--curve-file", "missing.txt")])
    def test_persistence_rejects_curve_options(self, capsys, tmp_path, curve):
        # Persistence is decided on the circle of radius --r only; no other curve is read.
        option, value = curve
        value = str(tmp_path / value) if option == "--curve-file" else value
        code, out, err = run_cli(capsys, "galerkin", "--b", "2", "--q", "1", "--persistence", option, value)
        assert code == 2 and out == ""
        assert err.startswith("error: --persistence") and "--ellipse" in err and "--curve-file" in err

    def test_persistence_rejects_K_below_a_witness(self, capsys):
        code, out, err = run_cli(
            capsys, "galerkin", "--b", "2", "--q", "2", "--r", repr(math.sqrt(2.0)), "--K", "3", "--persistence",
        )
        assert code == 2
        assert out == ""
        assert "k = 4" in err and "K = 3" in err


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
