import ast
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
from landaudelta.curves import JordanCurve, make_circle, make_ellipse, save_curve, save_weight
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

    def test_explicit_sets_csv_rows(self, capsys):
        # One "set,index,r" row per radius, %.17g; at b = 2 each r is sqrt(t):
        # D2 holds t = 2 - sqrt 2, 3 - sqrt 3, 2 (reached by both branches), 2 + sqrt 2, 3 + sqrt 3.
        code, out, _ = run_cli(capsys, "census", "--b", "2", "--q", "1", "--explicit", "3")
        assert code == 0
        assert out == (
            "set,index,r\n"
            "D1,1,1\nD1,2,1.4142135623730951\nD1,3,1.7320508075688772\n"
            "D2,1,0.76536686473017945\nD2,2,1.1260325006104943\nD2,3,1.4142135623730951\n"
            "D2,4,1.8477590650225735\nD2,5,2.1753277471610746\n"
            "D22,1,1.4142135623730951\nD22,2,2.4494897427831779\nD22,3,3.4641016151377544\n"
            "D21,1,0.76536686473017945\nD21,2,1.1260325006104943\n"
            "D21,3,1.8477590650225735\nD21,4,2.1753277471610746\n"
        )

    def test_eta_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "census", "--b", "2", "--q", "2", "--eta",
            "--alpha-min", "-1", "--alpha-max", "1", "--alpha-step", "0.5",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,eta_1,eta_2"
        assert len(lines) == 6

    def test_eta_and_explicit_exclusive(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["census", "--q", "2", "--eta", "--explicit", "3"])
        assert err.value.code == 2
        assert "argument --explicit: not allowed with argument --eta" in capsys.readouterr().err

    @pytest.mark.parametrize("step", ["0", "-0.5", "nan"])
    def test_eta_step_must_be_positive(self, capsys, step):
        code, out, err = run_cli(capsys, "census", "--q", "2", "--eta", "--alpha-step", step)
        assert code == 2 and out == ""
        assert err.startswith("error: --alpha-step must be positive")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--q", "2", "--eta", "--format", "json"), "--eta prints CSV only; drop --format json"),
            (("--q", "0", "--eta"), "eta curves require q >= 1"),
        ],
    )
    def test_malformed_eta_exit_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "census", *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


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
        calls = {"eigenvalues": 0, "spectrum": 0}

        def counting(name):
            original = getattr(toeplitz, name)

            def counted(matrix):
                calls[name] += 1
                return original(matrix)

            return counted

        full = counting("spectrum")
        monkeypatch.setattr(cli, "spectrum", full)
        monkeypatch.setattr(toeplitz, "spectrum", full)
        monkeypatch.setattr(toeplitz, "eigenvalues", counting("eigenvalues"))
        code, out, _ = run_cli(
            capsys, "toeplitz", "--b", "2", "--q", "1", "--r", "1", "--K", "6",
            "--N", "256", "--kernel", "--no-resolution-check",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 1
        assert payload["census_multiplicity"] == 1
        # Eigenvalues only: one call of the eigenvalue door, no eigenvector solve.
        assert calls == {"eigenvalues": 1, "spectrum": 0}

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

    def test_kinked_weight_table_warns_without_the_check(self, capsys, tmp_path):
        # The Fourier tail of the table flags the matrix though no N -> 2N check ran.
        path = tmp_path / "w.txt"
        t = np.linspace(0.0, 2 * math.pi, 200, endpoint=False)
        path.write_text("# weight v1\n" + "".join(f"{ti:.17g} {abs(math.sin(ti)):.17g}\n" for ti in t))
        code, out, err = run_cli(
            capsys, "toeplitz", "--b", "2", "--q", "1", "--ellipse", "1.4,0.9", "--K", "4",
            "--weight-file", str(path), "--no-resolution-check",
        )
        assert code == 0 and out.startswith("index,eigenvalue,residual\n")
        assert re.fullmatch(r"warning: quadrature underresolved \(weight tail 2\.\d{3}e-04\)\n", err)

    @pytest.mark.parametrize("extra, causes", [
        ((), r"weight tail 2\.999e-03"),
        (("--N", "16"), r"doubling N moves entries by 2\.284e-02, weight tail 2\.999e-03"),
    ])
    def test_underresolution_warning_names_only_the_indicators_past_their_bound(self, capsys, tmp_path, extra, causes):
        # A 256-row ellipse file with a jump in the weight: the curve tail (1.2e-16), and the doubling's
        # 2.2e-16 at the adaptive N, are below the bound 1e-7 and not named; toeplitz._compress lists the
        # indicators that tripped in provenance, in the warning's order.
        curve_path, weight_path, export = tmp_path / "c.txt", tmp_path / "w.txt", tmp_path / "m.json"
        save_curve(make_ellipse(1.4, 0.9, n=256), curve_path)
        t = np.arange(256) * (2 * math.pi / 256)
        save_weight(t, 1.0 + (t < 2), weight_path)
        code, out, err = run_cli(capsys, "toeplitz", "--b", "2", "--q", "0", "--K", "10", "--curve-file", str(curve_path),
                                 "--weight-file", str(weight_path), "--export", str(export), *extra)
        assert code == 0 and out.startswith("index,eigenvalue,residual\n")
        assert re.fullmatch(rf"warning: quadrature underresolved \({causes}\)\n", err)
        meta = json.loads(export.read_text())["meta"]
        named = ["refinement_delta", "weight_tail"] if extra else ["weight_tail"]
        assert meta["underresolved"] is True and meta["provenance"]["underresolved_by"] == named
        # Unflagged: no warning, and no such key.
        code, out, err = run_cli(capsys, "toeplitz", "--b", "2", "--q", "0", "--K", "10", "--curve-file", str(curve_path),
                                 "--export", str(export))
        meta = json.loads(export.read_text())["meta"]
        assert (code, err, meta["underresolved"]) == (0, "", False) and "underresolved_by" not in meta["provenance"]

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
            ({"meta": {"q": 0, "K": 1.5, "b": 1.0, "provenance": {}}, "re": [[1.0, 0.0], [0.0, 1.0]],
              "im": [[0.0, 0.0], [0.0, 0.0]]}, "q, K and b numbers"),
            ({"meta": {"q": 0, "K": True, "b": 1.0, "provenance": {}}, "re": [[1.0, 0.0], [0.0, 1.0]],
              "im": [[0.0, 0.0], [0.0, 0.0]]}, "q, K and b numbers"),
            ({"meta": {"q": 0, "K": "1", "b": 1.0, "provenance": {}}, "re": [[1.0, 0.0], [0.0, 1.0]],
              "im": [[0.0, 0.0], [0.0, 0.0]]}, "q, K and b numbers"),
            ({"meta": {"q": 0, "K": 1.0, "b": 1.0, "provenance": {}}, "re": [[1.0, 0.0], [0.0, 1.0]],
              "im": [[0.0, 0.0], [0.0, 0.0]]}, "q, K and b numbers"),
            ({"meta": {"q": 0.5, "K": 0, "b": 1.0, "provenance": {}}, "re": [[1.0]], "im": [[0.0]]}, "q, K and b numbers"),
            ({"meta": {"q": False, "K": 0, "b": 1.0, "provenance": {}}, "re": [[1.0]], "im": [[0.0]]}, "q, K and b numbers"),
            ({"meta": {"q": "0", "K": 0, "b": 1.0, "provenance": {}}, "re": [[1.0]], "im": [[0.0]]}, "q, K and b numbers"),
            ({"meta": {"q": 0, "K": 0, "b": "2", "provenance": {}}, "re": [[1.0]], "im": [[0.0]]}, "q, K and b numbers"),
            ({"meta": {"q": 0, "K": 0, "b": True, "provenance": {}}, "re": [[1.0]], "im": [[0.0]]}, "q, K and b numbers"),
            ({"meta": {"q": -3, "K": 0, "b": 1.0, "provenance": {}}, "re": [[1.0]], "im": [[0.0]]},
             "need q >= 0 and a finite b > 0, got q=-3, b=1.0"),
            ({"meta": {"q": 0, "K": 0, "b": math.nan, "provenance": {}}, "re": [[1.0]], "im": [[0.0]]},
             "need q >= 0 and a finite b > 0, got q=0, b=nan"),
            ({"meta": {"q": 0, "K": 0, "b": -math.inf, "provenance": {}}, "re": [[1.0]], "im": [[0.0]]},
             "need q >= 0 and a finite b > 0"),
            ({"meta": {"q": 0, "K": 0, "b": 0, "provenance": {}}, "re": [[1.0]], "im": [[0.0]]},
             "need q >= 0 and a finite b > 0"),
            ({"meta": {"q": 0, "K": 0, "b": 10**400, "provenance": {}}, "re": [[1.0]], "im": [[0.0]]},
             "q, K and b numbers"),
            ({"meta": {"q": 0, "K": 1, "b": 1.0, "provenance": {}}, "re": [[1.0, 0.0], [0.0, math.inf]],
              "im": [[0.0, 0.0], [0.0, 0.0]]}, "re and im must hold finite numbers"),
            ({"meta": {"q": 0, "K": 0, "b": 1.0, "provenance": {}}, "re": [[1.0]], "im": [[math.nan]]},
             "re and im must hold finite numbers"),
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

    def test_circle_file_truncates_like_the_circle(self, capsys, tmp_path):
        # At t = 5 - sqrt(5) (b = 2) phi_{5,2} vanishes on the circle, past
        # k = q + t: that lone zero must not end the sweep on the samples.
        r = math.sqrt(5.0 - math.sqrt(5.0))
        path = tmp_path / "circle.txt"
        save_curve(make_circle(r, n=256), path)
        rows = []
        for curve in (("--curve-file", str(path)), ("--r", repr(r))):
            code, out, _ = run_cli(capsys, "toeplitz", "--b", "2", "--q", "2", *curve)
            assert code == 0
            rows.append(len(out.strip().splitlines()) - 1)
        assert rows[0] == rows[1] > 6

    def test_import_accepts_integral_b(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"meta": {"q": 0, "K": 0, "b": 2, "provenance": {}}, "re": [[1.0]], "im": [[0.0]]}))
        assert toeplitz.matrix_from_json(path.read_text()).b == 2.0
        code, out, _ = run_cli(capsys, "toeplitz", "--import", str(path))
        assert code == 0 and out == "index,eigenvalue,residual\n0,1,0\n"

    @pytest.mark.parametrize("command", ["toeplitz", "galerkin"])
    @pytest.mark.parametrize(
        "mix", [("--ellipse", "1.4,0.9", "--r", "2.5"), ("--r", "2.5", "--curve-file", "c.txt"),
                ("--ellipse", "1.4,0.9", "--curve-file", "c.txt")],
    )
    def test_curve_options_exclusive(self, capsys, command, mix):
        with pytest.raises(SystemExit) as err:
            main([command, *mix])
        assert err.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["toeplitz", "galerkin"])
    def test_weight_options_exclusive(self, capsys, command):
        with pytest.raises(SystemExit) as err:
            main([command, "--weight", "3", "--weight-file", "w.txt"])
        assert err.value.code == 2
        assert "argument --weight-file: not allowed with argument --weight" in capsys.readouterr().err

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

    def test_level_without_eigenvalues_writes_null_offsets(self, capsys):
        # Level 0 holds no eigenvalue here; its offsets used to print as NaN, which is not JSON (RFC 8259).
        code, out, _ = run_cli(capsys, "galerkin", "--b", "2", "--q", "0", "--Q", "2", "--r", "1", "--weight", "2000", "--K", "2")

        def refuse(constant):
            raise AssertionError(f"not JSON: {constant}")

        levels = json.loads(out, parse_constant=refuse)["levels"]
        assert code == 0 and levels[0]["count"] == 0
        assert levels[0]["min_offset"] is None and levels[0]["max_offset"] is None
        assert levels[1]["count"] == 2 and levels[1]["min_offset"] == 0.0

    def test_persistence_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "galerkin", "--b", "2", "--q", "1", "--r", "1", "--persistence",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["persists"] is True
        assert payload["witnesses"] == [1]

    def test_persistence_json_records_the_cuts(self, capsys):
        # Every level's cut, and level q's as K; an explicit K is every level's.
        for extra, square in (((), False), (("--K", "9"), True)):
            code, out, _ = run_cli(capsys, "galerkin", "--b", "2", "--q", "1", "--r", "1", "--persistence", *extra)
            details = json.loads(out)["details"]
            cuts = details["cuts"]
            assert code == 0 and len(cuts) == details["Q"] + 1 == 4 and cuts[1] == details["K"]
            assert (cuts == [9] * 4) if square else (len(set(cuts)) > 1)

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

    @pytest.mark.parametrize("flags, named", [
        (("--sign", "-1"), "--sign"), (("--sign", "1"), "--sign"),
        (("--no-resolution-check",), "--no-resolution-check"),
    ])
    def test_persistence_rejects_sign_and_resolution_flags(self, capsys, flags, named):
        # The check runs both signs on an unchecked coupling; a flag that cannot act is refused.
        code, out, err = run_cli(capsys, "galerkin", "--b", "2", "--q", "1", "--r", "1", "--persistence", *flags)
        assert (code, out) == (2, "")
        assert err == f"error: --persistence runs both signs, without a resolution check; drop {named}\n"

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

    def test_json_one_object_per_check(self, capsys):
        from landaudelta.verify import CHECKS

        code, out, _ = run_cli(capsys, "verify", "--format", "json")
        records = [json.loads(line) for line in out.splitlines()]
        assert code == 0
        assert [r["name"] for r in records] == [name for name, _ in CHECKS]
        for r in records:
            assert list(r) == ["name", "passed", "detail", "seconds"]
            assert r["passed"] is True and type(r["detail"]) is str and r["seconds"] >= 0.0

    def test_failing_check_exits_1_in_both_formats(self, capsys, monkeypatch):
        from landaudelta import verify

        def broken():
            raise RuntimeError("forced")

        checks = [("always-passes", lambda: (True, "ok")), ("always-fails", lambda: (False, "forced")),
                  ("raises", broken)]
        monkeypatch.setattr(verify, "CHECKS", checks)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert out.splitlines() == ["PASS always-passes: ok", "FAIL always-fails: forced",
                                    "FAIL raises: raised RuntimeError: forced", "1/3 checks passed"]
        code, out, _ = run_cli(capsys, "verify", "--format", "json")
        assert code == 1
        records = [json.loads(line) for line in out.splitlines()]
        assert [(r["name"], r["passed"], r["detail"]) for r in records] == [
            ("always-passes", True, "ok"), ("always-fails", False, "forced"),
            ("raises", False, "raised RuntimeError: forced")]


def cli_in_child(argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "landaudelta.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=30)


@pytest.mark.parametrize("argv, message", [
    (["census", "--q", "1", "--rmax", "inf"], "error: r_max must be positive and finite, got inf"),
    (["census", "--q", "1", "--b", "inf"], "error: field strength must be positive and finite, got inf"),
    (["galerkin", "--persistence", "--q", "1", "--r", "inf"], "error: radius must be positive and finite, got inf"),
    (["toeplitz", "--ellipse", "inf,1"], "error: semi-axes must be positive and finite, got a=inf, b=1.0"),
])
def test_non_finite_inputs_exit_2_without_hanging(argv, message):
    # In a child process with a timeout: the first three used to grow a zero table without end.
    proc = cli_in_child(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message + "\n")


@pytest.mark.parametrize("argv, message", [
    (["laguerre", "zeros", "--q", "2", "--alpha", "inf"], "alpha must be finite, got inf"),
    (["laguerre", "zeros", "--q", "2", "--alpha", "nan"], "alpha must be finite, got nan"),
    (["census", "--q", "2", "--eta", "--alpha-min", "nan"], "--alpha-min must be finite, got nan"),
    (["census", "--q", "2", "--eta", "--alpha-max", "inf"], "--alpha-max must be finite, got inf"),
    (["laguerre", "eval", "--q", "2", "--alpha", "0.5", "--t", "nan"], "--t must be finite, got nan"),
    (["laguerre", "eval", "--q", "2", "--alpha", "0.5", "--t", "inf"], "--t must be finite, got inf"),
])
def test_non_finite_real_options_exit_2(capsys, argv, message):
    # In process: any exception but the refusal would propagate as a traceback.
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


class GridBuilt(Exception):
    pass


@pytest.mark.parametrize("bounds, built", [
    (["--alpha-max", "1e300"], False),
    (["--alpha-max", "1e9"], False),
    (["--alpha-min=-1e308", "--alpha-max", "1e308"], False),  # the span overflows
    (["--alpha-max", "1e308", "--alpha-step", "1.7e308"], False),  # --alpha-max + step / 2 overflows
    (["--alpha-max", "15000000"], False),  # 30,000,001 parameters: one past the limit
    (["--alpha-max", "14999999.5"], True),  # 30,000,000 parameters: at the limit, built
])
def test_eta_grid_refused_by_its_length_before_it_is_built(capsys, monkeypatch, bounds, built):
    # np.arange is stubbed: no grid is ever allocated, here or on a tree without the bound.
    def arange(start, stop, step):
        assert (stop - start) / step <= cli.TABLE_CELLS_MAX, "unbounded grid built"
        raise GridBuilt

    monkeypatch.setattr(np, "arange", arange)
    argv = ["census", "--q", "2", "--eta", *bounds]
    if built:
        with pytest.raises(GridBuilt):
            main(argv)
        return
    assert run_cli(capsys, *argv) == (
        2, "", "error: the --alpha-min, --alpha-max, --alpha-step grid is longer than TABLE_CELLS_MAX = 3e+07\n")


@pytest.mark.parametrize("argv, message", [
    (["census", "--q", "1", "--b", "1e300", "--rmax", "3"],
     "error: t = b r_max^2 / 2 = 4.5000000000000005e+300 is past the census limit T_MAX = 10000"),
    (["galerkin", "--persistence", "--q", "1", "--b", "2", "--r", "1e4"],
     "error: t = b r^2 / 2 = 100000000.0 is past the census limit T_MAX = 10000"),
    # b r^2 overflows: refused before any basis value, with no numpy warning on stderr.
    (["toeplitz", "--b", "1e300", "--r", "1e10", "--K", "3"],
     "error: t = b r^2 / 2 is past the double range at b = 1e+300, r = 1e+10"),
    # A default K is refused the same way: no K can help there.
    (["toeplitz", "--b", "1e300", "--r", "1e10"],
     "error: t = b r^2 / 2 is past the double range at b = 1e+300, r = 1e+10"),
    (["galerkin", "--b", "1e300", "--r", "1e10", "--Q", "1"],
     "error: t = b r^2 / 2 is past the double range at b = 1e+300, r = 1e+10"),
    # t = T_MAX itself, but a level whose zero table there ran past 40 s: refused by its cell count.
    (["census", "--q", "300", "--b", "2", "--rmax", "100"],
     "error: q = 300 at t = b r_max^2 / 2 = 10000.0 is past the census limit "
     "q^2 (sqrt(q) + sqrt(t))^2 <= TABLE_CELLS_MAX = 3e+07"),
    # L_200^(k-200)(2999.75) is past the double range: refused by name, with no numpy warning, with or
    # without K (it used to print "matrix has non-finite entries", or advise passing a K).
    (["toeplitz", "--b", "2", "--q", "200", "--r", "54.77", "--K", "210"],
     "error: Laguerre factor of phi_(k,q) is not finite at q = 200, t = 2999.75: past the double range"),
    (["toeplitz", "--b", "2", "--q", "200", "--r", "54.77"],
     "error: Laguerre factor of phi_(k,q) is not finite at q = 200, t = 2999.75: past the double range"),
])
def test_huge_finite_t_exits_2_without_hanging(argv, message):
    # Finite inputs with a huge t = b r^2 / 2, or a huge table below it, used to grow a zero table
    # until stopped (still running after 5 s).
    proc = cli_in_child(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message + "\n")


@pytest.mark.parametrize("argv, code, message", [
    # t = 625: no certified tail below MAX_TRUNCATION; an explicit K is used.
    (["toeplitz", "--b", "2", "--q", "1", "--r", "25", "--kernel"], 2,
     "error: level 1: no certified tail below MAX_TRUNCATION = 512 at t_peak = 625; pass K\n"),
    (["toeplitz", "--b", "2", "--q", "1", "--r", "25", "--K", "20", "--N", "64", "--kernel"], 0, ""),
    # Every entry underflows: at t = T_MAX the census value is attached, past it refused.
    (["toeplitz", "--b", "2", "--q", "1", "--r", "100", "--K", "4", "--kernel"], 0, ""),
    (["toeplitz", "--b", "2", "--q", "1", "--r", "200", "--K", "4", "--kernel"], 2,
     "error: t = b r^2 / 2 = 40000.0 is past the census limit T_MAX = 10000\n"),
], ids=["default-K-past-the-cap", "explicit-K", "underflow-at-T_MAX", "underflow-past-T_MAX"])
def test_far_circles_exit_as_documented(argv, code, message):
    proc = cli_in_child(argv)
    assert (proc.returncode, proc.stderr) == (code, message)
    if code == 0:
        estimate = json.loads(proc.stdout)
        assert estimate["census_multiplicity"] == 1
        assert ("underflow" in estimate["note"]) == ("100" in argv)


def test_python_dash_m_runs_the_cli():
    # python -m landaudelta from a checkout: src on PYTHONPATH, nothing installed.
    from landaudelta.verify import CHECKS

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "landaudelta", "verify", "--format", "json"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["name"] for r in records] == [name for name, _ in CHECKS]
    assert all(r["passed"] is True for r in records)


def test_verify_leaks_no_runtime_warning():
    # Every check passes with numpy's RuntimeWarnings (overflow, invalid value) turned into errors.
    from landaudelta.verify import CHECKS

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "landaudelta", "verify"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1] == f"{len(CHECKS)}/{len(CHECKS)} checks passed"


def test_import_leaves_scipy_unloaded():
    # Only the verify subcommand needs scipy; importing the package or the CLI must not load it.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for module in ("landaudelta", "landaudelta.cli"):
        code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]", f"import {module} loaded {proc.stdout.strip()}"


# Malformed sample files: every case of both formats, through both subcommands that read files.
HEADERS = {"curve": "# jordan-curve v1", "weight": "# weight v1"}
FILE_OPTIONS = {"curve": ["--curve-file"], "weight": ["--ellipse", "1.3,0.8", "--weight-file"]}
FILE_CASES = ["no-header", "no-rows", "wrong-columns", "non-finite", "decreasing", "repeated", "below-zero",
              "past-2pi", "closing-row", "off-grid"]


def _grid_rows(fmt, n=32, closing=False):
    """n rows of a curve or weight file on the grid 2 pi j / n, and with closing, the row at t = 2 pi."""
    t = np.linspace(0.0, 2 * math.pi, n + 1)[: n + closing]
    if fmt == "curve":
        return np.column_stack([t, np.cos(t), np.sin(t), -np.sin(t), np.cos(t)])
    return np.column_stack([t, 1.0 + 0.5 * np.cos(t)])


def _spoilt(case, fmt):
    """(header, rows) of the malformed file case, and the refusal after its path."""
    rows, header = _grid_rows(fmt, closing=case in ("closing-row", "past-2pi")), HEADERS[fmt]
    if case == "no-header":
        return None, rows, f"expected header line {header!r}"
    if case == "no-rows":
        return header, rows[:0], "no data rows"
    if case == "wrong-columns":
        return header, np.column_stack([rows, rows[:, 1]]), f"expected {rows.shape[1]} columns, got {rows.shape[1] + 1}"
    if case == "short":
        return header, _grid_rows(fmt, n=8), "need at least 16 samples, got 8"
    spoil, message = {
        "non-finite": ((3, 1, math.nan), "non-finite values"),
        "decreasing": ((4, 0, rows[2, 0] - 0.01), "parameter column must be strictly increasing"),
        "repeated": ((4, 0, rows[3, 0]), "parameter column must be strictly increasing"),
        "below-zero": ((0, 0, -0.1), "parameters must lie in [0, 2pi)"),
        "past-2pi": ((-1, 0, 7.0), "parameters must lie in [0, 2pi)"),
        "closing-row": ((-1, 1, rows[0, 1] + 0.5), "closing row at t = 2pi differs from the first row by 5.000e-01"),
        "off-grid": ((7, 0, rows[7, 0] + 0.01), "samples must sit on the uniform grid 2*pi*j/N"),
    }[case]
    rows[spoil[:2]] = spoil[2]
    return header, rows, message


def _run_on_file(subcommand, fmt, path, header, rows):
    lines = [header] * (header is not None) + [" ".join(f"{x:.17g}" for x in row) for row in rows]
    path.write_text("".join(line + "\n" for line in lines))
    return cli_in_child([subcommand, "--b", "2", "--q", "1", "--K", "4", "--N", "64", *FILE_OPTIONS[fmt], str(path)])


@pytest.mark.parametrize("subcommand", ["toeplitz", "galerkin"])
@pytest.mark.parametrize("fmt, case", [(fmt, case) for fmt in HEADERS for case in FILE_CASES] + [("curve", "short")])
def test_malformed_sample_file_exits_2_naming_it(tmp_path, subcommand, fmt, case):
    # In a child process: one stderr line naming the file, no traceback and no numpy warning.
    path = tmp_path / f"{fmt}.txt"
    header, rows, message = _spoilt(case, fmt)
    proc = _run_on_file(subcommand, fmt, path, header, rows)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {path}: {message}\n")


@pytest.mark.parametrize("subcommand", ["toeplitz", "galerkin"])
@pytest.mark.parametrize("fmt", list(HEADERS))
def test_matching_closing_row_is_dropped(tmp_path, subcommand, fmt):
    path = tmp_path / f"{fmt}.txt"
    closed = _run_on_file(subcommand, fmt, path, HEADERS[fmt], _grid_rows(fmt, closing=True))
    assert (closed.returncode, closed.stderr) == (0, "")
    assert closed.stdout == _run_on_file(subcommand, fmt, path, HEADERS[fmt], _grid_rows(fmt)).stdout


def test_every_json_writer_refuses_nan():
    # NaN and Infinity are not JSON: every json.dumps in src/ passes allow_nan=False, so none is ever written.
    src = Path(__file__).resolve().parents[1] / "src" / "landaudelta"
    calls = [
        node for path in sorted(src.glob("*.py")) for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "json.dumps"
    ]
    assert len(calls) == 8
    for call in calls:
        assert any(kw.arg == "allow_nan" and ast.unparse(kw.value) == "False" for kw in call.keywords), ast.unparse(call)
