import math
import re
import warnings

import numpy as np
import pytest

from landaudelta.curves import (
    SIGN_INDEFINITE,
    SIGN_NONNEGATIVE,
    SIGN_NONPOSITIVE,
    JordanCurve,
    arclength_rule,
    load_curve,
    load_weight,
    make_circle,
    make_ellipse,
    save_curve,
    save_weight,
)


class TestCircle:
    def test_circumference(self):
        for r, n in ((1.0, 64), (2.0, 128)):
            _, w = arclength_rule(make_circle(r, n=n), n)
            assert np.sum(w) == pytest.approx(2 * math.pi * r, abs=1e-12)

    def test_tangent_orthogonal_to_radius(self):
        c = make_circle(1.5, n=64)
        dots = np.sum(c.points * c.derivs, axis=1)
        assert np.max(np.abs(dots)) < 1e-13

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            make_circle(0.0)
        with pytest.raises(ValueError):
            make_circle(-2.0)

    def test_harmonic_exactness(self):
        n = 256
        pts, w = arclength_rule(make_circle(1.0, n=n), n)
        theta = np.arctan2(pts[:, 1], pts[:, 0])
        for m in (1, 3, 50, n // 2 - 1):
            assert abs(np.sum(np.exp(1j * m * theta) * w)) < 1e-12


class TestEllipse:
    def test_arclength_against_refined_trapezoid(self):
        a, b = 2.0, 1.0
        n_ref = 10**6
        t = np.linspace(0.0, 2 * math.pi, n_ref, endpoint=False)
        ref = np.sum(np.hypot(-a * np.sin(t), b * np.cos(t))) * (2 * math.pi / n_ref)
        _, w = arclength_rule(make_ellipse(a, b, n=512), 512)
        assert np.sum(w) == pytest.approx(ref, abs=1e-10)

    def test_self_convergence_beyond_256(self):
        f = lambda p: np.exp(np.sin(p[:, 0])) * np.cos(p[:, 1])
        vals = []
        for n in (256, 512, 1024):
            pts, w = arclength_rule(make_ellipse(2.0, 1.0, n=n), n)
            vals.append(float(np.sum(f(pts) * w)))
        assert abs(vals[1] - vals[0]) < 1e-10
        assert abs(vals[2] - vals[1]) < 1e-10

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            arclength_rule(make_ellipse(2.0, 1.0, n=64), 8)


class TestRegularity:
    def test_vanishing_derivative_rejected(self):
        t = np.linspace(0.0, 2 * math.pi, 32, endpoint=False)
        pts = np.column_stack([np.cos(t), np.sin(t)])
        der = np.column_stack([-np.sin(t), np.cos(t)])
        der[3] = 0.0
        with pytest.raises(ValueError):
            JordanCurve("sampled", t, pts, der, ())


class TestWeights:
    def test_constant_nonnegative(self):
        wc = load_weight(make_circle(1.0, n=64), 1.0)
        assert wc.sign_class == SIGN_NONNEGATIVE
        assert np.all(wc.values == 1.0)

    def test_cosine_indefinite(self):
        wc = load_weight(make_circle(1.0, n=64), lambda t: np.cos(t))
        assert wc.sign_class == SIGN_INDEFINITE

    def test_negative_envelope_nonpositive(self):
        wc = load_weight(make_circle(1.0, n=64), lambda t: -np.abs(np.sin(t)))
        assert wc.sign_class == SIGN_NONPOSITIVE

    def test_zero_weight_classified_nonnegative(self):
        wc = load_weight(make_circle(1.0, n=64), 0.0)
        assert wc.sign_class == SIGN_NONNEGATIVE

    def test_array_weight_roundtrip(self):
        curve = make_circle(1.0, n=64)
        values = np.sin(curve.params) + 2.0
        wc = load_weight(curve, values)
        assert np.allclose(wc.values, values)
        finer = wc.resample(128)
        assert finer.values.size == 128
        assert np.allclose(finer.values[::2], values, atol=1e-12)

    def test_nonfinite_rejected(self):
        curve = make_circle(1.0, n=64)
        bad = np.ones(64)
        bad[5] = np.nan
        with pytest.raises(ValueError):
            load_weight(curve, bad)

    def test_file_roundtrip(self, tmp_path):
        curve = make_circle(1.0, n=128)
        t = np.linspace(0.0, 2 * math.pi, 60, endpoint=False)
        v = 1.0 + 0.5 * np.sin(t)
        path = tmp_path / "w.txt"
        save_weight(t, v, path)
        wc = load_weight(curve, path)
        assert wc.sign_class == SIGN_NONNEGATIVE
        assert np.allclose(wc.values, 1.0 + 0.5 * np.sin(curve.params), atol=2e-3)

    def test_file_is_its_table(self, tmp_path):
        # A weight file reaches the nodes through the (t, v) table path.
        t = np.linspace(0.0, 2 * math.pi, 37, endpoint=False)
        v = 1.0 + 0.5 * np.sin(t) - 0.2 * np.cos(3 * t)
        path = tmp_path / "w.txt"
        save_weight(t, v, path)
        for n in (64, 97):
            from_file = load_weight(make_ellipse(1.3, 0.8, n=n), path)
            from_table = load_weight(make_ellipse(1.3, 0.8, n=n), (t, v))
            assert from_file.values.tobytes() == from_table.values.tobytes()
            assert from_file.describe() == from_table.describe() == "sampled"
            assert from_file.resample(2 * n).values.tobytes() == from_table.resample(2 * n).values.tobytes()

    def test_non_monotone_parameter_rejected(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("# weight v1\n0.0 1.0\n2.0 1.0\n1.0 1.0\n")
        with pytest.raises(ValueError):
            load_weight(make_circle(1.0, n=64), path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("0.0 1.0\n")
        with pytest.raises(ValueError):
            load_weight(make_circle(1.0, n=64), path)


class TestCurveFiles:
    def test_roundtrip(self, tmp_path):
        c = make_ellipse(2.0, 1.0, n=64)
        path = tmp_path / "c.txt"
        save_curve(c, path)
        loaded = load_curve(path)
        assert loaded.kind == "sampled"
        assert np.allclose(loaded.points, c.points, atol=1e-15)
        assert np.allclose(loaded.derivs, c.derivs, atol=1e-15)

    def test_open_arc_rejected(self, tmp_path):
        lines = ["# jordan-curve v1"]
        n = 32
        for j in range(n + 1):  # duplicated endpoint that fails to close
            t = 2 * math.pi * j / n
            lines.append(f"{t} {math.cos(t) + (0.5 if j == n else 0.0)} {math.sin(t)} {-math.sin(t)} {math.cos(t)}")
        path = tmp_path / "c.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            load_curve(path)

    def test_duplicated_closing_row_dropped(self, tmp_path):
        lines = ["# jordan-curve v1"]
        n = 32
        for j in range(n + 1):
            t = 2 * math.pi * j / n
            lines.append(f"{t:.17g} {math.cos(t):.17g} {math.sin(t):.17g} {-math.sin(t):.17g} {math.cos(t):.17g}")
        path = tmp_path / "c.txt"
        path.write_text("\n".join(lines) + "\n")
        loaded = load_curve(path)
        assert loaded.n_nodes == n

    def test_fewer_than_16_rows_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        c = make_circle(1.0, n=16)
        save_curve(JordanCurve("sampled", c.params[::2], c.points[::2], c.derivs[::2], ()), path)
        with pytest.raises(ValueError, match=re.escape(f"{path}: need at least 16 samples, got 8")):
            load_curve(path)
        save_curve(make_circle(1.0, n=16), path)
        assert load_curve(path).n_nodes == 16

    def test_reparametrization_invariance(self):
        n = 2048
        t = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
        s = t + 0.3 * np.sin(t)
        ds = 1.0 + 0.3 * np.cos(t)
        pts = np.column_stack([2.0 * np.cos(s), np.sin(s)])
        der = np.column_stack([-2.0 * np.sin(s) * ds, np.cos(s) * ds])
        reparam = JordanCurve("sampled", t, pts, der, ())
        f = lambda p: np.exp(np.sin(p[:, 0])) + p[:, 1] ** 2
        p1, w1 = arclength_rule(make_ellipse(2.0, 1.0, n=n), n)
        p2, w2 = arclength_rule(reparam, n)
        assert np.sum(f(p1) * w1) == pytest.approx(np.sum(f(p2) * w2), abs=1e-9)


class TestNestedRules:
    """The even nodes of the 2n rule are the n rule.

    The N -> 2N resolution check of toeplitz reuses the n-node sum on this
    invariant, so any resampling scheme has to keep it to rounding.
    """

    def test_even_nodes_of_2n_rule_are_the_n_rule(self, tmp_path):
        ellipse = make_ellipse(1.4, 0.9, n=1024)
        native = make_ellipse(1.4, 0.9, n=97)  # 97 nodes: n = 97 keeps the native samples, other n interpolate
        sampled = JordanCurve("sampled", native.params, native.points, native.derivs, ())
        path = tmp_path / "weight.txt"
        grid = np.linspace(0.0, 2 * math.pi, 61, endpoint=False)
        save_weight(grid, 1.5 + np.sin(grid) * np.cos(3 * grid), path)
        cases = (
            (ellipse, lambda t: 1.0 + 0.4 * np.cos(2 * t)),
            (sampled, 1.0),
            (ellipse, str(path)),
            (sampled, str(path)),
            (sampled, 2.0 + np.cos(native.params) - 0.5 * np.sin(3 * native.params)),
        )
        tol = 1e-14
        for curve, weight in cases:
            wc = load_weight(curve, weight)
            for n in (64, 97, 256, 1000):
                coarse, fine = wc.resample(n), wc.resample(2 * n)
                points, ds = arclength_rule(coarse.curve, n)
                fine_points, fine_ds = arclength_rule(fine.curve, 2 * n)
                assert np.max(np.abs(fine_points[::2] - points)) <= tol * np.max(np.abs(points))
                assert np.max(np.abs(2.0 * fine_ds[::2] - ds)) <= tol * np.max(ds)
                assert np.max(np.abs(fine.values[::2] - coarse.values)) <= tol * np.max(np.abs(coarse.values))


class TestTableIO:
    """One reader, one writer and one periodic interpolant for curve and weight tables."""

    SAMPLES = [0.0, -0.0, 0.1, -math.pi, 1e-300, -2.5e300, 5e-324, 1.7976931348623157e308, 123456789.0]

    def test_writers_emit_golden_lines(self, tmp_path):
        v = np.array(self.SAMPLES)
        t = np.linspace(0.0, 2 * math.pi, v.size, endpoint=False)
        path = tmp_path / "w.txt"
        save_weight(t, v, path)
        golden = "# weight v1\n" + "".join(f"{a:.17g} {b:.17g}\n" for a, b in zip(t, v))
        assert path.read_bytes() == golden.encode()
        c = make_ellipse(1.3, 0.7, n=16)
        save_curve(c, path)
        rows = zip(c.params, c.points, c.derivs)
        golden = "# jordan-curve v1\n" + "".join(
            f"{a:.17g} {p[0]:.17g} {p[1]:.17g} {d[0]:.17g} {d[1]:.17g}\n" for a, p, d in rows
        )
        assert path.read_bytes() == golden.encode()

    def test_reader_parses_like_float(self, tmp_path):
        rng = np.random.default_rng(7)
        n = 48
        texts = [f"{m:.17g}e{e}" for m, e in zip(rng.uniform(-10, 10, 4 * n), rng.integers(-308, 300, 4 * n))]
        texts[:6] = ["1E+300", "-2.5e-301", "4.9e-324", "0.30000000000000004", "  7 ", "-0"]
        t = [f"{2 * math.pi * j / n!r}" for j in range(n)]
        lines = ["# jordan-curve v1", "# a comment", ""]
        for j in range(n):
            lines.append(" ".join([t[j], *texts[4 * j: 4 * j + 4]]))
            if j == n // 2:
                lines += ["", "   # indented comment", "\t"]
        lines.append(" ".join([repr(2 * math.pi), *texts[:4]]))  # duplicated closing row
        path = tmp_path / "c.txt"
        path.write_text("\n".join(lines) + "\n")
        expected = np.array([float(x) for x in texts]).reshape(n, 4)
        c = load_curve(path)
        assert c.n_nodes == n
        assert np.column_stack([c.points, c.derivs]).tobytes() == expected.tobytes()
        wpath = tmp_path / "w.txt"
        wpath.write_text("# weight v1\n\n" + "".join(f"{t[j]} {texts[j]}\n# c\n" for j in range(n)))
        t_read, v_read = load_weight(make_circle(1.0, n=64), wpath).source
        assert t_read.tobytes() == np.array([float(x) for x in t]).tobytes()
        assert v_read.tobytes() == np.array([float(x) for x in texts[:n]]).tobytes()

    @pytest.mark.parametrize(
        "body, message",
        [
            ("", "no data rows"),
            ("# only a comment\n\n", "no data rows"),
            ("0 1 2\n1 1 2\n", "expected 2 columns, got 3"),
            ("0 1\n1 nan\n", "non-finite values"),
            ("0 1\n1\n", "number of columns"),
        ],
    )
    def test_reader_messages_name_the_path(self, tmp_path, body, message):
        path = tmp_path / "w.txt"
        path.write_text("# weight v1\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(message)) as err:
                load_weight(make_circle(1.0, n=64), path)
        assert str(err.value).startswith(f"{path}: ")
        path.write_text(body)
        with pytest.raises(ValueError, match="expected header line"):
            load_weight(make_circle(1.0, n=64), path)

    @pytest.mark.parametrize(
        "t, v, body, message",
        [
            ([0.0, 1.0, 1.0, 2.0], [1.0, 2.0, 3.0, 4.0], "0 1\n1 2\n1 3\n2 4\n", "strictly increasing"),
            ([0.0, 2.0, 1.0], [1.0, 2.0, 3.0], "0 1\n2 2\n1 3\n", "strictly increasing"),
            ([0.0, 1.0, 2.0], [1.0, 2.0], "0 1\n1 2\n2\n", "equal length"),
            ([[0.0, 1.0, 2.0]], [[1.0, 2.0, 3.0]], "0 1 5\n1 2 5\n2 3 5\n", "1-D"),
        ],
    )
    def test_tables_checked_alike_from_tuples_and_files(self, tmp_path, t, v, body, message):
        curve = make_circle(1.0, n=64)
        with pytest.raises(ValueError, match=f"^weight table: .*{message}"):
            load_weight(curve, (np.array(t), np.array(v)))
        path = tmp_path / "w.txt"
        path.write_text("# weight v1\n" + body)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            load_weight(curve, path)

    def test_sampled_resampling_is_per_column_interp(self):
        native = make_ellipse(1.4, 0.9, n=97)
        sampled = JordanCurve("sampled", native.params, native.points, native.derivs, ())
        for n in (64, 256, 1000):
            t = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
            expected = [
                np.column_stack([np.interp(t, native.params, arr[:, i], period=2 * math.pi) for i in range(2)])
                for arr in (native.points, native.derivs)
            ]
            got = sampled.resample(n)
            assert got.points.tobytes() == expected[0].tobytes()
            assert got.derivs.tobytes() == expected[1].tobytes()
            v = 1.0 + 0.3 * np.sin(3 * native.params)
            values = load_weight(got, (native.params, v)).values
            assert values.tobytes() == np.interp(t, native.params, v, period=2 * math.pi).tobytes()
