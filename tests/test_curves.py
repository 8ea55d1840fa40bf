import copy
import math
import re
import warnings

import numpy as np
import pytest

from landaudelta.basis import MagneticField
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
from landaudelta.toeplitz import assemble


class TestCircle:
    def test_circumference(self):
        for r, n in ((1.0, 64), (2.0, 128)):
            _, w = arclength_rule(make_circle(r, n=n))
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

    @pytest.mark.parametrize("r", (math.inf, math.nan))
    def test_rejects_non_finite_radius(self, r):
        # Raised before any sample: make_circle(inf) used to warn and return nan derivatives.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="radius must be positive and finite"):
                make_circle(r)

    def test_harmonic_exactness(self):
        n = 256
        pts, w = arclength_rule(make_circle(1.0, n=n))
        theta = np.arctan2(pts[:, 1], pts[:, 0])
        for m in (1, 3, 50, n // 2 - 1):
            assert abs(np.sum(np.exp(1j * m * theta) * w)) < 1e-12


class TestEllipse:
    def test_arclength_against_refined_trapezoid(self):
        a, b = 2.0, 1.0
        n_ref = 10**6
        t = np.linspace(0.0, 2 * math.pi, n_ref, endpoint=False)
        ref = np.sum(np.hypot(-a * np.sin(t), b * np.cos(t))) * (2 * math.pi / n_ref)
        _, w = arclength_rule(make_ellipse(a, b, n=512))
        assert np.sum(w) == pytest.approx(ref, abs=1e-10)

    def test_self_convergence_beyond_256(self):
        f = lambda p: np.exp(np.sin(p[:, 0])) * np.cos(p[:, 1])
        vals = []
        for n in (256, 512, 1024):
            pts, w = arclength_rule(make_ellipse(2.0, 1.0, n=n))
            vals.append(float(np.sum(f(pts) * w)))
        assert abs(vals[1] - vals[0]) < 1e-10
        assert abs(vals[2] - vals[1]) < 1e-10

    @pytest.mark.parametrize("a, b", ((math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, -math.inf)))
    def test_rejects_non_finite_semi_axes(self, a, b):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="semi-axes must be positive and finite"):
                make_ellipse(a, b)

    def test_too_few_nodes_rejected(self):
        e = make_ellipse(2.0, 1.0, n=16)
        short = JordanCurve("sampled", e.params[::2], e.points[::2], e.derivs[::2], ())
        with pytest.raises(ValueError, match="need at least 16 nodes, got 8"):
            arclength_rule(short)


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
        p1, w1 = arclength_rule(make_ellipse(2.0, 1.0, n=n))
        p2, w2 = arclength_rule(reparam)
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
                points, ds = arclength_rule(coarse.curve)
                fine_points, fine_ds = arclength_rule(fine.curve)
                assert np.max(np.abs(fine_points[::2] - points)) <= tol * np.max(np.abs(points))
                assert np.max(np.abs(2.0 * fine_ds[::2] - ds)) <= tol * np.max(ds)
                assert np.max(np.abs(fine.values[::2] - coarse.values)) <= tol * np.max(np.abs(coarse.values))


class TestSample:
    """WeightedCurve.sample(n): the weight values of resample(n), without the curve."""

    def test_bytes_as_resample_and_as_a_fresh_weight(self, tmp_path):
        # Reference: resample(n).values, and the weight loaded afresh on the
        # n-node curve from the kept source (constant, callable or (t, v) table).
        path = tmp_path / "weight.txt"
        grid = np.linspace(0.0, 2 * math.pi, 61, endpoint=False)
        save_weight(grid, 1.5 + np.sin(grid) * np.cos(3 * grid), path)
        base = make_circle(1.3, n=128)
        sources = (
            -0.7,
            lambda t: 0.3 + np.cos(t) - 0.6 * np.sin(2 * t),
            str(path),
            (grid, 1.0 + 0.2 * np.cos(2 * grid)),
            2.0 + np.cos(base.params) - 0.5 * np.sin(3 * base.params),
        )
        for source in sources:
            for curve in (base, make_ellipse(1.4, 0.9, n=128)):
                wc = load_weight(curve, source)
                for n in (16, 64, 128, 1024, 2048):
                    values = wc.sample(n)
                    assert values.dtype == np.float64 and values.shape == (n,)
                    assert values.tobytes() == wc.resample(n).values.tobytes()
                    assert values.tobytes() == load_weight(curve.resample(n), wc.source).values.tobytes()

    def test_non_finite_callable_values_raise(self):
        # Finite on the 64 nodes it is loaded on, NaN on every other grid;
        # likewise one value per parameter on those 64 nodes only.
        def finite_on_64(t):
            return np.full(t.size, 1.0 if t.size == 64 else np.nan)

        def shaped_on_64(t):
            return np.ones(t.size if t.size == 64 else 3)

        for weight, message in ((finite_on_64, "weight values must be finite"), (shaped_on_64, r"got \(3,\)$")):
            wc = load_weight(make_circle(1.0, n=64), weight)
            assert wc.sample(64) is wc.values
            for n in (32, 128):
                with pytest.raises(ValueError, match=message):
                    wc.sample(n)
                with pytest.raises(ValueError, match=message):
                    wc.resample(n)

    @pytest.mark.parametrize("weight, shape", [
        (lambda t: 2.0, "()"),
        (lambda t: np.ones(3), "(3,)"),
        (lambda t: np.ones((t.size, 2)), "(64, 2)"),
    ], ids=["scalar", "three", "two-columns"])
    def test_callable_of_another_shape_raises_naming_it(self, weight, shape):
        for curve in (make_circle(1.0, n=64), make_ellipse(1.4, 0.9, n=64)):
            with pytest.raises(ValueError, match=re.escape(f"expected shape (64,), got {shape}")):
                load_weight(curve, weight)

    def test_array_sources_are_copied(self):
        # The caller's array, and an array a callable hands back, stay the caller's:
        # writeable, and sharing no memory with the read-only values.
        curve = make_ellipse(1.4, 0.9, n=64)
        values = 2.0 + np.cos(curve.params)
        returned = 1.0 + np.sin(curve.params)
        for source, caller in ((values, values), (lambda t: returned, returned)):
            wc = load_weight(curve, source)
            assert caller.flags.writeable and not wc.values.flags.writeable
            assert not np.shares_memory(caller, wc.values)
            assert wc.values.tobytes() == caller.tobytes()
        # Arrays and tables are kept as copies: the caller may change its arrays afterwards.
        table = (curve.params.copy(), returned)
        for source, arrays in ((values, (values,)), (table, table)):
            wc, reference = load_weight(curve, source), load_weight(curve, copy.deepcopy(source))
            for array in arrays:
                array[:] = 0.0
            assert wc.sample(128).tobytes() == reference.sample(128).tobytes()

    def test_a_table_is_transformed_once(self, monkeypatch):
        # load_weight samples the 301-row table at the curve's 1024 nodes and assemble at
        # 64, 128, ...: one interpolant, so one FFT, serves them all.
        calls = []
        fft = np.fft.fft
        monkeypatch.setattr(np.fft, "fft", lambda *a, **kw: calls.append(1) or fft(*a, **kw))
        t = np.linspace(0.0, 2 * math.pi, 301, endpoint=False)
        wc = load_weight(make_ellipse(1.4, 0.9), (t, 1.5 + np.sin(t) * np.cos(3 * t)))
        matrix = assemble(MagneticField(2.0), 1, wc, K=8)
        assert matrix.provenance["N_sequence"][0] != 1024
        assert len(calls) == 1


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

    def test_interpolant_folds_like_add_at(self):
        # Reference: the coefficient fold as one np.add.at, which adds each
        # bucket's terms in index order.  Resampled curves and weight tables
        # equal it bit for bit, below, at and above the native count.
        def reference(samples, n):
            m = samples.shape[0]
            if n == m:
                return samples.copy()
            coef = np.fft.fft(samples, axis=0) / m
            folded = np.zeros((n,) + samples.shape[1:], dtype=complex)
            np.add.at(folded, np.fft.fftfreq(m, 1.0 / m).astype(int) % n, coef)
            return np.fft.ifft(folded, axis=0).real * n

        rng = np.random.default_rng(5)
        for m in (16, 17, 64, 97, 200, 701, 3000):
            native = make_ellipse(1.4, 0.9, n=m)
            sampled = JordanCurve("sampled", native.params, native.points, native.derivs, ())
            v = rng.standard_normal(m)
            wc = load_weight(sampled, (native.params, v))
            cols = np.column_stack([native.points, native.derivs])
            for n in (16, 31, 64, 97, 256, 701, 1000, 4096):
                got = wc.resample(n)
                assert got.values.tobytes() == reference(v, n).tobytes()
                assert np.column_stack([got.curve.points, got.curve.derivs]).tobytes() == reference(cols, n).tobytes()

    def test_sampled_input_matches_analytic_values(self):
        # The trigonometric interpolant reproduces band-limited samples at
        # every node count, whether the native count is odd, even, below or
        # above the target.
        def three_harmonic(t):
            return 1.0 + 0.3 * np.sin(t) - 0.2 * np.cos(2 * t) + 0.1 * np.sin(3 * t)

        for nodes in (97, 200, 3000):
            native = make_ellipse(1.4, 0.9, n=nodes)
            wc = load_weight(
                JordanCurve("sampled", native.params, native.points, native.derivs, ()),
                (native.params, three_harmonic(native.params)),
            )
            for n in (64, 1000, 4096):
                got, exact = wc.resample(n), make_ellipse(1.4, 0.9, n=n)
                assert np.max(np.abs(got.curve.points - exact.points)) <= 1e-14 * 1.4
                assert np.max(np.abs(got.curve.derivs - exact.derivs)) <= 1e-14 * 1.4
                assert np.max(np.abs(got.values - three_harmonic(exact.params))) <= 1e-14 * 1.6
        # An even table at its Nyquist frequency: the interpolant is cos(M t / 2).
        t = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
        for n in (96, 128, 200):
            exact = np.cos(2 * math.pi * (32 * np.arange(n) % n) / n)  # cos(32 t) with the argument reduced exactly
            values = load_weight(make_circle(1.0, n=n), (t, (-1.0) ** np.arange(64))).values
            assert np.max(np.abs(values - exact)) <= 1e-14


class TestUniformGrid:
    """Sampled curves and weight tables sit on the grid 2 pi j / M, whichever door they come through."""

    def test_off_grid_weight_table_rejected(self, tmp_path):
        grid = np.linspace(0.0, 2 * math.pi, 40, endpoint=False)
        jittered = grid.copy()
        jittered[7] += 0.01
        curve = make_circle(1.0, n=64)
        # A jittered row and a dropped row: both strictly increasing, neither on the grid.
        for t in (jittered, np.delete(grid, 11)):
            v = 1.0 + 0.5 * np.sin(t)
            with pytest.raises(ValueError, match=r"^weight table: samples must sit on the uniform grid 2\*pi\*j/N$"):
                load_weight(curve, (t, v))
            path = tmp_path / "w.txt"
            save_weight(t, v, path)
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: samples must sit on the uniform grid"):
                load_weight(curve, path)

    def test_off_grid_sampled_curve_rejected(self):
        e = make_ellipse(1.4, 0.9, n=64)
        with pytest.raises(ValueError, match=r"^curve: samples must sit on the uniform grid 2\*pi\*j/N$"):
            JordanCurve("sampled", e.params + 0.05 * np.sin(e.params), e.points, e.derivs, ())


class TestSampleTails:
    """The Fourier tail of native samples: the interpolation error no node count removes."""

    def test_kinked_weight_table_has_a_slow_tail(self):
        curve = make_ellipse(1.4, 0.9, n=64)
        for rows, low, high in ((200, 1e-4, 1e-3), (3000, 1e-6, 1e-5)):
            t = np.linspace(0.0, 2 * math.pi, rows, endpoint=False)
            tails = load_weight(curve, (t, np.abs(np.sin(t)))).sample_tails()
            assert set(tails) == {"weight_tail"}
            assert low < tails["weight_tail"] < high

    def test_smooth_samples_have_tails_at_rounding(self):
        native = make_ellipse(1.4, 0.9, n=200)
        sampled = JordanCurve("sampled", native.params, native.points, native.derivs, ())
        t = native.params
        tails = load_weight(sampled, (t, 0.3 + np.cos(t) - 0.6 * np.sin(2 * t) + 0.4 * np.cos(3 * t))).sample_tails()
        assert set(tails) == {"curve_tail", "weight_tail"}
        assert max(tails.values()) <= 1e-15

    def test_analytic_inputs_have_no_tail(self):
        for weight in (1.0, np.sin):
            assert load_weight(make_ellipse(1.4, 0.9, n=64), weight).sample_tails() == {}


@pytest.mark.parametrize("rows, message", [
    ([0, 2, 1, 3], "parameter column must be strictly increasing"),
    ([0, 1, 1, 3], "parameter column must be strictly increasing"),
    ([-0.5, 1, 2, 3], "parameters must lie in [0, 2pi)"),
    ([0, 1, 2, 7], "parameters must lie in [0, 2pi)"),
], ids=["decreasing", "repeated", "below-zero", "past-2pi"])
def test_curve_file_parameter_refusals_name_the_path(tmp_path, rows, message):
    path = tmp_path / "c.txt"
    lines = [f"{t} {math.cos(t)} {math.sin(t)} {-math.sin(t)} {math.cos(t)}\n" for t in rows]
    path.write_text("# jordan-curve v1\n" + "".join(lines))
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}") + "$"):
        load_curve(path)
