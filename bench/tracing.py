"""Spans and counters for the traced benchmark run.

Spans are recorded from the benchmark's side: every public landaudelta
function named in LAYER_FUNCTIONS is replaced, at each module attribute
through which callers look it up, by a wrapper that opens a span, calls
the original and closes the span.  Spans live in flat in-memory arrays
until the run ends; self time is a span's duration minus the durations
of its direct children (calls are strictly nested in one thread).
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import landaudelta as ld
from landaudelta import basis, cli, curves, galerkin, laguerre, toeplitz, verify

# The package re-exports the census() function under the submodule's name.
census = importlib.import_module("landaudelta.census")

MODULES = (ld, laguerre, basis, curves, toeplitz, census, galerkin, verify, cli)

# (span name, defining module, function name)
LAYER_FUNCTIONS = (
    ("laguerre.eval", laguerre, "laguerre_eval"),
    ("laguerre.zeros", laguerre, "positive_zeros"),
    ("laguerre.gauss_rule", laguerre, "gauss_laguerre_log_rule"),
    ("basis.matrix", basis, "basis_matrix"),
    ("basis.inner_product", basis, "plane_inner_product"),
    ("curves.arclength_rule", curves, "arclength_rule"),
    ("curves.load_weight", curves, "load_weight"),
    ("toeplitz.assemble", toeplitz, "assemble"),
    ("toeplitz.truncation", toeplitz, "default_truncation"),
    ("toeplitz.spectrum", toeplitz, "spectrum"),
    ("toeplitz.serialize", toeplitz, "matrix_to_json"),
    ("toeplitz.serialize", toeplitz, "matrix_from_json"),
    ("census.census", census, "census"),
    ("census.multiplicity", census, "multiplicity"),
    ("census.eta", census, "eta_curve"),
    ("galerkin.assemble_model", galerkin, "assemble_model"),
    ("galerkin.persistence", galerkin, "persistence_check"),
    ("galerkin.cluster_report", galerkin, "cluster_report"),
    ("cli.main", cli, "main"),
)

# (span name, class, method name)
LAYER_METHODS = (("curves.resample", curves.JordanCurve, "resample"),)


class Tracer:
    """Flat span store plus counters taken at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self.op_id = -1
        self.round = -1
        self.active = False
        self.counts: dict[str, float] = defaultdict(float)
        # Work sizes of the first round only, so that the means repeat
        # exactly for a seed however many rounds a run completes.
        self.sizes: dict[str, list[float]] = defaultdict(list)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.end)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self, kind: str):
        """Root span of one benchmark operation; layer spans record only inside."""
        self.op_id += 1
        self.active = True
        i = self.open(self.name_id(f"op.{kind}"))
        try:
            yield
        finally:
            self.close(i)
            self.active = False

    def size(self, name: str, value: float) -> None:
        if self.round == 0:
            self.sizes[name].append(value)

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """(calls, total duration, total self time) per span name."""
        n = len(self.end)
        if n == 0:
            return {}
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        covered = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        width = len(self.names)
        calls = np.bincount(name, minlength=width)
        total = np.bincount(name, weights=dur, minlength=width)
        own = np.bincount(name, weights=dur - covered, minlength=width)
        return {nm: (int(calls[i]), float(total[i]), float(own[i])) for i, nm in enumerate(self.names)}

    def count_under(self, child: str, ancestor_prefix: str) -> int:
        """Spans named child that have an ancestor whose name starts with ancestor_prefix."""
        if child not in self._ids:
            return 0
        child_id = self._ids[child]
        marks = {i for i, nm in enumerate(self.names) if nm.startswith(ancestor_prefix)}
        inside = bytearray(len(self.end))
        total = 0
        for j in range(len(self.end)):
            p = self.parent[j]
            under = p >= 0 and (inside[p] or self.name[p] in marks)
            inside[j] = under
            if under and self.name[j] == child_id:
                total += 1
        return total

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )


def _count(tracer: Tracer, span: str, args, out) -> None:
    """Counters that belong to one span's boundary."""
    c = tracer.counts
    if span == "basis.matrix":
        c["basis.matrix_rows"] += out.shape[0]
        c["basis.matrix_points"] += out.size  # basis evaluations: rows x nodes
    elif span == "toeplitz.assemble":
        nodes = out.provenance["N"] * (3 if out.underresolved is not None else 1)
        c["toeplitz.gemm_flop"] += 8.0 * (out.K + 1) ** 2 * nodes
        if out.underresolved is not None:
            c["toeplitz.resolution_checks"] += 1
            c["toeplitz.underresolved"] += bool(out.underresolved)
        tracer.size("toeplitz.K", out.K)
    elif span == "galerkin.assemble_model":
        dim = out.matrix.shape[0]
        nodes = out.provenance["N"] * (3 if out.underresolved is not None else 1)
        c["toeplitz.gemm_flop"] += 8.0 * dim**2 * nodes
        if out.underresolved is not None:
            c["toeplitz.resolution_checks"] += 1
            c["toeplitz.underresolved"] += bool(out.underresolved)
        tracer.size("galerkin.model_dim", dim)
    elif span == "toeplitz.spectrum":
        tracer.size("toeplitz.spectrum_dim", out.eigenvalues.size)
    elif span == "toeplitz.serialize":
        c["toeplitz.serialize_bytes"] += len(out) if isinstance(out, str) else len(args[0])
    elif span == "census.census":
        c["census.entries"] += len(out)


def _wrap(tracer: Tracer, span: str, fn):
    nid = tracer.name_id(span)
    counted = span in {
        "basis.matrix", "toeplitz.assemble", "galerkin.assemble_model",
        "toeplitz.spectrum", "toeplitz.serialize", "census.census",
    }

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        if span == "cli.main":
            before = sys.stdout.tell()
        i = tracer.open(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if counted:
            _count(tracer, span, args, out)
        elif span == "cli.main":
            tracer.counts["cli.output_bytes"] += sys.stdout.tell() - before
        return out

    return traced


def install(tracer: Tracer):
    """Wrap every layer function at each attribute that refers to it; returns an undo."""
    undo = []
    for span, home, attr in LAYER_FUNCTIONS:
        original = getattr(home, attr)
        wrapper = _wrap(tracer, span, original)
        for mod in MODULES:
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, original))
                    setattr(mod, key, wrapper)
    for span, cls, attr in LAYER_METHODS:
        original = cls.__dict__[attr]
        undo.append((cls, attr, original))
        setattr(cls, attr, _wrap(tracer, span, original))

    def uninstall():
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return uninstall
