"""landaudelta benchmark: one seeded closed-loop workload per run.

    python3 bench/run.py --workload circle_scan --seed 1 --seconds 15 --trace 0

Run from the repository root.  The library is imported from ./src, never
from an installed copy.  --trace 0 prints the end-to-end metrics;
--trace 1 records per-layer spans and then runs the same workload
untraced in a child process to measure the tracing overhead.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give each metric with
its sample count, the failure share and the run's provenance.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread.  On 2 cores, circle_scan ran as fast with one thread as
# with two, and its run-to-run spread of ops_per_s fell from 11% to 4%.
BLAS_THREADS = "1"
SETUP_REPEATS = 9
# Host-speed probes taken right before and right after each set-up
# interpreter; its time is scaled by their median.  Over 16 fresh
# interpreters in a row the spread of the raw times was 22%, of the
# scaled ones 10%, and the medians of 10-run sets moved by up to 30%.
SETUP_PROBES = 3
SETUP_TIMEOUT_S = 60

# Operation times are scaled to a reference host speed: each is multiplied
# by CAL_REFERENCE_S over the median time of the calibration probes
# (workloads.calibration_slice) taken in and after it and the operations
# around it.  Raw values are printed too.
CAL_REFERENCE_S = 0.001  # a typical probe time on the 2-core VM the bounds were set on
CAL_WINDOW = 10  # operations on each side of an operation whose probes count

# Import, then the first BLAS (matrix product) and LAPACK (eigh) work on a
# fixed input that no workload uses.
SETUP_SNIPPET = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import landaudelta as ld
wc = ld.load_weight(ld.make_circle(0.75, n=64), 1.0)
ld.spectrum(ld.assemble(ld.MagneticField(1.5), 1, wc, K=6, N=64, check_resolution=False))
print(time.perf_counter() - t0)
"""


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def load_library():
    """Import landaudelta from ./src; exit with an error if it is not there."""
    if not (SRC / "landaudelta" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'landaudelta'} not found; run from a landaudelta checkout")
    sys.path.insert(0, str(SRC))
    import landaudelta

    if Path(landaudelta.__file__).resolve().parent != SRC / "landaudelta":
        sys.exit(f"error: imported landaudelta from {landaudelta.__file__}, not {SRC}")
    return landaudelta


def measure_setup() -> tuple[list[float], list[float]]:
    """Import plus warm-up time, each in a fresh interpreter: raw and scaled."""
    from workloads import calibration_slice

    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        probes = [calibration_slice() for _ in range(SETUP_PROBES)]
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
        probes += [calibration_slice() for _ in range(SETUP_PROBES)]
        seconds = float(proc.stdout.strip().splitlines()[-1])
        raw.append(seconds)
        scaled.append(seconds * CAL_REFERENCE_S / statistics.median(probes))
    return raw, scaled


def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def git_sha() -> str:
    """HEAD commit read from .git without running git (the checkout may have none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, samples, speed: float) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    kinds: dict[str, int] = {}
    for s in samples:
        kinds[s.kind] = kinds.get(s.kind, 0) + 1
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_sha": git_sha(),
        "op_counts": kinds,
        "host_speed": speed,
    }


class NullTracer:
    """Stands in for tracing.Tracer in untraced runs."""

    round = -1

    def operation(self, kind):
        return contextlib.nullcontext()


@dataclass
class Run:
    warmup: list  # samples of the untimed fixed tasks and warm-up rounds (checked)
    samples: list  # timed samples
    round_sizes: list  # timed samples per round

    def scaled_seconds(self) -> list[float]:
        """Each timed sample's seconds at the reference host speed."""
        import numpy as np

        out = []
        for i, s in enumerate(self.samples):
            near = self.samples[max(0, i - CAL_WINDOW): i + CAL_WINDOW + 1]
            local = np.median([p for n in near for p in n.probes])
            out.append(s.seconds * CAL_REFERENCE_S / local)
        return out

    def speed(self) -> float:
        """Host speed relative to the reference over the whole run."""
        return CAL_REFERENCE_S / statistics.median(p for s in self.samples for p in s.probes)


def run_loop(workload, tracer, seconds: float) -> Run:
    """Fixed tasks and warm-up rounds, then whole rounds until the time is up."""
    warmup = workload.run_round(list(workload.FIXED_TASKS), NullTracer()) if workload.FIXED_TASKS else []
    for _ in range(workload.WARMUP_ROUNDS):
        warmup.extend(workload.run_round(workload.next_round(), NullTracer()))
    samples, round_sizes = [], []
    deadline = perf_counter() + seconds
    while True:
        tracer.round += 1
        got = workload.run_round(workload.next_round(), tracer)
        samples.extend(got)
        round_sizes.append(len(got))
        if perf_counter() >= deadline:
            return Run(warmup, samples, round_sizes)


def percentile(values, p: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), p))


def round_sums(values, sizes) -> list[float]:
    out, i = [], 0
    for n in sizes:
        out.append(sum(values[i:i + n]))
        i += n
    return out


def end_to_end(run: Run, setup: tuple[list[float], list[float]]) -> tuple[dict, list[str]]:
    setup_raw, setup_scaled = setup
    lat = run.scaled_seconds()
    n = len(lat)
    suite = round_sums(lat, run.round_sizes)
    metrics = {
        "ops_per_s": n / sum(lat),
        "op_ms_p50": 1e3 * percentile(lat, 50),
        "op_ms_p90": 1e3 * percentile(lat, 90),
        "suite_s": statistics.median(suite),
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    beyond = n - int(0.9 * n)
    notes = {
        "ops_per_s": f"n={n} ops",
        "op_ms_p50": f"n={n} ops",
        "op_ms_p90": f"n={n} ops, {beyond} beyond"
        + ("" if beyond >= 10 else " (fewer than 10: treat as an order statistic)"),
        "suite_s": f"median of n={len(suite)} rounds",
        "setup_s": f"median of n={len(setup_scaled)} fresh interpreters",
        "peak_rss_mb": "n=1 process",
    }
    raw = [s.seconds for s in run.samples]
    unscaled = {
        "ops_per_s": n / sum(raw),
        "op_ms_p50": 1e3 * percentile(raw, 50),
        "op_ms_p90": 1e3 * percentile(raw, 90),
        "suite_s": statistics.median(round_sums(raw, run.round_sizes)),
        "setup_s": statistics.median(setup_raw),
    }
    for name, value in unscaled.items():
        notes[name] += f"; {value:.6g} unscaled"
    return metrics, [notes[k] for k in metrics]


def per_layer(tracer, run: Run, tallies: dict, untraced_ops_per_s: float, declared) -> dict:
    """Per-operation layer counts and scaled self times of a traced run."""
    summary = tracer.summary()
    samples = run.samples
    n_ops = len(samples)
    speed = run.speed()

    def calls(span):
        return summary.get(span, (0, 0.0, 0.0))[0] / n_ops

    def self_s(span):
        return summary.get(span, (0, 0.0, 0.0))[2] * speed / n_ops

    def mean(name):
        values = tracer.sizes.get(name)
        return float(sum(values) / len(values)) if values else 0.0

    c = tracer.counts
    checks = c["toeplitz.resolution_checks"]
    traced_ops_per_s = n_ops / sum(run.scaled_seconds())
    out = {
        "laguerre.eval_calls": calls("laguerre.eval"),
        "laguerre.eval_self_s": self_s("laguerre.eval"),
        "laguerre.zeros_calls": calls("laguerre.zeros"),
        "laguerre.zeros_self_s": self_s("laguerre.zeros"),
        "laguerre.gauss_rule_calls": calls("laguerre.gauss_rule"),
        "laguerre.gauss_rule_self_s": self_s("laguerre.gauss_rule"),
        "basis.matrix_calls": calls("basis.matrix"),
        "basis.matrix_rows": c["basis.matrix_rows"] / n_ops,
        "basis.matrix_points": c["basis.matrix_points"] / n_ops,
        "basis.matrix_self_s": self_s("basis.matrix"),
        "basis.inner_product_calls": calls("basis.inner_product"),
        "basis.inner_product_self_s": self_s("basis.inner_product"),
        "curves.arclength_rule_self_s": self_s("curves.arclength_rule"),
        "curves.resample_calls": calls("curves.resample"),
        "curves.resample_self_s": self_s("curves.resample"),
        "curves.load_weight_calls": calls("curves.load_weight"),
        "curves.load_weight_self_s": self_s("curves.load_weight"),
        "toeplitz.assemble_calls": calls("toeplitz.assemble"),
        "toeplitz.assemble_self_s": self_s("toeplitz.assemble"),
        "toeplitz.gemm_gflop_computed": c["toeplitz.gemm_flop"] / n_ops / 1e9,
        "toeplitz.truncation_calls": calls("toeplitz.truncation"),
        "toeplitz.truncation_self_s": self_s("toeplitz.truncation"),
        "toeplitz.spectrum_calls": calls("toeplitz.spectrum"),
        "toeplitz.spectrum_self_s": self_s("toeplitz.spectrum"),
        "toeplitz.serialize_self_s": self_s("toeplitz.serialize"),
        "toeplitz.serialize_bytes": c["toeplitz.serialize_bytes"] / n_ops,
        "toeplitz.underresolved_ratio": c["toeplitz.underresolved"] / checks if checks else 0.0,
        "toeplitz.resolution_checks": checks,
        "toeplitz.K_mean": mean("toeplitz.K"),
        "toeplitz.spectrum_dim_mean": mean("toeplitz.spectrum_dim"),
        "galerkin.model_dim_mean": mean("galerkin.model_dim"),
        "galerkin.assemble_model_calls": calls("galerkin.assemble_model"),
        "galerkin.assemble_model_self_s": self_s("galerkin.assemble_model"),
        "galerkin.persistence_calls": calls("galerkin.persistence"),
        "galerkin.persistence_self_s": self_s("galerkin.persistence"),
        "galerkin.cluster_report_self_s": self_s("galerkin.cluster_report"),
        "census.census_calls": calls("census.census"),
        "census.census_self_s": self_s("census.census"),
        "census.entries": c["census.entries"] / n_ops,
        "census.multiplicity_calls": calls("census.multiplicity"),
        "census.multiplicity_self_s": self_s("census.multiplicity"),
        "census.zero_solves": tracer.count_under("laguerre.zeros", "census.") / n_ops,
        "census.eta_self_s": self_s("census.eta"),
        "cli.main_calls": calls("cli.main"),
        "cli.main_self_s": self_s("cli.main"),
        "cli.output_bytes": c["cli.output_bytes"] / n_ops,
        "trace.overhead_ratio": 1.0 - traced_ops_per_s / untraced_ops_per_s,
    }
    ref = tallies.get("reference_checks", 0)
    out["toeplitz.reference_checks"] = ref
    out["toeplitz.flag_miss_ratio"] = tallies.get("flag_misses", 0) / ref if ref else 0.0
    out["toeplitz.eigh_failures"] = tallies.get("eigh_failures", 0)
    resonant = tallies.get("resonant_persistence", 0)
    out["galerkin.resonant_persistence_checks"] = resonant
    out["galerkin.persistence_miss_ratio"] = tallies.get("persistence_misses", 0) / resonant if resonant else 0.0
    # One metric per declared verify check, 0 where the workload ran none;
    # checks added to the suite later are printed but not emitted.
    for name in declared:
        if name.startswith("verify.check_s."):
            out[name] = 0.0
    for span, (_, total, _) in summary.items():
        if span.startswith("op.check."):
            name = "verify.check_s." + span[len("op.check."):]
            if name in out:
                out[name] = total * speed
            else:
                print(f"{name} = {total * speed:.6g} s  (not declared in BENCHMARK.json)")
    return out


def untraced_ops_per_s(args) -> float:
    """Same workload and seed, untraced, in a child process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=900,
    )
    if proc.returncode != 0:
        sys.exit(f"error: untraced reference run failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]["ops_per_s"]["value"]


def emit(values: dict, declared: dict, notes: list[str] | None = None) -> dict:
    """Keep the declared metrics; an undeclared or missing one is an error."""
    missing = sorted(set(declared) - set(values))
    extra = sorted(set(values) - set(declared))
    if missing or extra:
        sys.exit(f"error: metrics differ from BENCHMARK.json: missing {missing}, undeclared {extra}")
    for i, name in enumerate(declared):
        note = f"  ({notes[i]})" if notes else ""
        print(f"{name} = {values[name]:.6g} {declared[name]}{note}")
    return {name: {"value": values[name], "unit": declared[name]} for name in declared}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    load_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    e2e_declared, layer_declared = declared_metrics()
    work_root = BENCH_DIR / "_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        setup = ([], []) if args.trace else measure_setup()
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            uninstall = tracing.install(tracer)
            try:
                run = run_loop(workload, tracer, args.seconds)
            finally:
                uninstall()
        else:
            run = run_loop(workload, NullTracer(), args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = run.warmup + run.samples
    failures = [s for s in attempted if s.error]
    print(
        f"workload {args.workload}: {len(run.samples)} timed operations in {len(run.round_sizes)} "
        f"rounds after {len(run.warmup)} untimed fixed and warm-up operations; host speed {run.speed():.4f} of reference"
    )
    for s in failures[:10]:
        print(f"FAILED {s.kind}: {s.error}")
    print(f"fail_ratio = {len(failures)}/{len(attempted)} (failed/attempted, warm-up included)")
    tallies = workload.tallies()
    note = workload.known_defect()
    if note:
        print(note)
    if args.trace:
        reference = untraced_ops_per_s(args)
        metrics = emit(per_layer(tracer, run, tallies, reference, layer_declared), layer_declared)
        out_dir = BENCH_DIR / "_out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"trace-{args.workload}-seed{args.seed}.npz")
    else:
        values, notes = end_to_end(run, setup)
        metrics = emit(values, e2e_declared, notes)
    print("provenance " + json.dumps(provenance(args, attempted, run.speed()), sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(attempted),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
