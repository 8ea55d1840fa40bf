"""Command-line front end.

Subcommands: laguerre, toeplitz, census, galerkin, verify.  All output is
deterministic (fixed quadrature, no randomized solvers) and floats are
printed with 17 significant digits so files round-trip losslessly.  Exit
codes: 0 success, 1 verification failure, 2 bad arguments.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from .census import (
    census as census_sweep,
    census_to_csv,
    eta_table_to_csv,
    explicit_D12,
)
from .basis import MagneticField
from .curves import load_curve, load_weight, make_circle, make_ellipse
from .galerkin import assemble_model, cluster_report, model_truncation, persistence_check
from .laguerre import LaguerreSpec, laguerre_eval, laguerre_zeros
from .toeplitz import (
    assemble,
    kernel_dim_estimate,
    matrix_from_json,
    matrix_to_json,
    spectrum,
    spectrum_to_csv,
)

G = "%.17g"


def _weight(args):
    return args.weight_file if args.weight_file is not None else args.weight


def _weighted_curve(args):
    if args.curve_file is not None:
        curve = load_curve(args.curve_file)
    elif args.ellipse is not None:
        try:
            a, b = (float(v) for v in args.ellipse.split(","))
        except ValueError:
            raise ValueError(f"--ellipse expects A,B, got {args.ellipse!r}") from None
        curve = make_ellipse(a, b, n=args.N)
    else:
        curve = make_circle(args.r, n=args.N)
    return load_weight(curve, _weight(args))


def _warn_if_underresolved(result) -> None:
    if result.underresolved:
        delta = result.refinement_delta
        print(f"warning: quadrature underresolved (doubling N moves entries by {delta:.3e})", file=sys.stderr)


def _add_curve_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r", type=float, default=1.0, help="circle radius (default curve, r=1)")
    p.add_argument("--ellipse", type=str, default=None, metavar="A,B", help="ellipse semi-axes")
    p.add_argument("--curve-file", type=str, default=None, help="sampled curve file (t x y dx dy)")
    p.add_argument("--weight", type=float, default=1.0, help="constant weight value")
    p.add_argument("--weight-file", type=str, default=None, help="weight file (t v)")
    p.add_argument("--N", type=int, default=None, help="quadrature nodes (default 1024)")


def _cmd_laguerre(args) -> int:
    spec = LaguerreSpec(args.q, args.alpha)
    if args.what == "eval":
        if args.t is None:
            raise ValueError("laguerre eval requires --t")
        print(G % laguerre_eval(spec, args.t))
        return 0
    zeros = laguerre_zeros(spec)
    if args.format == "json":
        print(json.dumps([{"zero": z, "multiplicity": m} for z, m in zeros], indent=1))
    else:
        print("zero,multiplicity")
        for z, m in zeros:
            print(f"{G % z},{m}")
    return 0


def _cmd_census(args) -> int:
    field = MagneticField(args.b)
    if args.eta:
        if not args.alpha_step > 0:
            raise ValueError(f"--alpha-step must be positive, got {args.alpha_step}")
        alphas = np.arange(args.alpha_min, args.alpha_max + 0.5 * args.alpha_step, args.alpha_step)
        sys.stdout.write(eta_table_to_csv(field, args.q, alphas))
        return 0
    if args.explicit is not None:
        sets = explicit_D12(field, args.explicit)
        if args.format == "json":
            print(json.dumps(sets, indent=1))
        else:
            print("set,index,r")
            for name in ("D1", "D2", "D22", "D21"):
                for i, r in enumerate(sets[name], start=1):
                    print(f"{name},{i},{G % r}")
        return 0
    entries = census_sweep(field, args.q, args.rmax)
    if args.format == "json":
        payload = [
            {
                "r": e.r,
                "t": e.t,
                "multiplicity": e.multiplicity,
                "witnesses": [{"k": k, "zero": z} for k, z in e.witnesses],
            }
            for e in entries
        ]
        print(json.dumps(payload, indent=1))
    else:
        sys.stdout.write(census_to_csv(entries))
    return 0


def _cmd_toeplitz(args) -> int:
    if args.import_path is not None:
        with open(args.import_path) as fh:
            matrix = matrix_from_json(fh.read())
    else:
        matrix = assemble(MagneticField(args.b), args.q, _weighted_curve(args), K=args.K, N=args.N,
                          check_resolution=not args.no_resolution_check)
        _warn_if_underresolved(matrix)
    if args.export is not None:
        with open(args.export, "w") as fh:
            fh.write(matrix_to_json(matrix))
    if args.kernel:
        print(json.dumps(asdict(kernel_dim_estimate(matrix, rel_tol=args.kernel_tol)), indent=1))
        return 0
    sys.stdout.write(spectrum_to_csv(spectrum(matrix)))
    return 0


def _cmd_galerkin(args) -> int:
    field = MagneticField(args.b)
    if args.persistence:
        if args.ellipse is not None or args.curve_file is not None:
            raise ValueError("--persistence runs on the circle of radius --r; drop --ellipse and --curve-file")
        result = persistence_check(field, args.q, args.r, K=args.K, Q=args.Q, weight=_weight(args), N=args.N)
        print(result.to_json())
        return 0
    wc = _weighted_curve(args)
    Q = args.Q if args.Q is not None else args.q + 2
    K = args.K if args.K is not None else model_truncation(field, Q, wc.curve)
    model = assemble_model(field, Q, K, wc, args.sign, N=args.N,
                           check_resolution=not args.no_resolution_check)
    _warn_if_underresolved(model)
    print(cluster_report(model).to_json())
    return 0


def _cmd_verify(args) -> int:
    # verify needs scipy; the other subcommands do not load it.
    from .verify import run_all

    results = run_all()
    failures = 0
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        print(f"{tag} {res.name}: {res.detail}")
        if not res.passed:
            failures += 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="landaudelta",
        description="Spectral toolkit for Landau levels under delta interactions on curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("laguerre", help="evaluate Laguerre polynomials or list zeros")
    p.add_argument("what", choices=["zeros", "eval"])
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_laguerre)

    p = sub.add_parser("census", help="resonant radii of circles for a Landau level")
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--rmax", type=float, default=3.0)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--explicit", type=int, default=None, metavar="NMAX",
                   help="print the closed-form level-1/2 sets instead of sweeping")
    p.add_argument("--eta", action="store_true", help="print the zero-curve table")
    p.add_argument("--alpha-min", type=float, default=0.0)
    p.add_argument("--alpha-max", type=float, default=10.0)
    p.add_argument("--alpha-step", type=float, default=0.5)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("toeplitz", help="assemble and diagonalize an interaction matrix")
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--q", type=int, default=0)
    p.add_argument("--K", type=int, default=None)
    _add_curve_options(p)
    p.add_argument("--export", type=str, default=None, help="write the matrix as JSON")
    p.add_argument("--import", dest="import_path", type=str, default=None,
                   help="reload an exported matrix instead of assembling")
    p.add_argument("--kernel", action="store_true", help="print the kernel-dimension estimate")
    p.add_argument("--kernel-tol", type=float, default=1e-10)
    p.add_argument("--no-resolution-check", action="store_true")
    p.set_defaults(func=_cmd_toeplitz)

    p = sub.add_parser("galerkin", help="cluster report or persistence check for the finite model")
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--q", type=int, default=1, help="level under study")
    p.add_argument("--Q", type=int, default=None, help="level cutoff (default q+2)")
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--sign", type=int, choices=[1, -1], default=1)
    _add_curve_options(p)
    p.add_argument("--persistence", action="store_true",
                   help="run the resonance persistence test on the circle of radius --r")
    p.add_argument("--no-resolution-check", action="store_true")
    p.set_defaults(func=_cmd_galerkin)

    p = sub.add_parser("verify", help="run the cross-module invariant suite")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
