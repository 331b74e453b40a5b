"""Command line interface.

    pathcert bench run --family katsura --n 4 --mode tilted \
        --dt0 0.1 --r0 0.1 --lambda 1.25 --seed 42 --out results/
    pathcert bench verify results/
    pathcert verify cert_000.json

``verify`` exits 0 only when every check passes.  When the process may
use more than one core, ``bench run`` tracks a family's paths and
``bench verify`` checks a run's certificates in a process pool; ``verify``
replays a certificate's segments as one batch in its own process.  The
output is the same as on one core.
"""

import argparse
import sys

from .bench import BenchmarkSpec, run_benchmark, verify_run
from .certificate import verify_file
from .errors import PathcertError
from .tracker import TrackerConfig


def _non_negative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _fail(e):
    print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
    return 1


def _build_parser():
    p = argparse.ArgumentParser(
        prog="pathcert",
        description="Certified homotopy continuation for parametric "
                    "polynomial systems.")
    sub = p.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="benchmark families")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    run = bench_sub.add_parser("run", help="track a family and write a run "
                                           "directory")
    run.add_argument("--family", required=True,
                     choices=["newton", "random", "katsura", "lowrank"])
    run.add_argument("--m", type=float, default=10.0,
                     help="newton family parameter")
    run.add_argument("--k", type=int, default=3,
                     help="random family size (2^k paths)")
    run.add_argument("--n", type=int, default=3,
                     help="katsura/lowrank family size")
    run.add_argument("--mode", choices=["rect", "tilted"], default="tilted")
    defaults = TrackerConfig()
    run.add_argument("--dt0", type=float, default=defaults.dt0)
    run.add_argument("--r0", type=float, default=defaults.r0)
    run.add_argument("--lambda", dest="lam", type=float, default=defaults.lam,
                     help="step scaling factor")
    run.add_argument("--seed", type=_non_negative_int, default=None,
                     help="instance seed (default: per-family shipped seed)")
    run.add_argument("--out", required=True, help="run output directory")

    bverify = bench_sub.add_parser("verify",
                                   help="re-verify a run directory")
    bverify.add_argument("out_dir")

    cverify = sub.add_parser("verify", help="verify one certificate file")
    cverify.add_argument("certificate")

    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)

    if args.command == "bench" and args.bench_command == "run":
        try:
            config = TrackerConfig(dt0=args.dt0, r0=args.r0, lam=args.lam)
        except ValueError as e:
            return _fail(e)
        spec = BenchmarkSpec(
            family=args.family, mode=args.mode, seed=args.seed,
            config=config, m=args.m, k=args.k, n=args.n)
        try:
            rep = run_benchmark(spec, out_dir=args.out)
        except (PathcertError, OSError) as e:
            return _fail(e)
        agg = rep.report["aggregate"]
        print(f"{spec.label()} mode={spec.mode}: "
              f"{agg['n_certified']}/{agg['n_paths']} paths certified")
        if agg["n_certified"]:
            print(f"iterations min/avg/max: {agg['iterations_min']}/"
                  f"{float(agg['iterations_avg']):.2f}/"
                  f"{agg['iterations_max']}")
        print(f"wall time: {rep.wall_time:.3f} s")
        print(f"outputs in {rep.out_dir}")
        return 0 if agg["n_certified"] == agg["n_paths"] else 1

    if args.command == "bench" and args.bench_command == "verify":
        try:
            ok, lines = verify_run(args.out_dir)
        except PathcertError as e:
            return _fail(e)
        for line in lines:
            print(line)
        print("all certificates verified" if ok else "verification FAILED")
        return 0 if ok else 1

    if args.command == "verify":
        try:
            rep = verify_file(args.certificate)
        except PathcertError as e:
            return _fail(e)
        print(rep.summary())
        return 0 if rep.ok else 1

    return 2


if __name__ == "__main__":
    sys.exit(main())
