"""Certify and re-verify one benchmark workload; print its metrics.

    python3 certbench/run.py --workload katsura3 --seed 1 --seconds 10 \
        --trace 0

Run from the root of a source checkout: the program is imported from
``src/``.  A run sets up (imports, family generation, a warm-up), then
repeats whole rounds until ``--seconds`` have passed, at least one round.
A round certifies every start of the workload into a fresh run directory
(``pathcert.bench.run_benchmark``), re-verifies it from disk three times
(``verify_run``), checks the outputs against computations made apart from
pathcert, and runs two tamper checks.  ``--seed`` chooses the tamper
targets and the sampled times of the path-containment check; the instances
themselves come from ``--family-seed`` (default: the shipped
``pathcert.bench.FAMILY_SEEDS``), because their cost depends strongly on
the seed.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` operations (paths certified, certificates
verified, tamper checks) and the metrics, end to end with ``--trace 0``
and per layer with ``--trace 1``.  The traced run first repeats the
untraced rounds, then wraps the layers' entry points (``spans.py``) for
as many seconds again, and reports the tracing overhead between the two.
See README.md.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".certbench"
WORKLOADS = ("katsura3", "lowrank_n4", "newton_sweep")
SETUP_REPEATS = 7
VERIFY_REPEATS = 3
SETUP_TIMEOUT_S = 120


def _pin_environment():
    """Paths track one after another in this process, and BLAS uses one
    thread, so runs do not depend on the caller's environment."""
    os.environ.pop("PATHCERT_WORKERS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _import_program():
    if not (SRC / "pathcert" / "__init__.py").is_file():
        sys.exit(f"certbench: no pathcert sources in {SRC}")
    sys.path.insert(0, str(SRC))
    import pathcert
    if Path(pathcert.__file__).resolve().parent != SRC / "pathcert":
        sys.exit(f"certbench: imported pathcert from {pathcert.__file__}, "
                 f"not from {SRC}")


def set_up(name, family_seed, work_dir):
    """Generate the workload's families and warm up.

    Returns the workload and its (homotopy, starts) pairs.
    """
    import workloads
    from pathcert import bench
    workload = workloads.make(name, family_seed)
    families = [bench.build_family(spec) for _, spec in workload.runs]
    workloads.warm_up(work_dir / "warmup")
    shutil.rmtree(work_dir / "warmup")
    return workload, families


def time_set_up(args, work_dir):
    """Median wall time of SETUP_REPEATS fresh processes that each set up
    the workload and exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.family_seed is not None:
        cmd += ["--family-seed", str(args.family_seed)]
    times = []
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd + ["--work-dir", str(work_dir / f"setup{k}")],
                       check=True, timeout=SETUP_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


@dataclass
class Round:
    certify_s: float
    verify_s: float
    segments: int
    cert_bytes: int
    attempted: int
    failed: int
    problems: list
    peak_rss_mb: float     # high-water mark when the last verify ended


def one_round(workload, run_dir, rng, tracer):
    import workloads
    from pathcert import bench

    def phase(name):
        return tracer.phase(name) if tracer else nullcontext()

    with phase("certify"):
        t0 = time.perf_counter()
        for label, spec in workload.runs:
            bench.run_benchmark(spec, run_dir / label)
        certify_s = time.perf_counter() - t0
    verify_times, verdicts = [], []
    for _ in range(VERIFY_REPEATS):
        with phase("verify"):
            t0 = time.perf_counter()
            verdicts += [bench.verify_run(run_dir / label)
                         for label, _ in workload.runs]
            verify_times.append(time.perf_counter() - t0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    outputs = {label: workloads.read_run(label, spec, run_dir / label)
               for label, spec in workload.runs}
    paths = [p for ps in outputs.values() for p in ps]
    uncertified = sum(not p.certified for p in paths)
    unverified = sum(not line.split(": ", 1)[1].startswith("OK")
                     for _, lines in verdicts for line in lines)
    problems = workload.check(outputs, rng)
    with phase("tamper"):
        tampered, accepted = workloads.tamper_rejections(paths, rng)
    if accepted:
        print(f"verify accepted {accepted} tampered certificates",
              file=sys.stderr)
    shutil.rmtree(run_dir)
    return Round(certify_s, statistics.median(verify_times),
                 sum(p.iterations for p in paths),
                 sum(p.cert_bytes for p in paths),
                 (1 + VERIFY_REPEATS) * len(paths) + tampered,
                 uncertified + unverified + accepted, problems, peak_rss_mb)


def measure(workload, seconds, rng, run_root, tracer=None):
    """Whole rounds until ``seconds`` have passed, at least one."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(one_round(workload, run_root / f"round{len(rounds)}",
                                rng, tracer))
        r = rounds[-1]
        print(f"{'traced ' if tracer else ''}round {len(rounds)}: "
              f"certify {r.certify_s:.3f} s, verify {r.verify_s:.3f} s, "
              f"{r.segments} segments, {r.cert_bytes} certificate bytes",
              flush=True)
    return rounds


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(rounds, setup_s):
    med = statistics.median
    return {
        "setup_s": _metric(setup_s, "s"),
        "certify_s": _metric(med(r.certify_s for r in rounds), "s"),
        "verify_s": _metric(med(r.verify_s for r in rounds), "s"),
        "segments": _metric(med(r.segments for r in rounds), "count"),
        "cert_bytes": _metric(med(r.cert_bytes for r in rounds), "bytes"),
        # before the benchmark's own checks first add to the high-water
        # mark: their copies of the certificate drawn for the tamper
        # checks would make it depend on the seed
        "peak_rss_mb": _metric(rounds[0].peak_rss_mb, "MB"),
    }


PER_LAYER_UNITS = {
    "tracker.newton_refine_calls": "count",
    "krawczyk.tests": "count",
    "krawczyk.tests_per_segment": "ratio",
    "krawczyk.test_p50_ms": "ms",
    "krawczyk.test_p99_ms": "ms",
    "certificate.replay_segments_per_s": "1/s",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
    "trace.overhead_est_ratio": "ratio",
    "trace.span_cost_us": "us",
}


def per_layer(untraced, traced, tracer):
    import spans
    segments = statistics.median(r.segments for r in traced)
    values = spans.layer_metrics(tracer.spans, segments)
    plain = statistics.median(r.certify_s + r.verify_s for r in untraced)
    with_spans = statistics.median(r.certify_s + r.verify_s for r in traced)
    values["trace.overhead_ratio"] = with_spans / plain - 1.0
    # the same overhead estimated from the cost of one span, which the
    # machine's drift between the two sets of rounds does not disturb
    cost = spans.span_cost()
    values["trace.span_cost_us"] = 1e6 * cost
    added = values["trace.spans"] * cost
    values["trace.overhead_est_ratio"] = added / (with_spans - added)
    return {k: _metric(v, PER_LAYER_UNITS.get(k, "s"))
            for k, v in sorted(values.items())}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--family-seed", type=int, default=None,
                    help="instance seed of katsura3 and lowrank_n4 "
                         "(default: pathcert.bench.FAMILY_SEEDS)")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--work-dir", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _pin_environment()
    _import_program()

    if args.setup_only:
        set_up(args.workload, args.family_seed, args.work_dir)
        return 0

    work_dir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        workload, families = set_up(args.workload, args.family_seed, work_dir)
        import numpy as np
        import workloads
        print(f"workload {args.workload}: seed {args.seed}, instance digest "
              f"{workloads.digest(workload, families)}", flush=True)
        rng = np.random.default_rng(args.seed)
        setup_s = None if args.trace else time_set_up(args, work_dir)
        rounds = measure(workload, args.seconds, rng, work_dir)
        if args.trace:
            import spans
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = measure(workload, args.seconds, rng, work_dir, tracer)
            finally:
                tracer.uninstall()
            for name in tracer.missing:
                print(f"not traced, no such attribute: {name}",
                      file=sys.stderr)
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(trace_path, {"workload": args.workload,
                                      "seed": args.seed})
            print(f"spans written to {trace_path.relative_to(ROOT)}")
            metrics = per_layer(rounds, traced, tracer)
            rounds += traced
        else:
            metrics = end_to_end(rounds, setup_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    problems = [p for r in rounds for p in r.problems]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
