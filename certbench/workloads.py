"""The benchmark's workloads and the checks made apart from pathcert.

Each workload is a list of ``pathcert.bench`` runs.  The checks read only
the files a run writes (``report.json`` and the certificates, parsed here
with ``json``) and compare them with computations written out in this file
from the problems' definitions: the Katsura-3 equations, numpy's SVD of the
Hilbert matrix and the closed-form square-root path.  The only pathcert
calls are the tamper checks, whose point is to exercise ``verify``.
"""

import copy
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from pathcert import bench
from pathcert.bench import BenchmarkSpec
from pathcert.certificate import deserialize, verify
from pathcert.errors import PathcertError
from pathcert.tracker import TrackerConfig

# newton_sweep: m values per mode.  rect runs at dt0 = 0.002, where it
# certifies m up to 100 (at m = 150 the step size underflows near t = 1);
# tilted runs at dt0 = 0.02 up to m = 1e4 (at m = 1e5 the first Newton
# refinement cannot reach its absolute tolerance).
NEWTON_TILTED_M = (1.0, 10.0, 100.0, 1000.0, 10000.0)
NEWTON_RECT_M = (1.0, 3.0, 10.0, 30.0, 100.0)

KATSURA_RESIDUAL_TOL = 1e-8
KATSURA_DISTINCT = 1e-6
LOWRANK_TOL = 1e-8
NEWTON_ENDPOINT_TOL = 1e-10
SAMPLES_PER_SEGMENT = 4


@dataclass(frozen=True)
class Workload:
    name: str
    runs: tuple        # ((label, BenchmarkSpec), ...), certified in order
    check: object      # check(outputs, rng) -> list of problems


@dataclass
class PathOutput:
    label: str
    spec: BenchmarkSpec
    path_id: int
    certified: bool
    iterations: int
    final_point: "np.ndarray | None"
    cert: "dict | None"      # the certificate file, parsed with json
    cert_bytes: int


def make(name, family_seed=None):
    """The workload called ``name``; family_seed overrides the shipped
    ``FAMILY_SEEDS`` entry of katsura and lowrank."""
    if name == "katsura3":
        spec = BenchmarkSpec("katsura", "tilted", TrackerConfig(),
                             seed=family_seed, n=3)
        return Workload(name, (("katsura3", spec),), _check_katsura3)
    if name == "lowrank_n4":
        spec = BenchmarkSpec("lowrank", "tilted",
                             TrackerConfig(dt0=0.2, r0=0.1),
                             seed=family_seed, n=4)
        return Workload(name, (("lowrank_n4", spec),), _check_lowrank_n4)
    if name == "newton_sweep":
        runs = tuple(
            (f"tilted_m{m:g}",
             BenchmarkSpec("newton", "tilted",
                           TrackerConfig(dt0=0.02, r0=0.1), m=m))
            for m in NEWTON_TILTED_M) + tuple(
            (f"rect_m{m:g}",
             BenchmarkSpec("newton", "rect",
                           TrackerConfig(dt0=0.002, r0=0.1), m=m))
            for m in NEWTON_RECT_M)
        return Workload(name, runs, _check_newton_sweep)
    raise ValueError(f"unknown workload {name!r}")


def digest(workload, families):
    """Short hash of every run's settings, homotopy and start points."""
    sha = hashlib.sha256()
    for (label, spec), (h, starts) in zip(workload.runs, families):
        sha.update(json.dumps([label, spec.mode, repr(spec.config),
                               spec.effective_seed(), h.to_json()],
                              sort_keys=True).encode())
        sha.update(np.ascontiguousarray(starts, np.complex128).tobytes())
    return sha.hexdigest()[:16]


# ---------------------------------------------------------------------------
# reading a run directory
# ---------------------------------------------------------------------------

def _complex_vector(pairs):
    return np.array([complex(float(a), float(b)) for a, b in pairs])


def read_run(label, spec, run_dir):
    """Every path of one run directory, from its files alone."""
    with open(run_dir / "report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    out = []
    for entry in report["paths"]:
        cert, size, fp = None, 0, None
        if entry["certified"]:
            raw = (run_dir / entry["cert_file"]).read_bytes()
            cert, size = json.loads(raw), len(raw)
            fp = _complex_vector(entry["final_point"])
        out.append(PathOutput(label, spec, entry["path_id"],
                              entry["certified"], entry.get("iterations", 0),
                              fp, cert, size))
    return out


# ---------------------------------------------------------------------------
# independent checks
# ---------------------------------------------------------------------------

def _structure(paths):
    """Every certificate's segment count equals the report's iterations,
    and its final point equals the report's endpoint."""
    problems = []
    for p in paths:
        if p.cert is None:
            continue
        if len(p.cert["segments"]) != p.iterations:
            problems.append(f"{p.label} path {p.path_id}: "
                            f"{len(p.cert['segments'])} segments, report "
                            f"says {p.iterations} iterations")
        if not np.array_equal(_complex_vector(p.cert["final_point"]),
                              p.final_point):
            problems.append(f"{p.label} path {p.path_id}: certificate and "
                            "report disagree on the endpoint")
    return problems


def katsura3_equations(x):
    """Katsura-3 from its definition: with u_{-i} = u_i and u_i = 0 for
    |i| > 2, sum_i u_i u_{m-i} = u_m for m = 0, 1, and
    u_0 + 2 u_1 + 2 u_2 = 1."""
    u0, u1, u2 = x
    return np.array([u0 * u0 + 2 * u1 * u1 + 2 * u2 * u2 - u0,
                     2 * u0 * u1 + 2 * u1 * u2 - u1,
                     u0 + 2 * u1 + 2 * u2 - 1])


def _check_katsura3(outputs, rng):
    paths = outputs["katsura3"]
    problems = _structure(paths)
    ends = [p.final_point for p in paths if p.certified]
    for p in paths:
        if p.certified:
            res = float(np.abs(katsura3_equations(p.final_point)).max())
            if not res <= KATSURA_RESIDUAL_TOL:
                problems.append(f"katsura3 path {p.path_id}: Katsura-3 "
                                f"residual {res:.3e}")
    for i in range(len(ends)):
        for j in range(i + 1, len(ends)):
            if float(np.abs(ends[i] - ends[j]).max()) <= KATSURA_DISTINCT:
                problems.append(f"katsura3: endpoints {i} and {j} coincide")
    return problems


def _check_lowrank_n4(outputs, rng):
    paths = outputs["lowrank_n4"]
    problems = _structure(paths)
    i = np.arange(1, 5)
    hilbert = 1.0 / (i[:, None] + i[None, :] - 1.0)
    u, s, vt = np.linalg.svd(hilbert)
    best = s[0] * np.outer(u[:, 0], vt[0])
    for p in paths:
        if p.certified:
            x, y = p.final_point[:4], p.final_point[4:]
            err = float(np.abs(np.outer(x, y) - best).max())
            if not err <= LOWRANK_TOL:
                problems.append(f"lowrank_n4 path {p.path_id}: x y^T is "
                                f"{err:.3e} from sigma1 u1 v1^T")
    return problems


def _check_newton_sweep(outputs, rng):
    """Endpoints equal 1, and the closed-form path sqrt(1 + m - m t)
    lies inside every certified region at the segment ends and at
    SAMPLES_PER_SEGMENT seeded times inside each segment."""
    problems = []
    for label, paths in outputs.items():
        problems += _structure(paths)
        for p in paths:
            if not p.certified:
                continue
            if not abs(p.final_point[0] - 1.0) <= NEWTON_ENDPOINT_TOL:
                problems.append(f"{label}: endpoint {p.final_point[0]!r}")
            outside = _path_outside_regions(p.cert, p.spec.m, rng)
            if outside:
                problems.append(f"{label}: path leaves the certified "
                                f"region of {outside} segments")
    return problems


def _path_outside_regions(cert, m, rng):
    segs = cert["segments"]
    t_lo = np.array([float(s["t_lo"]) for s in segs])
    t_hi = np.array([float(s["t_hi"]) for s in segs])
    box = np.array([[float(v) for v in s["box"][0]] for s in segs])
    frac = np.concatenate([np.zeros((len(segs), 1)), np.ones((len(segs), 1)),
                           rng.uniform(size=(len(segs), SAMPLES_PER_SEGMENT))],
                          axis=1)
    t = np.minimum(t_lo[:, None] + frac * (t_hi - t_lo)[:, None],
                   t_hi[:, None])
    z = np.sqrt((1.0 + m - m * t).astype(np.complex128))
    if cert["mode"] == "tilted":
        x0 = np.array([_complex_vector(s["shear_x0"])[0] for s in segs])
        x1 = np.array([_complex_vector(s["shear_x1"])[0] for s in segs])
        slope = (x1 - x0) / (t_hi - t_lo)
        z = z - (x0[:, None] + (t - t_lo[:, None]) * slope[:, None])
    inside = ((box[:, 0:1] <= z.real) & (z.real <= box[:, 1:2])
              & (box[:, 2:3] <= z.imag) & (z.imag <= box[:, 3:4]))
    return int((~inside.all(axis=1)).sum())


# ---------------------------------------------------------------------------
# tamper checks
# ---------------------------------------------------------------------------

def tamper_rejections(paths, rng):
    """Perturb one mid-path segment i of one certificate, chosen by rng, in
    two ways; returns (attempted, accepted) over the two variants.

    Scaled: segment i's Y times 2.  Then I - Y J is near -I, so the
    replay of segment i must fail its uniqueness check; the variant counts
    as rejected only if verify marks segment i itself as failed.
    Widened: segment i's time bracket stretched by its own width on both
    sides, so it no longer meets its neighbours and the chain check must
    reject it, whatever the replay of the wider claim finds.  (Widening to
    the end of the path with the chain kept intact is no tamper: on slow
    paths the wider claim can be true, and verify rightly accepts it.)
    """
    certified = [p for p in paths if p.cert is not None]
    if not certified:
        return 2, 2
    target = certified[int(rng.integers(len(certified)))]
    n_segs = len(target.cert["segments"])
    i = int(rng.integers(n_segs // 4, max(n_segs // 4 + 1, 3 * n_segs // 4)))

    scaled = copy.deepcopy(target.cert)
    seg = scaled["segments"][i]
    seg["y"] = [[[repr(2.0 * float(v)) for v in z] for z in row]
                for row in seg["y"]]

    widened = copy.deepcopy(target.cert)
    seg = widened["segments"][i]
    t_lo, t_hi = float(seg["t_lo"]), float(seg["t_hi"])
    seg["t_lo"], seg["t_hi"] = repr(2 * t_lo - t_hi), repr(2 * t_hi - t_lo)

    accepted = 0
    for variant, needs_segment in ((scaled, True), (widened, False)):
        try:
            report = verify(deserialize(json.dumps(variant)))
            rejected = not report.ok and (
                not needs_segment or not report.segment_ok[i])
        except PathcertError:
            rejected = not needs_segment
        accepted += not rejected
    return 2, accepted


def warm_up(run_dir):
    """Certify and verify one short newton path, so first-call costs land
    in set-up rather than in the first measured round."""
    spec = BenchmarkSpec("newton", "tilted", TrackerConfig(dt0=0.02, r0=0.1),
                         m=1.0)
    bench.run_benchmark(spec, run_dir)
    bench.verify_run(run_dir)
