"""Benchmark families and the batch harness.

Four families, each produced as a parameter homotopy plus start points:

newton   one unknown, F = x^2 - (1 + m) + m*p moved from p=0 to p=1, with
         the closed-form path sqrt(1 + m - m t) available as an oracle.
random   k dense random quadratics in k unknowns; every coefficient is a
         parameter.  Start coefficients encode the decoupled system
         x_i^2 - 1, whose 2^k sign-vector roots are the start points.
katsura  the classical magnetism-inspired quadratic chain in n unknowns
         (2^{n-1} regular roots); tracked from a seeded linear-product
         start system, each quadratic a product of two random affine
         forms, whose 2^{n-1} roots are linear solves.
lowrank  critical points of |A - x y^T|_F^2 with a linear chart on x;
         the n^2 entries of A are the parameters, moved from a seeded
         random start matrix to the (notoriously ill-conditioned) Hilbert
         matrix.  The start point is the dominant singular pair of the
         start matrix, from a one-sided Jacobi SVD.

The harness tracks every start, writes certificates, a step-size trace
CSV, and a deterministic report.json (floats as round-trip strings, no
timing inside, so identical seeds yield identical bytes).
"""

import csv
import json
import logging
import math
import time
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import numpy as np

from ._pool import pool_map
from .certificate import (
    MODE_TILTED,
    load_certificate,
    save_certificate,
    verify,
)
from .errors import (
    DegenerateStart,
    InvalidM,
    MalformedCertificate,
    ParseError,
    PathcertError,
    SingularMatrix,
    UnsupportedN,
)
from .ilinalg import solve_point
from .systems import Homotopy, ParametricSystem, Term, cvec_out, float_out
from .tracker import NEWTON_TOL, TrackerConfig, track

_log = logging.getLogger("pathcert")

# Shipped default seed per family, chosen so the default instances are
# well-conditioned.  The katsura seed is the first from 0 for which
# katsura n = 2, 3 and 4 all certify every path with the default config
# in tilted mode (seed 0 loses one n = 4 path to StepUnderflow).  The
# lowrank seed lands the tracked branch on the dominant singular pair of
# the Hilbert target for every n up to 5.
FAMILY_SEEDS = {"newton": 42, "random": 42, "katsura": 1, "lowrank": 62}

SVD_MAX_SWEEPS = 60        # Jacobi sweeps of svd_oracle


# ---------------------------------------------------------------------------
# family: newton (square root of 1 + m)
# ---------------------------------------------------------------------------

def gen_newton_homotopy(m):
    """Homotopy x^2 - (1 + m) + m*p with p: 0 -> 1, plus its start point.

    The unique positive start is sqrt(1 + m); the exact path is
    x(t) = sqrt(1 + m - m t), ending at x(1) = 1.
    """
    m = float(m)
    if not math.isfinite(m) or m <= -1.0:
        raise InvalidM(f"need finite m > -1, got {m}")
    sys = ParametricSystem(1, 1, [[
        Term(1.0, None, (2,)),
        Term(-(1.0 + m), None, (0,)),
        Term(m, 0, (0,)),
    ]])
    h = Homotopy(sys, np.array([0.0 + 0.0j]), np.array([1.0 + 0.0j]))
    starts = np.array([[complex(math.sqrt(1.0 + m))]], dtype=np.complex128)
    return h, starts


def newton_path_point(m, t):
    """Closed-form path value sqrt(1 + m - m t) of the newton family."""
    return complex(np.sqrt(complex(1.0 + m - m * t)))


# ---------------------------------------------------------------------------
# family: random dense quadratics
# ---------------------------------------------------------------------------

def _monomials_upto(n, d):
    monos = [e for e in product(range(d + 1), repeat=n) if sum(e) <= d]
    monos.sort(reverse=True)
    return monos


def _coefficient_system(n, supports):
    """System whose every coefficient is a parameter, one per monomial.

    supports: per equation, the ordered monomial list.  Returns the system
    and the per-equation parameter index offsets.
    """
    eqs = []
    offsets = []
    idx = 0
    for row in supports:
        terms = []
        offsets.append(idx)
        for e in row:
            terms.append(Term(1.0, idx, e))
            idx += 1
        eqs.append(terms)
    return ParametricSystem(n, idx, eqs), offsets


def gen_random_quadratic(k, seed=42):
    """k dense quadratics in k unknowns, all coefficients parametric.

    Start coefficients encode x_i^2 - 1 per equation, so the 2^k sign
    vectors are exact start roots; target coefficients are seeded complex
    normals.
    """
    k = int(k)
    if not (1 <= k <= 10):
        raise UnsupportedN(f"supported sizes are 1..10, got {k}")
    monos = _monomials_upto(k, 2)
    sys, offsets = _coefficient_system(k, [monos] * k)
    rng = np.random.default_rng(seed)
    p1 = rng.standard_normal(sys.m) + 1j * rng.standard_normal(sys.m)
    p0 = np.zeros(sys.m, dtype=np.complex128)
    const = tuple([0] * k)
    for i in range(k):
        sq = tuple(2 if j == i else 0 for j in range(k))
        p0[offsets[i] + monos.index(sq)] = 1.0
        p0[offsets[i] + monos.index(const)] = -1.0
    h = Homotopy(sys, p0, p1)
    starts = np.array([s for s in product((1.0, -1.0), repeat=k)],
                      dtype=np.complex128)
    return h, starts


# ---------------------------------------------------------------------------
# family: katsura chain
# ---------------------------------------------------------------------------

def _katsura_target(n):
    """True coefficient dictionaries (monomial -> coeff) per equation."""
    eqs = []
    for m in range(n - 1):
        d = {}
        for i in range(-(n - 1), n):
            a, b = abs(i), abs(m - i)
            if a <= n - 1 and b <= n - 1:
                e = [0] * n
                e[a] += 1
                e[b] += 1
                e = tuple(e)
                d[e] = d.get(e, 0.0) + 1.0
        lin = tuple(1 if j == m else 0 for j in range(n))
        d[lin] = d.get(lin, 0.0) - 1.0
        eqs.append(d)
    last = {}
    last[tuple(1 if j == 0 else 0 for j in range(n))] = 1.0
    for i in range(1, n):
        last[tuple(1 if j == i else 0 for j in range(n))] = 2.0
    last[tuple([0] * n)] = -1.0
    eqs.append(last)
    return eqs


def gen_katsura(n, seed=1):
    """Katsura-n: n unknowns, n-1 quadratics plus one linear equation,
    2^{n-1} regular roots.

    Coefficients over the full dense quadratic/linear supports are the
    parameters.  The start system is a linear product: quadratic i is
    the product of two seeded random affine forms l_i0 * l_i1, and the
    last equation a random affine form g.  Choosing one factor per
    quadratic leaves n linear equations, so its 2^{n-1} roots are
    point solves (raises DegenerateStart if one is singular).
    """
    n = int(n)
    if not (2 <= n <= 8):
        raise UnsupportedN(f"supported sizes are 2..8, got {n}")
    quad = _monomials_upto(n, 2)
    lin = _monomials_upto(n, 1)
    supports = [quad] * (n - 1) + [lin]
    sys, offsets = _coefficient_system(n, supports)
    rng = np.random.default_rng(seed)
    # row r of forms[i] is the affine form l_ir(x) = forms[i][r] . (1, x)
    forms = [rng.standard_normal((2, n + 1))
             + 1j * rng.standard_normal((2, n + 1)) for _ in range(n - 1)]
    g = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)

    def mono(*vs):
        """Exponent of the product of the entries vs of (1, x)."""
        e = [0] * n
        for v in vs:
            if v:
                e[v - 1] += 1
        return tuple(e)

    p0 = np.zeros(sys.m, dtype=np.complex128)
    for i, (a, b) in enumerate(forms):
        for j in range(n + 1):
            for k in range(n + 1):
                p0[offsets[i] + quad.index(mono(j, k))] += a[j] * b[k]
    for j in range(n + 1):
        p0[offsets[n - 1] + lin.index(mono(j))] = g[j]

    p1 = np.zeros(sys.m, dtype=np.complex128)
    for i, d in enumerate(_katsura_target(n)):
        row = supports[i]
        for e, c in d.items():
            p1[offsets[i] + row.index(e)] = c
    h = Homotopy(sys, p0, p1)

    starts = []
    for choice in product((0, 1), repeat=n - 1):
        rows = np.array([forms[i][r] for i, r in enumerate(choice)] + [g])
        try:
            starts.append(solve_point(rows[:, 1:], -rows[:, 0]))
        except SingularMatrix as e:
            raise DegenerateStart(
                f"start factors {choice} have no single common root") from e
    return h, np.array(starts, dtype=np.complex128)


# ---------------------------------------------------------------------------
# family: nearest rank-one matrix
# ---------------------------------------------------------------------------

def hilbert_matrix(n):
    i = np.arange(1, n + 1)
    return 1.0 / (i[:, None] + i[None, :] - 1.0)


def gen_lowrank(n, seed=62):
    """Critical-point system of |A - x y^T|_F^2 with chart b^T x = 1.

    Unknowns (x_1..x_n, y_1..y_n); equations: d/dx_i for i >= 2, d/dy_j
    for all j, and the chart (2n equations).  The n^2 entries of A are
    parameters, moved from a seeded random matrix to the Hilbert matrix.
    The single start point is the dominant singular pair of the start
    matrix.

    The start matrix carries a random complex phase and the chart vector
    is complex random.  Both guard against real-segment degeneracies: an
    all-real segment generically passes through branch collisions
    (singular-value crossings), and a real chart can turn orthogonal to
    the rotating dominant singular vector at some interior t, which sends
    x off to infinity mid-path.
    """
    n = int(n)
    if not (2 <= n <= 12):
        raise UnsupportedN(f"supported sizes are 2..12, got {n}")
    rng = np.random.default_rng(seed)
    a0 = rng.standard_normal((n, n))
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b /= np.linalg.norm(b)
    gamma = complex(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))

    # chart constant b^T u1(A0) makes the start x exactly u1, so the x
    # scale along the path is 1 / the chart margin relative to the start
    u, s, vt = svd_oracle(a0)
    if s[0] - s[1] < 1e-8 * max(1.0, s[0]):
        raise DegenerateStart(
            f"top singular values too close: {s[0]} vs {s[1]}")
    bu = complex(b @ u[:, 0])
    if abs(bu) < 1e-8:
        raise DegenerateStart("chart nearly orthogonal to dominant vector")
    c = bu
    nv = 2 * n

    def xv(i):
        return i  # x_i at slot i, 0-based

    def yv(j):
        return n + j

    def e_at(pairs):
        e = [0] * nv
        for v, p in pairs:
            e[v] += p
        return tuple(e)

    eqs = []
    # d/dx_i = sum_j x_i y_j^2 - sum_j A_ij y_j, for i = 1..n-1 (0-based)
    for i in range(1, n):
        terms = []
        for j in range(n):
            terms.append(Term(1.0, None, e_at([(xv(i), 1), (yv(j), 2)])))
            terms.append(Term(-1.0, i * n + j, e_at([(yv(j), 1)])))
        eqs.append(terms)
    # d/dy_j = sum_i x_i^2 y_j - sum_i A_ij x_i
    for j in range(n):
        terms = []
        for i in range(n):
            terms.append(Term(1.0, None, e_at([(xv(i), 2), (yv(j), 1)])))
            terms.append(Term(-1.0, i * n + j, e_at([(xv(i), 1)])))
        eqs.append(terms)
    # chart b^T x - c
    terms = [Term(b[i], None, e_at([(xv(i), 1)])) for i in range(n)]
    terms.append(Term(-c, None, tuple([0] * nv)))
    eqs.append(terms)

    sys = ParametricSystem(nv, n * n, eqs)
    h = Homotopy(sys, gamma * a0.flatten().astype(np.complex128),
                 hilbert_matrix(n).flatten().astype(np.complex128))

    # x = u1, y = gamma*s1*v1 solves the critical system of gamma*A0:
    # the phase rides on y while x stays on the real singular vector.
    x = u[:, 0].astype(np.complex128)
    y = (gamma * s[0]) * vt[0, :]
    starts = np.concatenate([x, y]).astype(np.complex128)[None, :]
    return h, starts


def svd_oracle(a):
    """One-sided Jacobi SVD of a real square matrix.

    Rotates column pairs until all are mutually orthogonal, then reads off
    singular values as column norms.  Returns (u, s, vt) sorted by
    descending s with a @ vt.T == u * s columnwise.
    """
    a = np.array(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise UnsupportedN(f"square matrix required, got {a.shape}")
    n = a.shape[0]
    w = a.copy()
    v = np.eye(n)
    for _ in range(SVD_MAX_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                al = w[:, p] @ w[:, p]
                be = w[:, q] @ w[:, q]
                ga = w[:, p] @ w[:, q]
                if abs(ga) <= 1e-15 * math.sqrt(al * be) or ga == 0.0:
                    continue
                rotated = True
                zeta = (be - al) / (2.0 * ga)
                t = math.copysign(1.0, zeta) / (
                    abs(zeta) + math.sqrt(1.0 + zeta * zeta))
                cth = 1.0 / math.sqrt(1.0 + t * t)
                sth = cth * t
                wp = w[:, p].copy()
                w[:, p] = cth * wp - sth * w[:, q]
                w[:, q] = sth * wp + cth * w[:, q]
                vp = v[:, p].copy()
                v[:, p] = cth * vp - sth * v[:, q]
                v[:, q] = sth * vp + cth * v[:, q]
        if not rotated:
            break
    s = np.sqrt((w * w).sum(axis=0))
    order = np.argsort(-s)
    s = s[order]
    u = np.zeros((n, n))
    for k, col in enumerate(order):
        if s[k] > 0:
            u[:, k] = w[:, col] / s[k]
        else:
            u[k, k] = 1.0
    vt = v[:, order].T
    return u, s, vt


# ---------------------------------------------------------------------------
# batch harness
# ---------------------------------------------------------------------------

@dataclass
class BenchmarkSpec:
    family: str
    mode: str = MODE_TILTED
    config: TrackerConfig = field(default_factory=TrackerConfig)
    seed: "int | None" = None
    m: float = 10.0   # newton
    k: int = 3        # random
    n: int = 3        # katsura / lowrank

    def effective_seed(self):
        """The seed actually used: explicit, or the family default."""
        if self.seed is not None:
            return self.seed
        if self.family not in FAMILY_SEEDS:
            raise ValueError(f"unknown family {self.family!r}")
        return FAMILY_SEEDS[self.family]

    def family_params(self):
        if self.family == "newton":
            return {"m": repr(float(self.m))}
        if self.family == "random":
            return {"k": self.k}
        if self.family in ("katsura", "lowrank"):
            return {"n": self.n}
        raise ValueError(f"unknown family {self.family!r}")

    def label(self):
        args = ",".join(f"{k}={v}" for k, v in self.family_params().items())
        return f"{self.family}({args})"


def build_family(spec):
    """(homotopy, starts) for a benchmark spec."""
    if spec.family == "newton":
        return gen_newton_homotopy(spec.m)
    if spec.family == "random":
        return gen_random_quadratic(spec.k, seed=spec.effective_seed())
    if spec.family == "katsura":
        return gen_katsura(spec.n, seed=spec.effective_seed())
    if spec.family == "lowrank":
        return gen_lowrank(spec.n, seed=spec.effective_seed())
    raise ValueError(f"unknown family {spec.family!r}")


@dataclass
class BenchmarkReport:
    report: dict
    results: list
    wall_time: float
    out_dir: "str | None"


def _track_task(args):
    """Track one path.  Any exception fails this path alone; one that is
    not a PathcertError is a defect, so its traceback is logged."""
    h, x0, cfg, mode, pid = args
    try:
        return pid, track(h, x0, cfg, mode=mode, path_id=pid), None
    except PathcertError as e:
        return pid, None, f"{type(e).__name__}: {e}"
    except Exception as e:
        _log.exception("path %d raised an unexpected error", pid)
        return pid, None, f"{type(e).__name__}: {e}"


def run_benchmark(spec, out_dir=None):
    """Track every start of a family; write certs, trace CSV and report.

    Returns a BenchmarkReport whose ``report`` dict is exactly what lands
    in report.json: per-path iteration counts (accepted time steps, with
    the total Krawczyk-test tally under ``tests``), certificate file
    names, endpoints, and aggregate min/avg/max.  Wall time is kept on
    the returned object only, so the file is byte-identical across reruns
    with the same seed.  Paths track through ``pool_map``, on min(paths,
    usable cores) processes; the outputs are the same bytes either way.
    out_dir is created before any path is tracked, so an unusable one
    fails first, with OSError.
    """
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    t_begin = time.perf_counter()
    h, starts = build_family(spec)
    tasks = [(h, starts[i], spec.config, spec.mode, i)
             for i in range(len(starts))]
    results = pool_map(_track_task, tasks)
    wall = time.perf_counter() - t_begin

    paths = []
    iters = []
    tests = []
    certs = {}
    for pid, res, err in results:
        entry = {
            "path_id": pid,
            "start": cvec_out(starts[pid]),
            "certified": res is not None,
        }
        if res is not None:
            entry["iterations"] = res.iterations
            entry["tests"] = res.tests
            entry["accepted"] = res.iterations
            entry["rejected"] = res.rejected
            entry["final_point"] = cvec_out(res.final_point)
            entry["final_residual"] = float_out(res.final_residual)
            entry["cert_file"] = f"cert_{pid:03d}.json"
            iters.append(res.iterations)
            tests.append(res.tests)
            certs[pid] = res.certificate
        else:
            entry["error"] = err
        paths.append(entry)

    aggregate = {
        "n_paths": len(paths),
        "n_certified": len(iters),
        "iterations_min": min(iters) if iters else None,
        "iterations_max": max(iters) if iters else None,
        "iterations_avg":
            float_out(sum(iters) / len(iters)) if iters else None,
        "tests_avg": float_out(sum(tests) / len(tests)) if tests else None,
    }
    cfg = spec.config
    report = {
        "format": "pathcert-benchmark-report",
        "version": 1,
        "family": spec.family,
        "params": spec.family_params(),
        "mode": spec.mode,
        "seed": spec.effective_seed(),
        "config": {
            "dt0": float_out(cfg.dt0),
            "r0": float_out(cfg.r0),
            "lambda": float_out(cfg.lam),
            "newton_tol": float_out(NEWTON_TOL),
        },
        "paths": paths,
        "aggregate": aggregate,
    }

    if out_dir is not None:
        out = Path(out_dir)
        for pid, cert in sorted(certs.items()):
            save_certificate(cert, out / f"cert_{pid:03d}.json")
        with open(out / "steps.csv", "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["path_id", "step_index", "t0", "dt", "r",
                        "accepted", "residual_norm"])
            for pid, res, _ in results:
                if res is None:
                    continue
                for rec in res.step_log:
                    w.writerow([pid, rec.index, float_out(rec.t0),
                                float_out(rec.dt), float_out(rec.r),
                                int(rec.accepted),
                                float_out(rec.residual_norm)])
        with open(out / "report.json", "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")

    return BenchmarkReport(report=report, results=results, wall_time=wall,
                           out_dir=None if out_dir is None else str(out_dir))


def _verify_task(args):
    """Verify one report entry against its certificate: (ok, line)."""
    out, index, entry = args
    pid = entry.get("path_id")
    name = entry.get("cert_file")
    try:
        # a JSON integer, as a certificate's path_id: false is not 0
        if type(pid) is not int or pid != index:
            raise MalformedCertificate(
                f"report entry {index} is for path {pid!r}")
        if not entry.get("certified"):
            return False, (f"path {pid}: not certified "
                           f"({entry.get('error', 'unknown error')})")
        if not (isinstance(name, str) and name not in ("", "..")
                and Path(name).name == name):
            raise MalformedCertificate(
                f"cert_file {name!r} is not a file name in the run directory")
        cert = load_certificate(out / name)
        if cert.path_id != pid:
            raise MalformedCertificate(
                f"{name} certifies path {cert.path_id}, not path {pid}")
        if entry.get("final_point") != cvec_out(cert.final_point):
            raise MalformedCertificate(
                f"the report's final_point is not the one {name} certifies")
        rep = verify(cert)
    except PathcertError as e:
        return False, f"path {pid}: {type(e).__name__}: {e}"
    return rep.ok, f"path {pid}: {rep.summary()}"


def verify_run(out_dir):
    """Re-verify every certificate of a benchmark run directory.

    Entry i of report.json must be for path i.  Each certified entry must
    name, as a bare file name in the run directory, a certificate of the
    same path id and the same final point, and that certificate must
    verify.  The entries are independent tasks for ``pool_map``, so
    several certificates verify at once on a multi-core machine.  Returns
    (all_ok, lines), one printable line per entry in report order.
    """
    out = Path(out_dir)
    report_path = out / "report.json"
    try:
        with open(report_path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as e:
        raise ParseError(f"{report_path}: {e}") from e
    if not (isinstance(report, dict) and isinstance(report.get("paths"), list)
            and all(isinstance(p, dict) for p in report["paths"])):
        raise ParseError(f"{report_path}: not a benchmark report")
    results = pool_map(_verify_task,
                       [(out, i, e) for i, e in enumerate(report["paths"])])
    return all(ok for ok, _ in results), [line for _, line in results]
