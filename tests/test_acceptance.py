"""Acceptance gate.

One test per shipped guarantee, each printing a single CRITERION line
(visible with -s or -rA) and enforcing its runtime budget.  Budgets count
the tracking fixtures a criterion depends on plus its own checking time;
the first-use costs of imports and lazily built state are paid once by
conftest's ``warm_up`` and are excluded.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import csv
import dataclasses
import math
import statistics
import time
from fractions import Fraction

import numpy as np
import pytest

import tutil
from pathcert import _kernels as _k
from pathcert.bench import (
    BenchmarkSpec,
    gen_katsura,
    gen_newton_homotopy,
    gen_random_quadratic,
    hilbert_matrix,
    run_benchmark,
    svd_oracle,
    verify_run,
)
from pathcert.certificate import load_certificate, verify
from pathcert.ilinalg import IntervalMatrix, imatvec, residual_matrix
from pathcert.intervals import Box, RealInterval, box_centered
from pathcert.krawczyk import parametric_krawczyk_test
from pathcert.tracker import TrackerConfig

N_CHECKS = 100_000


# ---------------------------------------------------------------------------
# shared tracked fixtures (module scope; each records its wall time)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def acceptance_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def newton_runs(acceptance_dir):
    t0 = time.perf_counter()
    cfg = TrackerConfig(dt0=0.02, r0=0.1)
    runs = {}
    for m in (10.0, 40.0, 100.0, 2000.0):
        spec = BenchmarkSpec("newton", m=m, config=cfg)
        runs[m] = run_benchmark(spec, out_dir=acceptance_dir / f"newton_m{int(m)}")
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def katsura_run(acceptance_dir):
    t0 = time.perf_counter()
    br = run_benchmark(BenchmarkSpec("katsura", n=3),
                       out_dir=acceptance_dir / "katsura3")
    return br, time.perf_counter() - t0


@pytest.fixture(scope="module")
def random_run(acceptance_dir):
    t0 = time.perf_counter()
    br = run_benchmark(BenchmarkSpec("random", k=3),
                       out_dir=acceptance_dir / "random_k3")
    return br, time.perf_counter() - t0


RATIO_GRID = [(0.2, 0.4), (0.02, 0.04),    # R = 0.5, scales 10x apart
              (0.4, 0.4), (0.04, 0.04),    # R = 1
              (0.8, 0.4), (0.08, 0.04)]    # R = 2


@pytest.fixture(scope="module")
def ratio_runs(acceptance_dir):
    t0 = time.perf_counter()
    runs = []
    for i, (dt0, r0) in enumerate(RATIO_GRID):
        spec = BenchmarkSpec("random", k=3,
                             config=TrackerConfig(dt0=dt0, r0=r0))
        br = run_benchmark(spec, out_dir=acceptance_dir / f"ratio_{i}")
        runs.append((dt0, r0, br))
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def lowrank_runs(acceptance_dir):
    t0 = time.perf_counter()
    cfg = TrackerConfig(dt0=0.2, r0=0.1)
    runs = {}
    for n in (2, 3, 4, 5):
        spec = BenchmarkSpec("lowrank", n=n, config=cfg)
        runs[n] = run_benchmark(spec, out_dir=acceptance_dir / f"lowrank_n{n}")
    return runs, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# criterion 1: interval soundness, 1e5 exact containment checks per category
# ---------------------------------------------------------------------------

def _rand_intervals(rng, k, denom=False):
    """Endpoint arrays (lo, hi) over mixed scales plus interior points."""
    scale = 10.0 ** rng.uniform(-6.0, 6.0, k)
    a = rng.standard_normal(k) * scale
    b = rng.standard_normal(k) * scale
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    if denom:
        # sign-definite, bounded away from zero
        w = hi - lo
        base = (0.05 + rng.random(k)) * scale
        neg = rng.random(k) < 0.5
        lo = np.where(neg, -(base + w), base)
        hi = np.where(neg, -base, base + w)
    x = np.clip(lo + rng.random(k) * (hi - lo), lo, hi)
    return lo, hi, x


def _exact_dot(ms_row, vs, delta=None):
    acc = (Fraction(0), Fraction(0)) if delta is None else delta
    for mz, vz in zip(ms_row, vs):
        acc = tutil.c_add(acc, tutil.c_mul(tutil.c_pair(mz), tutil.c_pair(vz)))
    return acc


def _sample_interval_matrix(rng, data):
    u = rng.random(data.shape[:2])
    v = rng.random(data.shape[:2])
    return (data[..., 0] + u * (data[..., 1] - data[..., 0])
            + 1j * (data[..., 2] + v * (data[..., 3] - data[..., 2])))


def _interval_matrix_around(rng, a, spread):
    data = np.empty(a.shape + (4,))
    for ch, part in ((0, a.real), (2, a.imag)):
        lo = part - spread * rng.random(a.shape)
        hi = part + spread * rng.random(a.shape)
        data[..., ch] = lo
        data[..., ch + 1] = hi
    return IntervalMatrix(data)


def _ordered(iv):
    """Every side (lo, hi) of an interval or rectangle is finite with
    lo <= hi."""
    return all(math.isfinite(iv[k]) and math.isfinite(iv[k + 1])
               and iv[k] <= iv[k + 1] for k in range(0, len(iv), 2))


def test_criterion_1_interval_soundness():
    started = time.perf_counter()
    rng = np.random.default_rng(20260815)
    counts = {}
    bad = []

    # real interval ops, on the kernels; a divisor must exclude 0
    ops = {"+": _k.r_add, "-": _k.r_sub, "*": _k.r_mul, "/": _k.r_div}
    total = 0
    for sym, fn in ops.items():
        alo, ahi, ax = (v.tolist() for v in _rand_intervals(rng, N_CHECKS))
        blo, bhi, bx = (v.tolist() for v in _rand_intervals(
            rng, N_CHECKS, denom=(sym == "/")))
        for i in range(N_CHECKS):
            if sym == "/" and blo[i] <= 0.0 <= bhi[i]:
                bad.append(("real divisor holds 0", sym, ax[i], bx[i]))
            iv = fn(alo[i], ahi[i], blo[i], bhi[i])
            if not (_ordered(iv)
                    and tutil.real_op_contained(iv, ax[i], bx[i], sym)):
                bad.append(("real", sym, ax[i], bx[i]))
            total += 1
    counts["real ops"] = total

    # complex interval ops, on the kernels' rectangles
    cops = {"+": _k.c_add, "-": _k.c_sub, "*": _k.c_mul, "/": _k.c_div}
    total = 0
    for sym, fn in cops.items():
        arl, arh, arx = _rand_intervals(rng, N_CHECKS)
        ail, aih, aix = _rand_intervals(rng, N_CHECKS)
        # the divisor's displayed-formula denominator re^2 + im^2 is an
        # interval product, so both components must be sign-definite to
        # keep its lower endpoint positive
        brl, brh, brx = _rand_intervals(rng, N_CHECKS, denom=(sym == "/"))
        bil, bih, bix = _rand_intervals(rng, N_CHECKS, denom=(sym == "/"))
        cas = list(zip(arl.tolist(), arh.tolist(), ail.tolist(), aih.tolist()))
        cbs = list(zip(brl.tolist(), brh.tolist(), bil.tolist(), bih.tolist()))
        xs = [complex(a, b) for a, b in zip(arx.tolist(), aix.tolist())]
        ys = [complex(a, b) for a, b in zip(brx.tolist(), bix.tolist())]
        for ca, cb, x, y in zip(cas, cbs, xs, ys):
            if sym == "/" and _k.c_den(cb)[0] <= 0.0:
                bad.append(("complex divisor may hold 0", sym, x, y))
            ci = fn(ca, cb)
            if not (_ordered(ci)
                    and tutil.cplx_op_contained(ci, x, y, sym)):
                bad.append(("complex", sym, x, y))
            total += 1
    counts["complex ops"] = total

    # interval matrix times box
    total = 0
    k = 4
    for _ in range(500):
        a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        mat = _interval_matrix_around(rng, a, 10.0 ** rng.uniform(-6.0, -1.0))
        vbox = box_centered(rng.standard_normal(k) + 1j * rng.standard_normal(k),
                            0.05 + rng.random())
        enc = imatvec(mat, vbox)
        for _ in range(50):
            ms = _sample_interval_matrix(rng, mat.data)
            vs = tutil.sample_box(rng, vbox, 1)[0]
            w = ms @ vs
            scale = float((np.abs(ms) @ np.abs(vs)).max()) + 1.0
            for i in range(k):
                row = enc.data[i]
                if not tutil.row_contains_complex(row, w[i], scale):
                    # the float product sat near an endpoint; decide exactly
                    if not tutil.row_in(row, _exact_dot(ms[i], vs)):
                        bad.append(("matvec", i, None, None))
                total += 1
    counts["matvec"] = total

    # residual enclosure I - Y M
    total = 0
    for _ in range(25):
        a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        mat = _interval_matrix_around(rng, a, 10.0 ** rng.uniform(-5.0, -2.0))
        y = np.linalg.inv(a)
        enc = residual_matrix(y, mat)
        yabs = np.abs(y)
        for _ in range(250):
            ms = _sample_interval_matrix(rng, mat.data)
            r = np.eye(k) - y @ ms
            scales = yabs @ np.abs(ms) + 1.0
            for i in range(k):
                for j in range(k):
                    row = enc.data[i, j]
                    if not tutil.row_contains_complex(
                            row, r[i, j], float(scales[i, j])):
                        delta = (Fraction(1 if i == j else 0), Fraction(0))
                        ex = _exact_dot(-y[i], ms[:, j], delta)
                        if not tutil.row_in(row, ex):
                            bad.append(("residual", i, j, None))
                    total += 1
    counts["residual_matrix"] = total

    # interval evaluation of parametric systems over boxes and time windows
    total = 0
    families = [(gen_newton_homotopy(10.0)[0], 400),
                (gen_random_quadratic(2)[0], 200),
                (gen_katsura(3)[0], 134)]
    for h, trials in families:
        n = h.n
        for _ in range(trials):
            x0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            bx = box_centered(x0, 10.0 ** rng.uniform(-3.0, -0.3))
            t0 = rng.uniform(0.0, 0.9)
            tw = RealInterval(t0, t0 + 10.0 ** rng.uniform(-3.0, -1.0))
            enc = h.eval_interval(bx, tw)
            pts = tutil.sample_box(rng, bx, 250)
            ts = rng.uniform(tw.lo, tw.hi, 250)
            for j in range(250):
                if not tutil.eval_contained(h, enc, pts[j], float(ts[j])):
                    bad.append(("eval", h.n, j, None))
                total += n
    counts["interval evaluation"] = total

    elapsed = time.perf_counter() - started
    assert not bad, f"{len(bad)} containment violations, first: {bad[:3]}"
    for cat, cnt in counts.items():
        assert cnt >= N_CHECKS, (cat, cnt)
    assert elapsed < 60.0, f"soundness suite took {elapsed:.1f}s"
    print(f"CRITERION 1: PASS - "
          + ", ".join(f"{c} {v} checks" for c, v in counts.items())
          + f", zero violations, {elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# criterion 2: Krawczyk unit soundness on x^2 - 2
# ---------------------------------------------------------------------------

def test_criterion_2_krawczyk_sqrt2():
    started = time.perf_counter()
    h = tutil.sqrt2_homotopy()
    x = np.array([1.414 + 0.0j])
    y = np.array([[1.0 / 2.828 + 0.0j]])
    tw = RealInterval(0.0, 0.0)

    good = parametric_krawczyk_test(h, x, y, box_centered(x, 0.01), tw)
    assert good.existence and good.uniqueness and good.passed

    tight = parametric_krawczyk_test(h, x, y, box_centered(x, 1e-8), tw)
    assert not tight.existence     # true root sits 2.1e-4 outside the box

    huge = parametric_krawczyk_test(h, x, y, box_centered(x, 1e3), tw)
    assert not huge.uniqueness
    assert huge.residual_norm >= 1.0 / math.sqrt(2.0)

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"{elapsed:.2f}s"
    print(f"CRITERION 2: PASS - radius 0.01 certifies, 1e-8 fails existence, "
          f"1e3 fails uniqueness, {elapsed * 1e3:.0f}ms < 1s")


# ---------------------------------------------------------------------------
# criterion 3: square-root family, endpoint and whole-path containment
# ---------------------------------------------------------------------------

REFERENCE_NEWTON_ITERS = {10.0: 31, 40.0: 20, 100.0: 14, 2000.0: 23}


def test_criterion_3_newton_family(newton_runs):
    runs, fixture_elapsed = newton_runs
    started = time.perf_counter()
    iters = {}
    for m, br in runs.items():
        res = br.results[0][1]
        assert res is not None, br.results[0][2]
        assert abs(res.final_point[0] - 1.0) <= 1e-10
        for seg in res.certificate.segments:
            ts = np.linspace(seg.t_lo, seg.t_hi, 1000)
            xt = np.sqrt(1.0 + m - m * ts)
            frac = (ts - seg.t_lo) / (seg.t_hi - seg.t_lo)
            z = xt - (seg.shear_x0[0] + frac * (seg.shear_x1[0] - seg.shear_x0[0]))
            row = seg.box.data[0]
            inside = ((z.real >= row[0]) & (z.real <= row[1])
                      & (z.imag >= row[2]) & (z.imag <= row[3]))
            assert inside.all(), (m, seg.t_lo, seg.t_hi)
        iters[m] = res.iterations
        ref = REFERENCE_NEWTON_ITERS[m]
        assert ref / 3.0 <= res.iterations <= ref * 3.0, (m, res.iterations)
    elapsed = fixture_elapsed + (time.perf_counter() - started)
    assert elapsed < 120.0, f"{elapsed:.1f}s"
    print(f"CRITERION 3: PASS - endpoints within 1e-10, true path inside all "
          f"certified regions at 1000 times/segment, iterations "
          f"{[iters[m] for m in (10., 40., 100., 2000.)]} within factor 3 of "
          f"(31, 20, 14, 23), {elapsed:.1f}s < 120s")


# ---------------------------------------------------------------------------
# criterion 4: Katsura-3 and the 2^3 random quadratics, full certification
# ---------------------------------------------------------------------------

def test_criterion_4_katsura_and_random(katsura_run, random_run):
    (kat, kat_el), (ran, ran_el) = katsura_run, random_run
    started = time.perf_counter()
    stats = {}
    for name, br, n_paths, ref in (("katsura3", kat, 4, 264.25),
                                   ("random_2^3", ran, 8, 317.75)):
        agg = br.report["aggregate"]
        assert agg["n_paths"] == n_paths
        assert agg["n_certified"] == n_paths
        for entry in br.report["paths"]:
            assert float(entry["final_residual"]) <= 1e-8, entry
        ok, lines = verify_run(br.out_dir)
        assert ok, lines
        avg = float(agg["iterations_avg"])
        assert ref / 5.0 <= avg <= ref * 5.0, (name, avg)
        stats[name] = avg
    elapsed = kat_el + ran_el + (time.perf_counter() - started)
    assert elapsed < 600.0, f"{elapsed:.1f}s"
    print(f"CRITERION 4: PASS - 4+8 paths certified, residuals <= 1e-8, all "
          f"certificates verify, avg iterations katsura {stats['katsura3']:.2f} "
          f"and random {stats['random_2^3']:.2f} within factor 5 of "
          f"(264.25, 317.75), {elapsed:.1f}s < 600s")


# ---------------------------------------------------------------------------
# criterion 5: step/radius scale invariance at fixed ratio R
# ---------------------------------------------------------------------------

def test_criterion_5_ratio_study(ratio_runs):
    runs, fixture_elapsed = ratio_runs
    started = time.perf_counter()
    avgs = []
    for dt0, r0, br in runs:
        agg = br.report["aggregate"]
        assert agg["n_certified"] == 8, (dt0, r0)
        avgs.append(float(agg["iterations_avg"]))
    gaps = []
    for pair in range(3):
        a, b = avgs[2 * pair], avgs[2 * pair + 1]
        gap = abs(a - b) / min(a, b)
        r = RATIO_GRID[2 * pair][0] / RATIO_GRID[2 * pair][1]
        assert gap <= 0.15, (r, a, b, gap)
        gaps.append((r, gap))
    elapsed = fixture_elapsed + (time.perf_counter() - started)
    assert elapsed < 900.0, f"{elapsed:.1f}s"
    print("CRITERION 5: PASS - 10x scale pairs agree: "
          + ", ".join(f"R={r:g} gap {g * 100:.1f}%" for r, g in gaps)
          + f" (all <= 15%), {elapsed:.1f}s < 900s")


# ---------------------------------------------------------------------------
# criterion 6: rank-one approximation of the Hilbert matrix
# ---------------------------------------------------------------------------

def test_criterion_6_lowrank(lowrank_runs):
    runs, fixture_elapsed = lowrank_runs
    started = time.perf_counter()
    iters = {}
    tail_med = {}
    for n, br in runs.items():
        res = br.results[0][1]
        assert res is not None, br.results[0][2]
        x, yv = res.final_point[:n], res.final_point[n:]
        u, s, vt = svd_oracle(hilbert_matrix(n))
        target = s[0] * np.outer(u[:, 0], vt[0, :])
        assert float(np.abs(np.outer(x, yv) - target).max()) <= 1e-8, n
        iters[n] = res.iterations

        with open(f"{br.out_dir}/steps.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        dts = [float(r["dt"]) for r in rows
               if r["accepted"] == "1" and float(r["t0"]) >= 0.8]
        assert dts, n
        tail_med[n] = statistics.median(dts)

    ns = sorted(iters)
    for a, b in zip(ns, ns[1:]):
        assert iters[a] < iters[b], iters           # strict growth with n
        assert tail_med[b] <= tail_med[a] * (1 + 1e-9), tail_med
    assert tail_med[5] < tail_med[2]
    for n in ns:
        assert tail_med[n] <= 0.2 / 10.0            # well below dt0 near t=1

    elapsed = fixture_elapsed + (time.perf_counter() - started)
    assert elapsed < 600.0, f"{elapsed:.1f}s"
    print(f"CRITERION 6: PASS - endpoints match sigma1*u1*v1^T of Hilbert to "
          f"1e-8, iterations {[iters[n] for n in ns]} strictly increasing, "
          f"late-path step medians {[format(tail_med[n], '.1e') for n in ns]} "
          f"shrink with n, {elapsed:.1f}s < 600s")


# ---------------------------------------------------------------------------
# criterion 7: certificate integrity across every run, plus tamper rejection
# ---------------------------------------------------------------------------

def _rescale_box(box, factor):
    mid = box.data[:, [0, 2]] * 0.5 + box.data[:, [1, 3]] * 0.5
    half = (box.data[:, [1, 3]] - box.data[:, [0, 2]]) * (0.5 * factor)
    data = np.empty_like(box.data)
    data[:, [0, 2]] = mid - half
    data[:, [1, 3]] = mid + half
    return Box(data)


def test_criterion_7_certificate_integrity(newton_runs, katsura_run,
                                           random_run, ratio_runs,
                                           lowrank_runs):
    started = time.perf_counter()
    dirs = ([br.out_dir for br in newton_runs[0].values()]
            + [katsura_run[0].out_dir, random_run[0].out_dir]
            + [br.out_dir for _, _, br in ratio_runs[0]]
            + [br.out_dir for br in lowrank_runs[0].values()])
    n_certs = 0
    for d in dirs:
        ok, lines = verify_run(d)
        assert ok, (d, lines)
        n_certs += len(lines)

    cert = load_certificate(f"{katsura_run[0].out_dir}/cert_000.json")
    i = len(cert.segments) // 2
    tampers = {
        "shrunk box": dataclasses.replace(
            cert.segments[i], box=_rescale_box(cert.segments[i].box, 1e-6)),
        "widened time interval": dataclasses.replace(
            cert.segments[i], t_hi=cert.segments[i].t_hi + 0.5),
        "corrupted Y": dataclasses.replace(
            cert.segments[i], y=cert.segments[i].y * 2.0),
    }
    for label, seg in tampers.items():
        mutated = dataclasses.replace(
            cert, segments=cert.segments[:i] + [seg] + cert.segments[i + 1:])
        rep = verify(mutated)
        assert not rep.ok, label
        assert rep.failures, label

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"{elapsed:.1f}s"
    print(f"CRITERION 7: PASS - {n_certs} certificates across {len(dirs)} "
          f"runs re-verified, 3 tamperings rejected, {elapsed:.1f}s < 120s")


# ---------------------------------------------------------------------------
# criterion 8: byte-level determinism of reruns
# ---------------------------------------------------------------------------

def test_criterion_8_determinism(katsura_run, random_run, acceptance_dir):
    started = time.perf_counter()
    n_files = 0
    for name, spec, br in (
            ("katsura3", BenchmarkSpec("katsura", n=3), katsura_run[0]),
            ("random_k3", BenchmarkSpec("random", k=3), random_run[0])):
        redo = acceptance_dir / f"{name}_rerun"
        run_benchmark(spec, out_dir=redo)
        first = sorted(p.name for p in (acceptance_dir / name).iterdir())
        second = sorted(p.name for p in redo.iterdir())
        assert first == second
        for fname in first:
            a = (acceptance_dir / name / fname).read_bytes()
            b = (redo / fname).read_bytes()
            assert a == b, f"{name}/{fname} differs between reruns"
            n_files += 1
    elapsed = time.perf_counter() - started
    print(f"CRITERION 8: PASS - reruns byte-identical across {n_files} files "
          f"(reports, certificates, step logs), {elapsed:.1f}s")
