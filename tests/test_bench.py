"""Benchmark families, their start roots, and the batch harness."""

import json
import math
import multiprocessing
import shutil

import numpy as np
import pytest

from pathcert import _pool
from pathcert.bench import (
    FAMILY_SEEDS,
    BenchmarkSpec,
    build_family,
    gen_katsura,
    gen_lowrank,
    gen_newton_homotopy,
    gen_random_quadratic,
    hilbert_matrix,
    newton_path_point,
    run_benchmark,
    svd_oracle,
    verify_run,
)
from pathcert.certificate import MODE_TILTED
from pathcert.errors import (
    DegenerateStart,
    InvalidM,
    ParseError,
    SingularMatrix,
    UnsupportedN,
)
from pathcert.tracker import TrackerConfig


class TestNewtonFamily:
    def test_start_is_exact_root(self):
        for m in (0.0, 10.0, 2000.0):
            h, starts = gen_newton_homotopy(m)
            assert starts.shape == (1, 1)
            assert abs(h.eval_point(starts[0], 0.0)[0]) <= 4e-13 * (1 + m)

    def test_closed_form_path(self):
        assert newton_path_point(10.0, 0.0) == pytest.approx(math.sqrt(11))
        assert newton_path_point(10.0, 1.0) == pytest.approx(1.0)
        m, t = 40.0, 0.3
        h, _ = gen_newton_homotopy(m)
        x = np.array([newton_path_point(m, t)])
        assert abs(h.eval_point(x, t)[0]) <= 1e-10 * (1 + m)

    def test_m_zero_is_constant_path(self):
        h, starts = gen_newton_homotopy(0.0)
        for t in (0.0, 0.5, 1.0):
            assert abs(h.eval_point(starts[0], t)[0]) <= 1e-14

    def test_invalid_m(self):
        with pytest.raises(InvalidM):
            gen_newton_homotopy(-1.0)
        with pytest.raises(InvalidM):
            gen_newton_homotopy(math.inf)


class TestRandomFamily:
    def test_starts_are_exact_sign_vectors(self):
        h, starts = gen_random_quadratic(3)
        assert starts.shape == (8, 3)
        assert len({tuple(s) for s in map(tuple, starts)}) == 8
        for s in starts:
            assert set(s) <= {1.0 + 0.0j, -1.0 + 0.0j}
            r = h.eval_point(s, 0.0)
            assert float(np.abs(r).max()) == 0.0   # start residual is exact

    def test_k1_has_two_paths(self):
        _, starts = gen_random_quadratic(1)
        assert starts.shape == (2, 1)

    def test_seed_changes_target_not_start(self):
        h1, s1 = gen_random_quadratic(2, seed=1)
        h2, s2 = gen_random_quadratic(2, seed=2)
        assert np.array_equal(s1, s2)
        assert not np.array_equal(h1.p1, h2.p1)
        assert np.array_equal(h1.p0, h2.p0)

    def test_size_limits(self):
        with pytest.raises(UnsupportedN):
            gen_random_quadratic(0)
        with pytest.raises(UnsupportedN):
            gen_random_quadratic(11)


def katsura3_direct(u):
    """Independent statement of the Katsura-3 equations."""
    u0, u1, u2 = u
    return np.array([
        u0 * u0 + 2 * u1 * u1 + 2 * u2 * u2 - u0,
        2 * u0 * u1 + 2 * u1 * u2 - u1,
        u0 + 2 * u1 + 2 * u2 - 1.0,
    ])


class TestKatsuraFamily:
    def test_target_matches_direct_equations(self):
        h, _ = gen_katsura(3)
        rng = np.random.default_rng(5)
        for _ in range(50):
            u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            got = h.eval_point(u, 1.0)
            want = katsura3_direct(u)
            scale = float(np.abs(u).max()) ** 2 + 1.0
            assert float(np.abs(got - want).max()) <= 1e-12 * scale

    @pytest.mark.parametrize("n", range(2, 9))
    def test_start_roots(self, n):
        h, starts = gen_katsura(n)
        assert starts.shape == (2 ** (n - 1), n)
        for s in starts:
            assert float(np.abs(h.eval_point(s, 0.0)).max()) <= 1e-10
        for i in range(len(starts)):
            for j in range(i + 1, len(starts)):
                assert float(np.abs(starts[i] - starts[j]).max()) > 1e-6

    def test_singular_start_factors(self, monkeypatch):
        import pathcert.bench as bench_mod

        def singular(a, b):
            raise SingularMatrix("injected")
        monkeypatch.setattr(bench_mod, "solve_point", singular)
        with pytest.raises(DegenerateStart, match=r"start factors \(0, 0\)"):
            gen_katsura(3)

    def test_deterministic(self):
        _, a = gen_katsura(3)
        _, b = gen_katsura(3)
        assert np.array_equal(a, b)

    def test_size_limits(self):
        with pytest.raises(UnsupportedN):
            gen_katsura(1)
        with pytest.raises(UnsupportedN):
            gen_katsura(9)


class TestSvdOracle:
    def test_identity_and_diagonal(self):
        u, s, vt = svd_oracle(np.eye(3))
        assert np.allclose(s, 1.0, atol=1e-14)
        _, s2, _ = svd_oracle(np.diag([3.0, 1.0]))
        assert np.allclose(s2, [3.0, 1.0], atol=1e-14)

    def test_matches_library_and_reconstructs(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 5):
            a = rng.standard_normal((n, n))
            u, s, vt = svd_oracle(a)
            assert np.allclose(s, np.linalg.svd(a, compute_uv=False),
                               atol=1e-12)
            assert np.allclose((u * s) @ vt, a, atol=1e-10)
            assert np.allclose(u.T @ u, np.eye(n), atol=1e-10)
            assert np.allclose(vt @ vt.T, np.eye(n), atol=1e-10)

    def test_hilbert(self):
        hm = hilbert_matrix(3)
        assert np.allclose(hm, [[1, 1 / 2, 1 / 3],
                                [1 / 2, 1 / 3, 1 / 4],
                                [1 / 3, 1 / 4, 1 / 5]], atol=0)
        u, s, vt = svd_oracle(hm)
        assert np.allclose(s, np.linalg.svd(hm, compute_uv=False), atol=1e-13)

    def test_rejects_nonsquare(self):
        with pytest.raises(UnsupportedN):
            svd_oracle(np.ones((2, 3)))


class TestLowrankFamily:
    def test_start_solves_critical_system(self):
        for n in (2, 3, 4):
            h, starts = gen_lowrank(n)
            assert starts.shape == (1, 2 * n)
            assert float(np.abs(h.eval_point(starts[0], 0.0)).max()) <= 1e-10

    def test_deterministic(self):
        h1, s1 = gen_lowrank(3)
        h2, s2 = gen_lowrank(3)
        assert np.array_equal(s1, s2)
        assert np.array_equal(h1.p0, h2.p0)
        assert np.array_equal(h1.p1, h2.p1)

    def test_target_is_hilbert(self):
        n = 3
        h, _ = gen_lowrank(n)
        assert np.allclose(h.p1.reshape(n, n).real, hilbert_matrix(n), atol=0)
        assert np.allclose(h.p1.imag, 0.0, atol=0)

    def test_size_limits(self):
        with pytest.raises(UnsupportedN):
            gen_lowrank(1)
        with pytest.raises(UnsupportedN):
            gen_lowrank(13)


class TestSpec:
    def test_effective_seed(self):
        assert BenchmarkSpec("katsura").effective_seed() == 1
        assert BenchmarkSpec("newton", seed=7).effective_seed() == 7
        with pytest.raises(ValueError):
            BenchmarkSpec("nope").effective_seed()

    def test_family_seeds(self):
        assert FAMILY_SEEDS == {"newton": 42, "random": 42,
                                "katsura": 1, "lowrank": 62}

    def test_label_and_params(self):
        assert BenchmarkSpec("newton", m=40.0).label() == "newton(m=40.0)"
        assert BenchmarkSpec("random", k=2).family_params() == {"k": 2}
        with pytest.raises(ValueError):
            BenchmarkSpec("nope").family_params()

    def test_build_family_dispatch(self):
        h, starts = build_family(BenchmarkSpec("random", k=1))
        assert h.n == 1 and len(starts) == 2
        with pytest.raises(ValueError):
            build_family(BenchmarkSpec("nope"))


class TestHarness:
    def test_report_structure_and_files(self, tmp_path):
        spec = BenchmarkSpec("newton", m=10.0)
        out = tmp_path / "run"
        br = run_benchmark(spec, out_dir=out)
        rep = br.report
        assert rep["format"] == "pathcert-benchmark-report"
        assert rep["family"] == "newton"
        assert rep["mode"] == MODE_TILTED
        assert rep["params"] == {"m": "10.0"}
        assert rep["config"]["lambda"] == "1.25"
        assert len(rep["paths"]) == 1
        p = rep["paths"][0]
        assert p["certified"]
        assert p["iterations"] == p["accepted"]
        assert p["tests"] == p["accepted"] + p["rejected"]
        assert p["cert_file"] == "cert_000.json"
        agg = rep["aggregate"]
        assert agg["n_paths"] == agg["n_certified"] == 1
        assert agg["iterations_min"] == agg["iterations_max"] == p["iterations"]
        assert br.wall_time > 0
        for name in ("report.json", "steps.csv", "cert_000.json"):
            assert (out / name).exists()
        on_disk = json.loads((out / "report.json").read_text())
        assert on_disk == rep

    def test_steps_csv_consistent(self, tmp_path):
        out = tmp_path / "run"
        br = run_benchmark(BenchmarkSpec("newton", m=10.0), out_dir=out)
        lines = (out / "steps.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == ["path_id", "step_index", "t0", "dt", "r",
                          "accepted", "residual_norm"]
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == br.report["paths"][0]["tests"]
        accepted = sum(int(r[5]) for r in rows)
        assert accepted == br.report["paths"][0]["accepted"]

    def test_verify_run(self, tmp_path):
        out = tmp_path / "run"
        run_benchmark(BenchmarkSpec("random", k=1), out_dir=out)
        ok, lines = verify_run(out)
        assert ok
        assert len(lines) == 2
        assert all("OK" in ln for ln in lines)

    def test_verify_run_missing_report(self, tmp_path):
        with pytest.raises(ParseError):
            verify_run(tmp_path)

    def test_rerun_byte_identical(self, tmp_path):
        spec = BenchmarkSpec("random", k=1)
        a, b = tmp_path / "a", tmp_path / "b"
        run_benchmark(spec, out_dir=a)
        run_benchmark(spec, out_dir=b)
        for name in ("report.json", "steps.csv", "cert_000.json",
                     "cert_001.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_worker_pool_matches_sequential(self, tmp_path, monkeypatch):
        spec = BenchmarkSpec("random", k=1)
        seq, par = tmp_path / "seq", tmp_path / "par"
        monkeypatch.setattr(_pool, "_usable_cores", lambda: 1)
        run_benchmark(spec, out_dir=seq)
        monkeypatch.setattr(_pool, "_usable_cores", lambda: 2)
        run_benchmark(spec, out_dir=par)
        names = sorted(p.name for p in seq.iterdir())
        assert names == ["cert_000.json", "cert_001.json", "report.json",
                         "steps.csv"]
        assert sorted(p.name for p in par.iterdir()) == names
        for name in names:
            assert (seq / name).read_bytes() == (par / name).read_bytes()


    def test_helper_matches_one_core(self, tmp_path, monkeypatch):
        # one path with three unknowns tracks in this process on two
        # usable cores, with no helper process, and gives one core's bytes
        spec = BenchmarkSpec("lowrank", "tilted",
                             TrackerConfig(dt0=0.2, r0=0.1), n=3)
        off, on = tmp_path / "off", tmp_path / "on"
        started = []
        real_start = multiprocessing.process.BaseProcess.start

        def start(self):
            started.append(self)
            real_start(self)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            start)
        monkeypatch.setattr(_pool, "_usable_cores", lambda: 1)
        run_benchmark(spec, out_dir=off)
        monkeypatch.setattr(_pool, "_usable_cores", lambda: 2)
        run_benchmark(spec, out_dir=on)
        assert not started
        names = sorted(p.name for p in off.iterdir())
        assert names == ["cert_000.json", "report.json", "steps.csv"]
        for name in names:
            assert (off / name).read_bytes() == (on / name).read_bytes()

class TestPathFailureIsolation:
    """An exception of any type fails only the path that raised it, in
    the sequential loop and in the process pool alike."""

    @pytest.mark.parametrize("cores", [1, 2], ids=["sequential", "pool"])
    def test_unexpected_exception_fails_one_path(self, tmp_path, monkeypatch,
                                                 caplog, cores):
        import pathcert.bench as bench_mod
        real_track = bench_mod.track

        def track_or_raise(h, x0, cfg, mode, path_id):
            if path_id == 1:
                raise ZeroDivisionError("injected")
            return real_track(h, x0, cfg, mode=mode, path_id=path_id)

        monkeypatch.setattr(bench_mod, "track", track_or_raise)
        monkeypatch.setattr(_pool, "_usable_cores", lambda: cores)
        out = tmp_path / "run"
        rep = run_benchmark(BenchmarkSpec("random", k=1), out_dir=out).report
        ok, bad = rep["paths"]
        assert ok["certified"] and (out / ok["cert_file"]).exists()
        assert not bad["certified"]
        assert bad["error"] == "ZeroDivisionError: injected"
        assert rep["aggregate"]["n_certified"] == 1
        if cores == 1:        # a pool worker logs in its own process
            assert "path 1 raised an unexpected error" in caplog.text
            assert "ZeroDivisionError: injected" in caplog.text


@pytest.fixture(scope="module")
def random1_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify") / "run"
    run_benchmark(BenchmarkSpec("random", k=1), out_dir=out)
    return out


def edited_run(src, dst, edit):
    """A copy of run directory src at dst, its report's path entries
    passed through edit(paths)."""
    shutil.copytree(src, dst)
    report = json.loads((dst / "report.json").read_text())
    edit(report["paths"])
    (dst / "report.json").write_text(json.dumps(report))
    return dst


class TestVerifyRunBindsEntries:
    """Report entry i verifies only as path i, with path i's certificate,
    named as a file in the run directory, and with that certificate's
    final point."""

    def check_path_1_rejected(self, run, reason):
        ok, lines = verify_run(run)
        assert not ok
        assert lines[0].startswith("path 0: OK")
        assert lines[1] == f"path 1: MalformedCertificate: {reason}"

    def test_other_paths_certificate(self, random1_run, tmp_path):
        def edit(paths):
            paths[1]["cert_file"] = "cert_000.json"
        self.check_path_1_rejected(
            edited_run(random1_run, tmp_path / "run", edit),
            "cert_000.json certifies path 0, not path 1")

    @pytest.mark.parametrize("where", ["absolute", "parent"])
    def test_certificate_outside_the_run(self, random1_run, tmp_path, where):
        (tmp_path / "elsewhere").mkdir()
        outside = tmp_path / "elsewhere" / "cert_001.json"
        shutil.copy(random1_run / "cert_001.json", outside)
        name = (str(outside) if where == "absolute"
                else "../elsewhere/cert_001.json")

        def edit(paths):
            paths[1]["cert_file"] = name
        self.check_path_1_rejected(
            edited_run(random1_run, tmp_path / "run", edit),
            f"cert_file {name!r} is not a file name in the run directory")

    def test_final_point_of_another_path(self, random1_run, tmp_path):
        def edit(paths):
            paths[1]["final_point"] = paths[0]["final_point"]
        self.check_path_1_rejected(
            edited_run(random1_run, tmp_path / "run", edit),
            "the report's final_point is not the one cert_001.json "
            "certifies")

    def test_entry_for_another_path(self, random1_run, tmp_path):
        def edit(paths):
            paths[1] = dict(paths[0])
        ok, lines = verify_run(edited_run(random1_run, tmp_path / "run", edit))
        assert not ok
        assert lines[1] == ("path 0: MalformedCertificate: report entry 1 "
                            "is for path 0")

    @pytest.mark.parametrize("pid", [False, 0.0, "0"],
                             ids=["bool", "float", "string"])
    def test_path_id_must_be_an_integer(self, random1_run, tmp_path, pid):
        def edit(paths):
            paths[0]["path_id"] = pid
        ok, lines = verify_run(edited_run(random1_run, tmp_path / "run", edit))
        assert not ok
        assert lines[0] == (f"path {pid}: MalformedCertificate: report "
                            f"entry 0 is for path {pid!r}")
        assert lines[1].startswith("path 1: OK")

    def test_pool_matches_sequential(self, random1_run, tmp_path,
                                     monkeypatch):
        def edit(paths):
            paths.append({"path_id": 2, "certified": False,
                          "error": "StepUnderflow: injected"})
            paths.append(dict(paths[0], path_id=3,
                              cert_file="../run/cert_000.json"))
        run = edited_run(random1_run, tmp_path / "run", edit)
        cert = json.loads((run / "cert_001.json").read_text())
        seg = cert["segments"][len(cert["segments"]) // 2]
        seg["y"] = [[[repr(2.0 * float(v)) for v in z] for z in row]
                    for row in seg["y"]]
        (run / "cert_001.json").write_text(json.dumps(cert))
        results = []
        for cores in (1, 2):
            monkeypatch.setattr(_pool, "_usable_cores", lambda c=cores: c)
            results.append(verify_run(run))
        assert results[0] == results[1]
        ok, lines = results[0]
        assert not ok and len(lines) == 4
        assert lines[0].startswith("path 0: OK")
        assert lines[1].startswith("path 1: FAIL")
        assert lines[2] == "path 2: not certified (StepUnderflow: injected)"
        assert lines[3].startswith("path 3: MalformedCertificate: cert_file")
