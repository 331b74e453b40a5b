"""Certificates: serialization round-trips, verification, tamper detection."""

import dataclasses
import json
import multiprocessing
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import tutil
from pathcert import _pool
from pathcert._batch import shear_regions
from pathcert.bench import (
    gen_lowrank,
    gen_newton_homotopy,
    gen_random_quadratic,
)
from pathcert.certificate import (
    MODE_RECT,
    MODE_TILTED,
    PathCertificate,
    _Claims,
    deserialize,
    load_certificate,
    replay,
    save_certificate,
    serialize,
    verify,
    verify_file,
)
from pathcert.errors import (
    MalformedCertificate,
    NonFiniteEndpoint,
    ParseError,
    PathcertError,
)
from pathcert.intervals import Box
from pathcert.systems import Term
from pathcert.tracker import TrackerConfig, track

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


@pytest.fixture(scope="module")
def newton_certs():
    h, starts = gen_newton_homotopy(10.0)
    cfg = TrackerConfig(dt0=0.02, r0=0.1)
    tilted = track(h, starts[0], cfg, mode=MODE_TILTED).certificate
    rect = track(h, starts[0], cfg, mode=MODE_RECT).certificate
    # the homotopy is even in x, so the negated start tracks the mirror path
    minus = track(h, -starts[0], cfg, mode=MODE_TILTED,
                  path_id=1).certificate
    return h, tilted, rect, minus


def shrink_box(box, factor):
    mid = box.data[:, [0, 2]] * 0.5 + box.data[:, [1, 3]] * 0.5
    half = (box.data[:, [1, 3]] - box.data[:, [0, 2]]) * (0.5 * factor)
    data = np.empty_like(box.data)
    data[:, [0, 2]] = mid - half
    data[:, [1, 3]] = mid + half
    return Box(data)


class TestSerialization:
    def test_round_trip_tilted(self, newton_certs):
        _, tilted, _, _ = newton_certs
        text = serialize(tilted)
        assert isinstance(text, str) and text.endswith("\n")
        back = deserialize(text)
        assert back.mode == tilted.mode
        assert back.path_id == tilted.path_id
        assert back.final_residual == tilted.final_residual
        assert np.array_equal(back.final_point, tilted.final_point)
        assert len(back.segments) == len(tilted.segments)
        for a, b in zip(tilted.segments, back.segments):
            assert a.t_lo == b.t_lo and a.t_hi == b.t_hi
            assert np.array_equal(a.box.data, b.box.data)
            assert np.array_equal(a.y, b.y)
            assert a.residual_norm == b.residual_norm
            assert np.array_equal(a.shear_x0, b.shear_x0)
            assert np.array_equal(a.shear_x1, b.shear_x1)
        assert serialize(back) == text

    def test_round_trip_rect(self, newton_certs):
        _, _, rect, _ = newton_certs
        back = deserialize(serialize(rect))
        assert back.mode == MODE_RECT
        for a, b in zip(rect.segments, back.segments):
            assert np.array_equal(a.center, b.center)
            assert np.array_equal(a.box.data, b.box.data)
        assert serialize(back) == serialize(rect)

    def test_round_trip_preserves_verification(self, newton_certs):
        _, tilted, _, _ = newton_certs
        assert verify(deserialize(serialize(tilted))).ok

    def test_truncated_raises_parse_error(self, newton_certs):
        _, tilted, _, _ = newton_certs
        text = serialize(tilted)
        with pytest.raises(ParseError):
            deserialize(text[: len(text) // 2])

    def test_wrong_schema_rejected(self):
        with pytest.raises(MalformedCertificate):
            deserialize('{"a": 1}')

    def test_file_round_trip(self, newton_certs, tmp_path):
        _, tilted, _, _ = newton_certs
        path = tmp_path / "cert.json"
        save_certificate(tilted, path)
        assert serialize(load_certificate(path)) == serialize(tilted)
        assert verify_file(path).ok

    def test_text_is_compact_json(self, newton_certs):
        """serialize writes compact JSON: exactly what
        json.dumps(obj, separators=(",", ":")) writes for the same object."""
        _, tilted, rect, minus = newton_certs
        texts = [p.read_text(encoding="utf-8")
                 for p in sorted(GOLDEN.glob("*.json"))]
        assert len(texts) == 6
        texts += [serialize(c) for c in (
            tilted, rect, minus, dataclasses.replace(rect, segments=[]))]
        for text in texts:
            compact = json.dumps(json.loads(text), separators=(",", ":"))
            assert compact + "\n" == text

    @pytest.mark.parametrize("indent", [1, 4])
    def test_any_layout_reads_the_same(self, newton_certs, indent):
        """Certificates written before the compact layout are indent=1
        JSON; every layout must give the same certificate and report."""
        _, tilted, rect, minus = newton_certs
        for cert in (tilted, rect, minus):
            text = serialize(cert)
            again = deserialize(
                json.dumps(json.loads(text), indent=indent) + "\n")
            assert serialize(again) == text
            assert verify(again) == verify(cert)

    @pytest.mark.parametrize("path_id", [True, 1.9, "1"],
                             ids=["bool", "float", "string"])
    def test_path_id_must_be_an_integer(self, newton_certs, path_id):
        _, _, _, minus = newton_certs
        obj = json.loads(serialize(minus))
        assert obj["path_id"] == 1
        obj["path_id"] = path_id
        with pytest.raises(MalformedCertificate, match="path_id"):
            deserialize(json.dumps(obj))


class TestVerify:
    def test_passes_both_modes(self, newton_certs):
        _, tilted, rect, _ = newton_certs
        for cert in (tilted, rect):
            rep = verify(cert)
            assert rep.ok, rep.summary()
            assert rep.n_segments == len(cert.segments)
            assert all(rep.segment_ok)
            assert rep.summary().startswith("OK")

    def test_empty_segments_malformed(self, newton_certs):
        _, tilted, _, _ = newton_certs
        empty = dataclasses.replace(tilted, segments=[])
        with pytest.raises(MalformedCertificate):
            verify(empty)

    def test_dimension_mismatch_detected(self, newton_certs):
        # segments from a 1-variable track, homotopy claiming 2 variables
        _, tilted, _, _ = newton_certs
        eqs = [[tutil.Term(1.0, None, (1, 0))], [tutil.Term(1.0, None, (0, 1))]]
        h2 = tutil.static_homotopy(eqs, n=2)
        bad = dataclasses.replace(tilted, homotopy=h2)
        with pytest.raises(MalformedCertificate, match="dimension mismatch"):
            verify(bad)

    def test_wrong_final_point_shape(self, newton_certs):
        _, tilted, _, _ = newton_certs
        bad = dataclasses.replace(tilted,
                                  final_point=np.zeros(3, dtype=complex))
        with pytest.raises(MalformedCertificate, match="final point"):
            verify(bad)

    def test_bad_time_bracket(self, newton_certs):
        _, tilted, _, _ = newton_certs
        seg = dataclasses.replace(tilted.segments[0], t_hi=0.0)
        bad = dataclasses.replace(tilted,
                                  segments=[seg] + tilted.segments[1:])
        with pytest.raises(MalformedCertificate, match="time bracket"):
            verify(bad)

    def test_missing_shear_malformed(self, newton_certs):
        _, tilted, _, _ = newton_certs
        seg = dataclasses.replace(tilted.segments[0], shear_x0=None)
        bad = dataclasses.replace(tilted,
                                  segments=[seg] + tilted.segments[1:])
        with pytest.raises(MalformedCertificate, match="missing shear"):
            verify(bad)


class TestTamper:
    def test_shrunk_box_fails_existence(self, newton_certs):
        _, tilted, _, _ = newton_certs
        i = len(tilted.segments) // 2
        segs = list(tilted.segments)
        segs[i] = dataclasses.replace(segs[i], box=shrink_box(segs[i].box, 1e-6))
        rep = verify(dataclasses.replace(tilted, segments=segs))
        assert not rep.ok
        assert not rep.segment_ok[i]
        assert any("existence" in f and f"segments[{i}]" in f
                   for f in rep.failures)
        # untouched segments still replay clean
        assert all(ok for j, ok in enumerate(rep.segment_ok) if j != i)

    def test_widened_time_interval_fails(self, newton_certs):
        _, tilted, _, _ = newton_certs
        i = len(tilted.segments) // 2
        segs = list(tilted.segments)
        segs[i] = dataclasses.replace(segs[i], t_hi=segs[i].t_hi + 0.5)
        rep = verify(dataclasses.replace(tilted, segments=segs))
        assert not rep.ok
        # the stretched bracket must trip the replay or break the chain
        assert any(f"segments[{i}]" in f for f in rep.failures)

    def test_corrupted_y_fails_uniqueness(self, newton_certs):
        _, tilted, _, _ = newton_certs
        i = len(tilted.segments) // 2
        segs = list(tilted.segments)
        segs[i] = dataclasses.replace(segs[i], y=segs[i].y * 2.0)
        rep = verify(dataclasses.replace(tilted, segments=segs))
        assert not rep.ok
        assert not rep.segment_ok[i]
        assert any("uniqueness" in f and f"segments[{i}]" in f
                   for f in rep.failures)

    def test_chain_gap_reported(self, newton_certs):
        _, tilted, _, _ = newton_certs
        rep = verify(dataclasses.replace(tilted, segments=tilted.segments[1:]))
        assert not rep.ok
        assert any("chain starts" in f for f in rep.failures)
        rep = verify(dataclasses.replace(tilted, segments=tilted.segments[:-1]))
        assert not rep.ok
        assert any("chain ends" in f for f in rep.failures)

    def test_spliced_paths_fail_handoff(self, newton_certs):
        # two valid certificates for the two square-root branches share the
        # same step schedule by symmetry; splicing them tiles [0, 1] and every
        # segment replays, but the certified regions jump between branches
        _, plus, _, minus = newton_certs
        assert len(plus.segments) == len(minus.segments)
        j = len(plus.segments) // 2
        assert plus.segments[j].t_lo == minus.segments[j].t_lo
        spliced = dataclasses.replace(
            minus, segments=plus.segments[:j] + minus.segments[j:])
        rep = verify(spliced)
        assert not rep.ok
        assert any("hand-off" in f and "disjoint" in f for f in rep.failures)
        assert all(rep.segment_ok)

    def test_regions_sharing_an_edge_hand_off(self, newton_certs):
        # the hand-off check is closed: rect regions j and j+1 that share
        # only the edge Re = hi of region j overlap; one ulp apart, not.
        # Segment j+1 is the last, so no other hand-off sees its box.
        _, _, rect, _ = newton_certs
        j = len(rect.segments) - 2
        box = rect.segments[j].box.data
        lo, hi = box[:, 0], box[:, 1]
        for start, disjoint in ((hi, False), (np.nextafter(hi, np.inf), True)):
            data = box.copy()
            data[:, 0], data[:, 1] = start, start + (hi - lo)
            rep = verify(with_segment(rect, j + 1, box=Box(data)))
            handoffs = [f for f in rep.failures if "hand-off" in f]
            assert handoffs == ([
                f"segments[{j}]/[{j + 1}]: hand-off regions disjoint "
                f"at t={rect.segments[j].t_hi!r}"] if disjoint else [])

    def test_corrupted_final_point_fails_residual(self, newton_certs):
        _, tilted, _, _ = newton_certs
        bad = dataclasses.replace(
            tilted, final_point=tilted.final_point + 0.01)
        rep = verify(bad)
        assert not rep.ok
        assert any("final residual" in f for f in rep.failures)

    @pytest.mark.parametrize("mode, cfg", [
        (MODE_TILTED, TrackerConfig()),
        (MODE_RECT, TrackerConfig(dt0=0.02, r0=0.1)),
    ], ids=[MODE_TILTED, MODE_RECT])
    def test_swapped_endpoint_fails(self, mode, cfg):
        # path 1's endpoint solves the t=1 system too, so only binding the
        # endpoint to the region the chain certifies rejects the swap
        h, starts = gen_random_quadratic(1)
        cert0 = track(h, starts[0], cfg, mode=mode).certificate
        cert1 = track(h, starts[1], cfg, mode=mode, path_id=1).certificate
        assert verify(cert0).ok and verify(cert1).ok
        rep = verify(dataclasses.replace(cert0,
                                         final_point=cert1.final_point))
        assert rep.failures == ["final point lies outside the last "
                                "segment's certified region at t=1"]
        assert all(rep.segment_ok)


@pytest.fixture(scope="module")
def replay_certs(newton_certs):
    """Certificates in both modes, with parameters and without (m = 0)."""
    _, tilted, rect, _ = newton_certs
    h, starts = gen_random_quadratic(2)
    random2 = track(h, starts[0], TrackerConfig(),
                    mode=MODE_TILTED).certificate
    # x^2 + y^2 = 5, x*y = 2 has no parameters, so its path is constant
    eqs = [[Term(1.0, None, (2, 0)), Term(1.0, None, (0, 2)),
            Term(-5.0, None, (0, 0))],
           [Term(1.0, None, (1, 1)), Term(-2.0, None, (0, 0))]]
    static = tutil.static_homotopy(eqs, n=2, m=0)
    x = np.array([1.0, 2.0], dtype=complex)
    cfg = TrackerConfig(dt0=0.25, r0=0.1)
    return {
        "newton tilted": tilted,
        "newton rect": rect,
        "random k=2 tilted": random2,
        "static tilted": track(static, x, cfg, mode=MODE_TILTED).certificate,
        "static rect": track(static, x, cfg, mode=MODE_RECT).certificate,
    }


def verdict_bits(verdicts):
    """Each replay entry as exact bits: an error's type and text, or a
    verdict's flags, norm and image."""
    return [(type(v).__name__, str(v)) if isinstance(v, PathcertError)
            else (v.existence, v.uniqueness,
                  np.float64(v.residual_norm).tobytes(),
                  v.operator_image.data.tobytes())
            for v in verdicts]


def with_segment(cert, i, **changes):
    segs = list(cert.segments)
    segs[i] = dataclasses.replace(segs[i], **changes)
    return dataclasses.replace(cert, segments=segs)


class TestBatchedReplay:
    def test_bit_identical_to_per_segment_test(self, replay_certs):
        kinds = {(c.mode, c.homotopy.m > 0) for c in replay_certs.values()}
        assert kinds == {(MODE_TILTED, True), (MODE_RECT, True),
                         (MODE_TILTED, False), (MODE_RECT, False)}
        for label, cert in replay_certs.items():
            batch = replay(cert)
            assert len(batch) == len(cert.segments) > 1, label
            for i, got in enumerate(batch):
                want = tutil.scalar_replay(cert, i)
                where = f"{label} segments[{i}]"
                assert np.array_equal(got.operator_image.data,
                                      want.operator_image.data), where
                assert got.residual_norm == want.residual_norm, where
                assert (got.existence, got.uniqueness) == \
                    (want.existence, want.uniqueness), where

    def test_tampered_segments_replay_identically(self, newton_certs):
        # failing verdicts match too, not only passing ones
        _, tilted, _, _ = newton_certs
        i = len(tilted.segments) // 2
        s = tilted.segments[i]
        for changes in ({"y": s.y * 2.0}, {"box": shrink_box(s.box, 1e-6)},
                        {"t_hi": s.t_hi + 0.5}):
            cert = with_segment(tilted, i, **changes)
            got, want = replay(cert)[i], tutil.scalar_replay(cert, i)
            assert np.array_equal(got.operator_image.data,
                                  want.operator_image.data)
            assert got.residual_norm == want.residual_norm
            assert not got.passed

    def test_center_outside_box_is_that_segments_replay_error(
            self, newton_certs):
        _, _, rect, _ = newton_certs
        i = len(rect.segments) // 2
        s = rect.segments[i]
        cert = with_segment(rect, i, center=s.center + 1.0)
        batch = replay(cert)
        assert isinstance(batch[i], PathcertError)
        assert str(batch[i]) == str(tutil.scalar_replay(cert, i))
        rep = verify(cert)
        assert rep.segment_ok == [j != i for j in range(len(rect.segments))]
        assert f"segments[{i}]: replay error: expansion point x lies " \
            "outside the box" in rep.failures
        assert sum("replay error" in f for f in rep.failures) == 1
        for j, v in enumerate(batch):
            if j != i:
                assert v.passed
                assert np.array_equal(v.operator_image.data,
                                      tutil.scalar_replay(cert, j).operator_image.data)

    def test_long_certificate_replays_in_this_process(self, monkeypatch):
        # 267 segments in 8 unknowns replay in this process, even where
        # the pool would use two cores
        h, starts = gen_lowrank(4)
        cert = track(h, starts[0], TrackerConfig(dt0=0.2, r0=0.1),
                     mode=MODE_TILTED).certificate
        assert len(cert.segments) > 256
        monkeypatch.setattr(_pool, "_usable_cores", lambda: 2)
        (rep, batch), started = tutil.starts_while(
            lambda: (verify(cert), replay(cert)))
        assert started == 0 and multiprocessing.active_children() == []
        assert rep.ok
        assert verdict_bits(batch) == verdict_bits(
            [tutil.scalar_replay(cert, i) for i in range(len(cert.segments))])

    def test_overflow_is_that_segments_replay_error(self, newton_certs):
        _, tilted, _, _ = newton_certs
        i = len(tilted.segments) // 2
        cert = with_segment(tilted, i, y=tilted.segments[i].y * 1e308)
        with warnings.catch_warnings():
            # the scalar kernels overflow to inf silently, as floats do
            warnings.simplefilter("error", RuntimeWarning)
            batch = replay(cert)
            want = tutil.scalar_replay(cert, i)
        assert isinstance(want, NonFiniteEndpoint)
        assert type(batch[i]) is type(want) and str(batch[i]) == str(want)
        rep = verify(cert)
        assert rep.failures == [f"segments[{i}]: replay error: {want}"]
        assert rep.segment_ok == [j != i for j in range(len(tilted.segments))]


# ---------------------------------------------------------------------------
# the certified region box + s(t), against exact values
# ---------------------------------------------------------------------------

HOSTILE_KINDS = ["product", "sum", "box", "subnormal", "1e300"]


def hostile_part(rng, kind, t):
    """One part (re or im) of box endpoints lo, hi and shear sa, sb, each
    (S, 2), for the segments' times t.  Each kind makes one of the
    region's roundings the one that covers the exact value:
    "product": sa cancels t*sb, so the product's rounding error is all
    that is left; "sum": t*sb lies far below an ulp of sa, and the box
    cancels sa; "box": s(t) lies far below an ulp of the box.  Signs are
    random, so each lands on either end of the region, and a quarter of
    the "sum" slopes and the "box" offsets are 0: only sa = sb = 0 leaves
    the box's endpoints as they are."""
    shape = (t.shape[0], 2)
    u = rng.uniform(0.5, 1.0, (3,) + shape)
    sign = rng.choice([-1.0, 1.0], (3,) + shape)
    scale = 2.0 ** rng.integers(-30, 31, shape)
    tc = t[:, None]
    if kind == "product":
        sb = sign[0] * u[0] * scale
        sa = -(tc * sb)
        lo = hi = np.zeros(shape)
    elif kind == "sum":
        sa = sign[0] * u[0] * scale
        sb = np.where(rng.random(shape) < 0.25, 0.0,
                      sign[1] * u[1] * scale * 2.0 ** -60)
        lo = hi = -sa
    elif kind == "box":
        lo = hi = sign[0] * u[0] * scale
        sa = np.where(rng.random(shape) < 0.25, 0.0,
                      sign[1] * u[1] * scale * 2.0 ** -60)
        sb = sign[2] * u[2] * scale * 2.0 ** -60
    elif kind == "subnormal":
        tiny = 5e-324 * rng.integers(0, 2 ** 20, (4,) + shape)
        sb = sign[0] * (tiny[0] + 5e-324)
        sa = sign[1] * tiny[1]
        lo = sign[2] * tiny[2]
        hi = lo + tiny[3]
    else:   # "1e300": the product case and a wide box near 1e300
        sb = sign[0] * u[0] * 1e300
        sa = np.where(rng.random(shape) < 0.5, -(tc * sb),
                      sign[1] * u[1] * 1e300)
        lo = sign[2] * u[2] * 1e300
        hi = lo + u[0] * 1e300
    return lo, hi, sa, sb


def assert_region_encloses(box, sa, sb, t):
    """box + (sa + t*sb), in exact arithmetic, lies in the region that
    ``shear_regions`` returns, for every segment and entry."""
    got = shear_regions(box, sa, sb, t)
    for s in range(len(t)):
        ft = Fraction(t[s])
        for j in range(box.shape[1]):
            for k, (a, b) in enumerate(((sa[s, j].real, sb[s, j].real),
                                        (sa[s, j].imag, sb[s, j].imag))):
                shift = Fraction(a) + ft * Fraction(b)
                lo = Fraction(box[s, j, 2 * k]) + shift
                hi = Fraction(box[s, j, 2 * k + 1]) + shift
                assert Fraction(got[s, j, 2 * k]) <= lo, (s, j, k)
                assert hi <= Fraction(got[s, j, 2 * k + 1]), (s, j, k)


class TestRegionsExact:
    """``_batch.shear_regions``, the one formula for the region a segment
    certifies at a time t, against box + s(t) in Fraction arithmetic with
    no tolerance."""

    @pytest.mark.parametrize("name", ["katsura3_tilted.json",
                                      "lowrank2_tilted.json",
                                      "newton10_rect.json",
                                      "newton10_tilted.json"])
    def test_tracked_segments(self, name):
        claims = _Claims(deserialize((GOLDEN / name).read_text("utf-8")))
        for t in (claims.t_lo, claims.t_hi, np.ones(len(claims.t_lo))):
            assert_region_encloses(claims.box, claims.sa, claims.sb, t)

    def test_zero_shear_region_is_the_box(self, newton_certs):
        # box + 0 is exact: a rect segment's region is its stored box
        claims = _Claims(newton_certs[2])
        got = claims.regions(slice(None), claims.t_hi)
        assert got.tobytes() == claims.box.tobytes()

    @pytest.mark.parametrize("kind", HOSTILE_KINDS)
    def test_hostile_shears(self, kind):
        rng = np.random.default_rng(HOSTILE_KINDS.index(kind) + 900)
        S = 400
        t = np.where(rng.random(S) < 0.25, 1.0, rng.uniform(0.0, 1.0, S))
        (rl, rh, ar, br), (il, ih, ai, bi) = (hostile_part(rng, kind, t)
                                              for _ in range(2))
        box = np.stack((rl, rh, il, ih), axis=-1)
        assert_region_encloses(box, ar + 1j * ai, br + 1j * bi, t)
