"""Golden certificates: tracking must reproduce the frozen files byte for byte.

The newton files in ``data/golden`` were first written by ``serialize``
before the scalar kernels moved from numpy scalars to Python floats.  The
random and lowrank files (2 and 4 unknowns) were written again when the
step schedule stopped growing after an accepted test without contraction
margin: the old rule's files reproduced byte for byte on the code that
replaced them, so only the choice of attempts moved, not the arithmetic.
All four were written indented until ``serialize`` switched to compact
JSON; they were then re-laid out mechanically, each as
``json.dumps(json.loads(old), separators=(",", ":")) + "\n"``, with every
value unchanged.  The katsura file (3 unknowns, path 0 of the
benchmark's katsura3 run) was written compact, before the tracker's step
loop moved from numpy arrays to Python lists.
These five track at lambda = 3, the step factor they were written with,
so they keep pinning the arithmetic when the default schedule moves: when
the default lambda became 1.25 they reproduced byte for byte at
``lam=3.0``.  ``katsura3_tilted_default.json`` (path 0 of the katsura3
run again) pins the default ``TrackerConfig()`` itself.
All six were written again, by design, when the Jacobian's enclosure
became its time polynomial at the Krawczyk point plus a deviation bound
over the box (``Homotopy.jac_x_interval``); the files they replaced,
written with the interval Jacobian, are kept in
``data/golden/v1_interval_jacobian``.  They were written again when the
operator's tail moved from rectangle products, each operation rounded
outward, to midpoint-radius products with one a priori bound per dot
product (``ilinalg.residual_matrix``): only each segment's stored
``residual_norm`` moved, in its last bits, and no segment count changed.
The files they replaced are kept in ``data/golden/v2_rect_operator``.
``newton10_rect.json`` was written again when rect segments moved into
the tilted segments' frame, a box about a point under a shear, with the
zero shear: its factors gained a zero slope, so only each segment's
``residual_norm`` moved, in its last bits, and its 21 segments stayed.
The file it replaced, tested without a shear, is kept in
``data/golden/v3_unsheared_rect``; the tilted files reproduced byte for
byte.
Every certificate an earlier version wrote must still verify, with the
segment count it was written with.
Any change to the order or rounding of an interval operation on the
tracking path shows up here as a byte difference.  Each file's stored
residual norms are also rebuilt bit for bit by both residual branches:
the verifier's batch over the segment axis (``certificate.replay``) and
the tracker's per-test kernels.  Nothing ``track``
calls reads the number of usable cores, so the pool against one core is
checked where a pool runs, in ``test_bench.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import tutil

from pathcert.bench import (
    gen_katsura,
    gen_lowrank,
    gen_newton_homotopy,
    gen_random_quadratic,
)
from pathcert.certificate import (
    MODE_RECT,
    MODE_TILTED,
    deserialize,
    replay,
    serialize,
    verify,
)
from pathcert.tracker import TrackerConfig, track

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
# the same six cases, written with the interval Jacobian enclosure
V1_INTERVAL_JACOBIAN = GOLDEN / "v1_interval_jacobian"
V1_SEGMENTS = {"katsura3_tilted.json": 125, "katsura3_tilted_default.json": 86,
               "lowrank2_tilted.json": 135, "newton10_rect.json": 21,
               "newton10_tilted.json": 12, "random2_tilted.json": 132}
# the same six cases again, written with the rectangle operator tail
V2_RECT_OPERATOR = GOLDEN / "v2_rect_operator"
V2_SEGMENTS = {"katsura3_tilted.json": 95, "katsura3_tilted_default.json": 55,
               "lowrank2_tilted.json": 119, "newton10_rect.json": 21,
               "newton10_tilted.json": 12, "random2_tilted.json": 86}
# the rect case, written with rect segments tested without a shear
V3_UNSHEARED_RECT = GOLDEN / "v3_unsheared_rect"
V3_SEGMENTS = {"newton10_rect.json": 21}


def newton10(mode):
    h, starts = gen_newton_homotopy(10.0)
    return track(h, starts[0], TrackerConfig(dt0=0.02, r0=0.1, lam=3.0),
                 mode=mode)


def random2_tilted():
    h, starts = gen_random_quadratic(2)
    return track(h, starts[0], TrackerConfig(lam=3.0), mode=MODE_TILTED)


def lowrank2_tilted():
    h, starts = gen_lowrank(2)
    return track(h, starts[0], TrackerConfig(dt0=0.2, r0=0.1, lam=3.0),
                 mode=MODE_TILTED)


def katsura3_tilted(cfg):
    h, starts = gen_katsura(3)
    return track(h, starts[0], cfg, mode=MODE_TILTED)


CASES = {
    "newton10_tilted.json": lambda: newton10(MODE_TILTED),
    "newton10_rect.json": lambda: newton10(MODE_RECT),
    "random2_tilted.json": random2_tilted,
    "lowrank2_tilted.json": lowrank2_tilted,
    "katsura3_tilted.json": lambda: katsura3_tilted(TrackerConfig(lam=3.0)),
    "katsura3_tilted_default.json": lambda: katsura3_tilted(TrackerConfig()),
}


def assert_same_text(got, want):
    """got == want exactly.  A failure names the first differing segment
    and byte offset instead of rendering a diff of two long texts."""
    if got == want:
        return
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
              min(len(got), len(want)))
    segs_got = json.loads(got)["segments"]
    segs_want = json.loads(want)["segments"]
    seg = next((i for i, (a, b) in enumerate(zip(segs_got, segs_want))
                if a != b), min(len(segs_got), len(segs_want)))
    pytest.fail(f"texts differ from byte {at} ({len(got)} against "
                f"{len(want)} bytes); first differing segment {seg} "
                f"({len(segs_got)} against {len(segs_want)} segments)",
                pytrace=False)


@pytest.mark.parametrize("name", sorted(CASES))
def test_fresh_track_matches_golden_file(name):
    want = (GOLDEN / name).read_text(encoding="utf-8")
    assert_same_text(serialize(CASES[name]().certificate), want)
    assert verify(deserialize(want)).ok


@pytest.mark.parametrize("branch", ["array", "scalar"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_both_residual_branches_match_golden_file(name, branch):
    # the verifier's batch over the segment axis ("array") and the
    # tracker's per-test kernels ("scalar") each rebuild every stored
    # residual norm bit for bit and accept every segment
    cert = deserialize((GOLDEN / name).read_text(encoding="utf-8"))
    segs = cert.segments
    if branch == "array":
        verdicts = replay(cert)
    else:
        verdicts = [tutil.scalar_replay(cert, i) for i in range(len(segs))]
    got = np.array([v.residual_norm for v in verdicts])
    want = np.array([s.residual_norm for s in segs])
    assert (got.view(np.uint64) == want.view(np.uint64)).all()
    assert all(v.existence and v.uniqueness for v in verdicts)


@pytest.mark.parametrize("name", sorted(V1_SEGMENTS))
def test_interval_jacobian_certificate_still_verifies(name):
    cert = deserialize(
        (V1_INTERVAL_JACOBIAN / name).read_text(encoding="utf-8"))
    assert len(cert.segments) == V1_SEGMENTS[name]
    assert verify(cert).ok


@pytest.mark.parametrize("name", sorted(V2_SEGMENTS))
def test_rect_operator_certificate_still_verifies(name):
    cert = deserialize((V2_RECT_OPERATOR / name).read_text(encoding="utf-8"))
    assert len(cert.segments) == V2_SEGMENTS[name]
    assert verify(cert).ok


@pytest.mark.parametrize("name", sorted(V3_SEGMENTS))
def test_unsheared_rect_certificate_still_verifies(name):
    cert = deserialize((V3_UNSHEARED_RECT / name).read_text(encoding="utf-8"))
    assert len(cert.segments) == V3_SEGMENTS[name]
    assert verify(cert).ok
