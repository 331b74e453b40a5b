"""Golden certificates: tracking must reproduce the frozen files byte for byte.

The newton files in ``data/golden`` were written by ``serialize`` before
the scalar kernels moved from numpy scalars to Python floats.  The
random and lowrank files (2 and 4 unknowns) were written again when the
step schedule stopped growing after an accepted test without contraction
margin: the old rule's files reproduced byte for byte on the code that
replaced them, so only the choice of attempts moved, not the arithmetic.
All four were written indented until ``serialize`` switched to compact
JSON; they were then re-laid out mechanically, each as
``json.dumps(json.loads(old), separators=(",", ":")) + "\n"``, with every
value unchanged.  The katsura file (3 unknowns, path 0 of the
benchmark's katsura3 run, 125 segments) was written compact, before the
tracker's step loop moved from numpy arrays to Python lists.
Any change to the order or rounding of an interval operation on the
tracking path shows up here as a byte difference.  Each case also runs
with every residual forced onto the array kernels and onto the scalar
kernels.  Nothing ``track`` calls reads the number of usable cores, so
the pool against one core is checked where a pool runs, in
``test_bench.py``.
"""

from pathlib import Path

import pytest

from pathcert import ilinalg
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
    serialize,
    verify,
)
from pathcert.tracker import TrackerConfig, track

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


def newton10(mode):
    h, starts = gen_newton_homotopy(10.0)
    return track(h, starts[0], TrackerConfig(dt0=0.02, r0=0.1), mode=mode)


def random2_tilted():
    h, starts = gen_random_quadratic(2)
    return track(h, starts[0], TrackerConfig(), mode=MODE_TILTED)


def lowrank2_tilted():
    h, starts = gen_lowrank(2)
    return track(h, starts[0], TrackerConfig(dt0=0.2, r0=0.1),
                 mode=MODE_TILTED)


def katsura3_tilted():
    h, starts = gen_katsura(3)
    return track(h, starts[0], TrackerConfig(), mode=MODE_TILTED)


CASES = {
    "newton10_tilted.json": lambda: newton10(MODE_TILTED),
    "newton10_rect.json": lambda: newton10(MODE_RECT),
    "random2_tilted.json": random2_tilted,
    "lowrank2_tilted.json": lowrank2_tilted,
    "katsura3_tilted.json": katsura3_tilted,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_fresh_track_matches_golden_file(name):
    want = (GOLDEN / name).read_text(encoding="utf-8")
    got = serialize(CASES[name]().certificate)
    assert got == want
    assert verify(deserialize(want)).ok


@pytest.mark.parametrize("wide_n", [1, 10**6], ids=["array", "scalar"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_both_residual_branches_match_golden_file(name, wide_n, monkeypatch):
    monkeypatch.setattr(ilinalg, "WIDE_N", wide_n)
    want = (GOLDEN / name).read_text(encoding="utf-8")
    assert serialize(CASES[name]().certificate) == want
