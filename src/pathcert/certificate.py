"""Machine-checkable path certificates.

A certificate is a chain of time segments tiling [0, 1].  Each segment
claims: over T = [t_lo, t_hi] the Krawczyk test with the stored box and
stored matrix Y passes for the stored homotopy (sheared through the stored
endpoints in tilted mode, centered at the stored point in rect mode).

``verify`` trusts nothing but those claims and states each check once.
``deserialize`` reads a segment's anchors (``_ANCHORS`` of its mode) as
required fields.  ``_Claims`` checks a certificate's structure
(dimensions, time brackets, the anchors of one built in memory) and each
segment's operands; ``_Claims.regions`` is the one definition of the
region a segment certifies at a time t (its box, moved by its shear s(t)
in tilted mode).  ``verify`` replays every test with its own interval
arithmetic, checks that the segments tile [0, 1] exactly, that consecutive
regions overlap at the shared times, that the recorded endpoint lies in
the region the last segment certifies at t = 1, and that it really solves
the t = 1 system to the certification tolerance.  The hand-off check is
overlap only: it does not show that the two regions hold the same root.
The replay runs all segments of a certificate as one batch (``_batch``)
with the same floating-point operations, in the same order, as the
tracker's kernels, so each segment's operator image and contraction norm
are bit-identical to ``parametric_krawczyk_test`` on that segment.

All floats are serialized as shortest round-trip decimal strings, so a
certificate file is byte-stable across runs and parses back to identical
binary64 values.  ``serialize`` writes compact JSON, without whitespace,
through the standard encoder; ``deserialize`` reads any JSON layout,
including the indented files of earlier versions.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from ._batch import krawczyk_images, shear_regions
from .errors import MalformedCertificate, ParseError, PathcertError
from .intervals import Box, RealInterval, check_rects, point_rows
from .krawczyk import check_operands, verdict_from
from .systems import (
    Homotopy,
    cvec_in,
    cvec_out,
    float_in,
    float_out,
    shear_line,
)

FINAL_RESIDUAL_TOL = 1e-8

MODE_RECT = "rect"
MODE_TILTED = "tilted"

# the anchor fields each mode's segments require
_ANCHORS = {MODE_RECT: ("center",), MODE_TILTED: ("shear_x0", "shear_x1")}


@dataclass
class Segment:
    """One certified time slice of a path."""
    t_lo: float
    t_hi: float
    box: Box
    y: np.ndarray
    residual_norm: float
    center: "np.ndarray | None" = None       # rect mode
    shear_x0: "np.ndarray | None" = None     # tilted mode
    shear_x1: "np.ndarray | None" = None     # tilted mode


@dataclass
class PathCertificate:
    mode: str
    homotopy: Homotopy
    segments: "list[Segment]"
    final_point: np.ndarray
    final_residual: float
    path_id: int = 0


@dataclass
class VerificationReport:
    ok: bool
    n_segments: int
    failures: "list[str]" = field(default_factory=list)
    segment_ok: "list[bool]" = field(default_factory=list)

    def summary(self):
        if self.ok:
            return f"OK ({self.n_segments} segments)"
        return (f"FAIL ({self.n_segments} segments): "
                + "; ".join(self.failures[:4])
                + ("; ..." if len(self.failures) > 4 else ""))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _parse_f(s, loc):
    try:
        return float_in(s)
    except (TypeError, ValueError) as e:
        raise ParseError(f"{loc}: bad float {s!r}") from e


def _cmat_in(obj, loc):
    try:
        rows = [cvec_in(r, loc) for r in obj]
        return np.array(rows, dtype=np.complex128)
    except ParseError:
        raise
    except (TypeError, ValueError) as e:
        raise ParseError(f"{loc}: bad complex matrix") from e


def _box_in(obj, loc):
    try:
        rows = [[float_in(v) for v in row] for row in obj]
    except (TypeError, ValueError) as e:
        raise ParseError(f"{loc}: bad box") from e
    if not rows or any(len(row) != 4 for row in rows):
        raise ParseError(f"{loc}: box rows must have 4 endpoints")
    try:
        check_rects(rows, "box")
    except PathcertError as e:
        raise MalformedCertificate(f"{loc}: {e}") from e
    return Box.of_rows(rows)


def _segment_json(s, mode):
    """One segment's JSON object, as ``deserialize`` reads it."""
    obj = {
        "t_lo": float_out(s.t_lo),
        "t_hi": float_out(s.t_hi),
        "box": [list(map(float_out, row)) for row in s.box.rows],
        "y": [cvec_out(row) for row in point_rows(s.y)],
        "residual_norm": float_out(s.residual_norm),
    }
    for name in _ANCHORS[mode]:
        obj[name] = cvec_out(getattr(s, name))
    return obj


def serialize(cert):
    """Certificate as a deterministic string: its JSON object as compact
    JSON (no whitespace), ending in a newline."""
    obj = {
        "format": "path-certificate",
        "version": 1,
        "mode": cert.mode,
        "path_id": cert.path_id,
        "homotopy": cert.homotopy.to_json(),
        "segments": [_segment_json(s, cert.mode) for s in cert.segments],
        "final_point": cvec_out(cert.final_point),
        "final_residual": float_out(cert.final_residual),
    }
    return json.dumps(obj, separators=(",", ":")) + "\n"


def deserialize(text):
    """Parse a certificate; ParseError on syntax, MalformedCertificate on
    structurally invalid content."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno} column {e.colno}: {e.msg}") from e
    if not isinstance(obj, dict) or obj.get("format") != "path-certificate":
        raise MalformedCertificate("not a path certificate")
    version = obj.get("version")
    if type(version) is not int or version != 1:
        raise MalformedCertificate(f"unsupported version {version!r}")
    mode = obj.get("mode")
    if mode not in _ANCHORS:
        raise MalformedCertificate(f"unknown mode {mode!r}")
    path_id = obj.get("path_id", 0)
    if type(path_id) is not int:
        raise MalformedCertificate(
            f"path_id must be an integer, got {path_id!r}")
    try:
        h = Homotopy.from_json(obj["homotopy"])
        raw_segs = obj["segments"]
        final_point = cvec_in(obj["final_point"], "final_point")
        final_residual = _parse_f(obj["final_residual"], "final_residual")
    except KeyError as e:
        raise MalformedCertificate(f"missing field {e}") from e
    if not isinstance(raw_segs, list) or not raw_segs:
        raise MalformedCertificate("certificate has no segments")
    segments = []
    for i, row in enumerate(raw_segs):
        loc = f"segments[{i}]"
        try:
            t_lo = _parse_f(row["t_lo"], loc + ".t_lo")
            t_hi = _parse_f(row["t_hi"], loc + ".t_hi")
            box = _box_in(row["box"], loc + ".box")
            y = _cmat_in(row["y"], loc + ".y")
            rn = _parse_f(row["residual_norm"], loc + ".residual_norm")
            anchors = {name: cvec_in(row[name], f"{loc}.{name}")
                       for name in _ANCHORS[mode]}
        except (KeyError, TypeError) as e:
            raise MalformedCertificate(
                f"{loc}: bad or missing field {e}") from e
        segments.append(Segment(t_lo, t_hi, box, y, rn, **anchors))
    return PathCertificate(mode, h, segments, final_point, final_residual,
                           path_id=path_id)


def save_certificate(cert, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(cert))


def load_certificate(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError) as e:
        raise ParseError(f"{path}: {e}") from e
    return deserialize(text)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

class _Claims:
    """A certificate's segments stacked along a leading segment axis.

    Raises MalformedCertificate on structural faults.  ``errors[i]`` is
    the PathcertError that segment i's operands raise before any
    arithmetic (bad shear endpoints, an expansion point outside the box),
    ``shear_errors[i]`` the one its shear endpoints raise alone.
    """

    def __init__(self, cert):
        segs = cert.segments
        n = cert.homotopy.n
        if not segs:
            raise MalformedCertificate("certificate has no segments")
        if cert.mode not in _ANCHORS:
            raise MalformedCertificate(f"unknown mode {cert.mode!r}")
        for i, s in enumerate(segs):
            if s.box.n != n or s.y.shape != (n, n):
                raise MalformedCertificate(
                    f"segments[{i}]: dimension mismatch")
            if not (math.isfinite(s.t_lo) and math.isfinite(s.t_hi)
                    and s.t_lo < s.t_hi):
                raise MalformedCertificate(f"segments[{i}]: bad time bracket")
            for name in _ANCHORS[cert.mode]:
                if getattr(s, name) is None:
                    raise MalformedCertificate(
                        f"segments[{i}]: missing {name}")

        count = len(segs)
        tilted = cert.mode == MODE_TILTED
        self.t_lo = np.array([s.t_lo for s in segs], dtype=np.float64)
        self.t_hi = np.array([s.t_hi for s in segs], dtype=np.float64)
        self.box = np.array([s.box.rows for s in segs], dtype=np.float64)
        self.y = np.stack([s.y for s in segs]).astype(np.complex128)
        self.x = np.zeros((count, n), dtype=np.complex128)
        self.sa = np.zeros((count, n), dtype=np.complex128) if tilted else None
        self.sb = np.zeros((count, n), dtype=np.complex128) if tilted else None
        self.errors = [None] * count
        self.shear_errors = [None] * count
        zeros = [0j] * n
        for i, s in enumerate(segs):
            try:
                if tilted:
                    _, _, self.sa[i], self.sb[i] = shear_line(
                        n, s.shear_x0, s.shear_x1, s.t_lo, s.t_hi)
            except PathcertError as e:
                self.errors[i] = self.shear_errors[i] = e
                continue
            try:
                self.x[i], _, _ = check_operands(
                    n, zeros if tilted else s.center, s.y, s.box,
                    RealInterval(s.t_lo, s.t_hi))
            except PathcertError as e:
                self.errors[i] = e

    def regions(self, rows, t):
        """The regions that the segments ``rows`` (a slice of the segment
        axis) certify at the times ``t``, one per row: each box, moved by
        its shear s(t) in tilted mode.  Returns (rows, n, 4)."""
        if self.sa is None:
            return self.box[rows]
        return shear_regions(self.box[rows], self.sa[rows], self.sb[rows], t)


def _replay(cert, claims):
    """Each segment's KrawczykVerdict, or the PathcertError it raised."""
    out = list(claims.errors)
    live = np.array([i for i, e in enumerate(out) if e is None], dtype=int)
    if not len(live):
        return out
    sheared = claims.sa is not None
    image, norm = krawczyk_images(
        cert.homotopy, claims.x[live], claims.y[live],
        claims.box[live], claims.t_lo[live], claims.t_hi[live],
        claims.sa[live] if sheared else None,
        claims.sb[live] if sheared else None)
    images = image.tolist()
    for k, i in enumerate(live):
        try:
            out[i] = verdict_from(cert.segments[i].box,
                                  Box.of_rows(images[k]), float(norm[k]))
        except PathcertError as e:
            out[i] = e
    return out


def replay(cert):
    """Replay every segment's Krawczyk test from the stored claims.

    All segments run as one batch with the same floating-point
    operations as the tracker's kernels, so each verdict's operator image
    and contraction norm are bit-identical to ``parametric_krawczyk_test``
    on that segment.  Returns one entry per segment: its KrawczykVerdict,
    or the PathcertError the test raised.
    """
    return _replay(cert, _Claims(cert))


def verify(cert):
    """Independently re-check a certificate; returns a VerificationReport."""
    failures = []
    segment_ok = []
    segs = cert.segments
    claims = _Claims(cert)
    if cert.final_point.shape != (cert.homotopy.n,):
        raise MalformedCertificate("final point has wrong dimension")

    # chain tiles [0, 1]
    gap = claims.t_hi[:-1] != claims.t_lo[1:]
    if segs[0].t_lo != 0.0:
        failures.append(f"chain starts at t={segs[0].t_lo}, not 0")
    for i in np.flatnonzero(gap):
        failures.append(
            f"chain gap: segments[{i}].t_hi={segs[i].t_hi!r} "
            f"!= segments[{i + 1}].t_lo={segs[i + 1].t_lo!r}")
    if segs[-1].t_hi < 1.0:
        failures.append(f"chain ends at t={segs[-1].t_hi}, before 1")

    # replay every Krawczyk test from the stored claims only
    for i, verdict in enumerate(_replay(cert, claims)):
        if isinstance(verdict, PathcertError):
            failures.append(f"segments[{i}]: replay error: {verdict}")
            segment_ok.append(False)
            continue
        if not verdict.existence:
            failures.append(f"segments[{i}]: existence check failed")
        if not verdict.uniqueness:
            failures.append(f"segments[{i}]: uniqueness check failed")
        segment_ok.append(verdict.passed)

    # consecutive certified regions must overlap (closed) at the shared
    # time; a gap is already reported.  [..., ::2] are a region's lower
    # re/im endpoints, [..., 1::2] its upper ones
    tau = claims.t_hi[:-1]
    a = claims.regions(slice(None, -1), tau)
    b = claims.regions(slice(1, None), tau)
    overlap = ((a[..., ::2] <= b[..., 1::2])
               & (b[..., ::2] <= a[..., 1::2])).all(axis=(1, 2))
    for i in np.flatnonzero(~gap):
        err = claims.shear_errors[i] or claims.shear_errors[i + 1]
        if err is not None:
            failures.append(f"segments[{i}]: hand-off error: {err}")
        elif not overlap[i]:
            failures.append(
                f"segments[{i}]/[{i + 1}]: hand-off regions disjoint "
                f"at t={segs[i].t_hi!r}")

    # the endpoint lies in the region the last segment certifies at t=1,
    # which holds that path's root and no other
    region = claims.regions(slice(-1, None), np.ones(1))[0]
    if claims.shear_errors[-1] is None and not Box.of_rows(
            region.tolist()).contains_point(cert.final_point):
        failures.append("final point lies outside the last segment's "
                        "certified region at t=1")

    # endpoint really solves the t=1 system
    res = float(np.abs(cert.homotopy.eval_point(cert.final_point, 1.0)).max())
    if not (res <= FINAL_RESIDUAL_TOL):
        failures.append(
            f"final residual {res:.3e} exceeds {FINAL_RESIDUAL_TOL:.1e}")

    return VerificationReport(ok=not failures, n_segments=len(segs),
                              failures=failures, segment_ok=segment_ok)


def verify_file(path):
    return verify(load_certificate(path))
