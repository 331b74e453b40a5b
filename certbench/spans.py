"""Spans around the calls into pathcert's layers, and the per-layer metrics
made from them.

A ``Tracer`` replaces module attributes (and two ``Homotopy`` methods) with
wrappers that record one span per call: id, parent id, name, start and
end.  Spans stay in memory until ``write``.  Only the traced run installs
the wrappers; ``uninstall`` puts the originals back.

A span's name is ``<layer>.<call>``.  Self time is a span's duration minus
the durations of its child spans.  The benchmark opens one root span per
phase of a round (``round.certify``, ``round.verify``, ``round.tamper``),
and the metrics count only spans under the certify and verify roots, so
the tamper checks do not inflate the verifier's figures.
"""

import importlib
import json
import statistics
from contextlib import contextmanager
from time import perf_counter

# (module or class, attribute, span name).  The attribute is the name the
# caller looks up at call time: pathcert.bench calls track, verify and the
# certificate file helpers through its own imports, the tracker calls the
# Krawczyk test and mid_inverse through its own, and krawczyk calls the
# interval linear algebra through its own.
WRAPPED = (
    ("pathcert.bench", "build_family", "bench.build_family"),
    ("pathcert.bench", "run_benchmark", "bench.run_benchmark"),
    ("pathcert.bench", "verify_run", "bench.verify_run"),
    ("pathcert.bench", "track", "tracker.track"),
    ("pathcert.tracker", "precondition", "tracker.precondition"),
    ("pathcert.tracker", "euler_predict", "tracker.euler_predict"),
    ("pathcert.tracker", "newton_refine", "tracker.newton_refine"),
    ("pathcert.tracker", "mid_inverse", "ilinalg.mid_inverse"),
    ("pathcert.tracker", "parametric_krawczyk_test", "krawczyk.test"),
    ("pathcert.systems:Homotopy", "eval_over_time", "systems.eval_over_time"),
    ("pathcert.systems:Homotopy", "jac_x_interval", "systems.jac_x_interval"),
    ("pathcert.krawczyk", "residual_matrix", "ilinalg.residual_matrix"),
    ("pathcert.krawczyk", "imatvec", "ilinalg.matvec"),
    ("pathcert.krawczyk", "point_matvec_box", "ilinalg.matvec"),
    ("pathcert.bench", "save_certificate", "certificate.save"),
    ("pathcert.certificate", "serialize", "certificate.serialize"),
    ("pathcert.bench", "load_certificate", "certificate.load"),
    ("pathcert.certificate", "deserialize", "certificate.parse"),
    ("pathcert.bench", "verify", "certificate.verify"),
    ("pathcert.certificate", "krawczyk_images", "certificate.replay"),
)

# each layer's self time, under the name it is reported as
SELF_METRICS = {
    "bench": "bench.self_s",
    "tracker": "tracker.self_s",
    "krawczyk": "krawczyk.test_self_s",
    "systems": "systems.self_s",
    "ilinalg": "ilinalg.self_s",
    "certificate": "certificate.self_s",
}
MEASURED_PHASES = ("round.certify", "round.verify")

# spans whose inclusive time per round is reported, as <name>_s
TIMED = (
    "bench.build_family",
    "tracker.track",
    "tracker.precondition",
    "tracker.newton_refine",
    "ilinalg.mid_inverse",
    "krawczyk.test",
    "systems.eval_over_time",
    "systems.jac_x_interval",
    "ilinalg.residual_matrix",
    "ilinalg.matvec",
    "certificate.serialize",
    "certificate.parse",
    "certificate.replay",
)


def _owner(path):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    def __init__(self):
        self.spans = []        # [id, parent, name, start, end]
        self._stack = []
        self._installed = []
        self.missing = []

    def _open(self, name):
        sid = len(self.spans)
        self.spans.append([sid, self._stack[-1] if self._stack else -1,
                           name, perf_counter(), None])
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][4] = perf_counter()
        self._stack.pop()

    def _wrapper(self, fn, name):
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)
        return traced

    def install(self):
        """Wrap every attribute of WRAPPED that exists; the names of those
        that do not are kept in ``missing``."""
        for path, attr, name in WRAPPED:
            owner = _owner(path)
            fn = owner.__dict__.get(attr) if isinstance(owner, type) \
                else getattr(owner, attr, None)
            if not callable(fn):
                self.missing.append(f"{path}.{attr}")
                continue
            setattr(owner, attr, self._wrapper(fn, name))
            self._installed.append((owner, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    @contextmanager
    def phase(self, name):
        """A root span for one phase of a round."""
        sid = self._open("round." + name)
        try:
            yield
        finally:
            self._close(sid)

    def write(self, path, meta):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "fields": ["id", "parent", "name", "start",
                                          "end"], "spans": self.spans}, fh)
            fh.write("\n")


def _noop():
    return None


def span_cost(calls=50_000):
    """Seconds one span adds to a call: a traced no-op against a bare one,
    the best of three tries."""
    traced = Tracer()._wrapper(_noop, "noop")
    best = []
    for fn in (_noop, traced) * 3:
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        best.append(perf_counter() - t0)
    return max(0.0, min(best[1::2]) - min(best[0::2])) / calls


def _rounds(spans):
    """Per round, the spans under its measured phases, each as
    (name, duration, self time, weight).  Rounds are told apart by their
    ``round.certify`` root.  A round verifies its run directory more than
    once; the verify phases' spans are weighted by one over their number,
    so that the sums describe one verification of the run directory."""
    child_time = {}
    for sid, parent, _, start, end in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + end - start
    root_of, rounds = {}, []
    for sid, parent, name, start, end in spans:
        root = sid if parent < 0 else root_of[parent]
        root_of[sid] = root
        if parent < 0:
            if name == "round.certify":
                rounds.append({"phases": {}, "items": []})
            rounds[-1]["phases"][name] = rounds[-1]["phases"].get(name, 0) + 1
        elif spans[root][2] in MEASURED_PHASES:
            dur = end - start
            rounds[-1]["items"].append(
                (spans[root][2], name, dur, dur - child_time.get(sid, 0.0)))
    return [[(name, dur / r["phases"][phase], own / r["phases"][phase],
              1 / r["phases"][phase])
             for phase, name, dur, own in r["items"]] for r in rounds]


def layer_metrics(spans, segments_per_round):
    """The per-layer metrics of a traced run: each is the median over the
    traced rounds of its per-round value, except the test-time
    percentiles, which pool every test of every traced round."""
    per_round = []
    test_ms = []
    for items in _rounds(spans):
        total, calls, self_s = {}, {}, {}
        for name, dur, own, _ in items:
            total[name] = total.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            layer = name.split(".")[0]
            self_s[layer] = self_s.get(layer, 0.0) + own
            if name == "krawczyk.test":
                test_ms.append(1e3 * dur)
        tests = calls.get("krawczyk.test", 0)
        newton_calls = calls.get("tracker.newton_refine", 0)
        replay = total.get("certificate.replay", 0.0)
        verify_self = sum(own for name, _, own, _ in items
                          if name == "certificate.verify")
        row = {f"{name}_s": total.get(name, 0.0) for name in TIMED}
        row.update({
            "tracker.newton_refine_calls": newton_calls,
            "krawczyk.tests": tests,
            "krawczyk.tests_per_segment": tests / segments_per_round,
            "certificate.replay_segments_per_s":
                segments_per_round / replay if replay > 0 else 0.0,
            "certificate.verify_self_s": verify_self,
        })
        for layer, key in SELF_METRICS.items():
            row[key] = self_s.get(layer, 0.0)
        row["trace.spans"] = round(sum(weight for *_, weight in items))
        per_round.append(row)
    if not per_round:
        raise RuntimeError("the traced run recorded no round")
    out = {key: statistics.median(r[key] for r in per_round)
           for key in per_round[0]}
    if len(test_ms) >= 2:
        q = statistics.quantiles(test_ms, n=100, method="inclusive")
        out["krawczyk.test_p50_ms"], out["krawczyk.test_p99_ms"] = q[49], q[98]
    else:
        out["krawczyk.test_p50_ms"] = out["krawczyk.test_p99_ms"] = \
            test_ms[0] if test_ms else 0.0
    return out
