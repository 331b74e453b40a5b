"""The package's public surface: ``pathcert.__all__`` is pinned, so a name
is added to it or dropped from it only by editing this list.  It names
what the package re-exports from its submodules, not the submodules
(``bench``, ``tracker``, ...) that its imports bind as attributes."""

import pathcert

PUBLIC = [
    "Ball", "BenchmarkReport", "BenchmarkSpec", "Box", "CertificateError",
    "DegenerateStart", "DegenerateTimeInterval", "DimensionMismatch",
    "EmptyInterval", "Homotopy", "IntervalError", "IntervalMatrix",
    "InvalidM", "KrawczykVerdict", "MODE_RECT", "MODE_TILTED",
    "MalformedCertificate", "MaxStepsExceeded", "NoConvergence",
    "NonFiniteEndpoint", "NonPositiveRadius", "ParametricSystem",
    "ParseError", "PathCertificate", "PathcertError", "RealInterval",
    "Segment", "SingularJacobian", "SingularMatrix", "StepUnderflow",
    "Term", "TrackResult", "TrackState", "TrackerConfig", "TrackingError",
    "UnsupportedDegree", "UnsupportedN", "VerificationReport",
    "box_centered", "build_family", "deserialize", "dump_system",
    "gen_katsura", "gen_lowrank", "gen_newton_homotopy",
    "gen_random_quadratic", "hilbert_matrix", "imatvec",
    "load_certificate", "load_system", "make_state", "mid_inverse",
    "newton_path_point", "newton_refine", "parametric_krawczyk_test",
    "point_matvec_box", "precondition", "residual_matrix", "run_benchmark",
    "save_certificate", "serialize", "solve_point", "step_update",
    "svd_oracle", "track", "verify", "verify_file", "verify_run",
]


def test_public_names_pinned():
    assert sorted(pathcert.__all__) == PUBLIC
    # the list is written out by hand: each name must be bound
    assert all(hasattr(pathcert, name) for name in pathcert.__all__)
