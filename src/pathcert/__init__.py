"""Certified homotopy continuation for parametric polynomial systems.

Tracks solution paths of square polynomial systems whose coefficients move
along a parameter segment, proving existence and uniqueness of the path
inside explicit interval boxes at every step (interval Krawczyk tests over
rectangular complex arithmetic), and emits machine-checkable certificates
that an independent verifier replays from scratch.
"""

from .bench import (
    BenchmarkReport,
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
from .certificate import (
    MODE_RECT,
    MODE_TILTED,
    PathCertificate,
    Segment,
    VerificationReport,
    deserialize,
    load_certificate,
    save_certificate,
    serialize,
    verify,
    verify_file,
)
from .errors import (
    CertificateError,
    DegenerateStart,
    DegenerateTimeInterval,
    DimensionMismatch,
    EmptyInterval,
    IntervalError,
    InvalidM,
    MalformedCertificate,
    MaxStepsExceeded,
    NoConvergence,
    NonFiniteEndpoint,
    NonPositiveRadius,
    ParseError,
    PathcertError,
    SingularJacobian,
    SingularMatrix,
    StepUnderflow,
    TrackingError,
    UnsupportedDegree,
    UnsupportedN,
)
from .ilinalg import (
    IntervalMatrix,
    imatvec,
    mid_inverse,
    point_matvec_box,
    residual_matrix,
    solve_point,
)
from .intervals import (
    Ball,
    Box,
    RealInterval,
    box_centered,
)
from .krawczyk import KrawczykVerdict, parametric_krawczyk_test
from .systems import (
    Homotopy,
    ParametricSystem,
    Term,
    dump_system,
    load_system,
)
from .tracker import (
    TrackerConfig,
    TrackResult,
    TrackState,
    make_state,
    newton_refine,
    precondition,
    step_update,
    track,
)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkReport", "BenchmarkSpec", "build_family", "gen_katsura",
    "gen_lowrank", "gen_newton_homotopy", "gen_random_quadratic",
    "hilbert_matrix", "newton_path_point", "run_benchmark", "svd_oracle",
    "verify_run",
    "MODE_RECT", "MODE_TILTED", "PathCertificate", "Segment",
    "VerificationReport", "deserialize", "load_certificate",
    "save_certificate", "serialize", "verify", "verify_file",
    "CertificateError", "DegenerateStart", "DegenerateTimeInterval",
    "DimensionMismatch", "EmptyInterval", "IntervalError", "InvalidM",
    "MalformedCertificate", "MaxStepsExceeded", "NoConvergence",
    "NonFiniteEndpoint", "NonPositiveRadius", "ParseError", "PathcertError",
    "SingularJacobian", "SingularMatrix", "StepUnderflow", "TrackingError",
    "UnsupportedDegree", "UnsupportedN",
    "IntervalMatrix", "imatvec", "mid_inverse", "point_matvec_box",
    "residual_matrix", "solve_point",
    "Ball", "Box", "RealInterval", "box_centered",
    "KrawczykVerdict", "parametric_krawczyk_test",
    "Homotopy", "ParametricSystem", "Term", "dump_system", "load_system",
    "TrackerConfig", "TrackResult", "TrackState", "make_state",
    "newton_refine", "precondition", "step_update", "track",
]
