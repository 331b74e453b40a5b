"""Exception types raised across the package."""


class PathcertError(Exception):
    """Base class for all package errors."""


class IntervalError(PathcertError):
    pass


class NonFiniteEndpoint(IntervalError):
    """An interval endpoint is NaN or infinite where finiteness is required."""


class EmptyInterval(IntervalError):
    """Lower endpoint exceeds upper endpoint."""


class NonPositiveRadius(IntervalError):
    pass


class DimensionMismatch(PathcertError):
    pass


class SingularMatrix(PathcertError):
    """LU pivot below threshold; matrix treated as numerically singular."""


class DegenerateTimeInterval(PathcertError):
    """A time bracket [t0, t1] with t1 <= t0 where strict growth is required."""


class TrackingError(PathcertError):
    pass


class StepUnderflow(TrackingError):
    """Step size shrank below the meaningful floating-point resolution."""


class MaxStepsExceeded(TrackingError):
    pass


class NoConvergence(TrackingError):
    """Newton refinement failed to reach the requested residual."""


class SingularJacobian(TrackingError):
    """Jacobian not invertible at a refinement or preconditioning point."""


class DegenerateStart(PathcertError):
    """Start data violates a non-degeneracy requirement (e.g. tied top
    singular values)."""


class CertificateError(PathcertError):
    pass


class MalformedCertificate(CertificateError):
    """Certificate is structurally invalid (wrong shapes, empty chain...)."""


class ParseError(CertificateError):
    """Certificate or system JSON could not be parsed; message carries the
    location when known."""


class InvalidM(PathcertError):
    """Invalid parameter value for the square-root test family."""


class UnsupportedN(PathcertError):
    """Family size outside the supported range."""


class UnsupportedDegree(PathcertError):
    """A term's total degree exceeds ``systems.MAX_DEGREE``."""
