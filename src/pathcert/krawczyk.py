"""Interval Krawczyk test for parametric systems over a time interval.

For a homotopy H, a point x, a point matrix Y, a box I containing x and a
time interval T, the operator is

    K(I, T) = x - Y * encl(H(x, T)) + (Id - Y * encl(dH/dx(I, T))) * (I - x)

where encl(...) are enclosures built at the point x: H's over T is its
time polynomial, float coefficients widened by an a priori rounding bound
(``Homotopy.eval_over_time``), and the Jacobian's over I x T is the same
for the Jacobian's term list, widened by a proven bound on how far its
entries move over I - x (``Homotopy.jac_x_interval``).  If K(I, T) is
contained in I, every t in T admits a solution of H(., t) = 0 inside
K(I, T).  If additionally sqrt(2) * |Id - Y * encl(dH/dx(I, T))| < 1 in
the row-sum norm, that solution is the only one in I for each t.  The
sqrt(2) factor is the price of testing complex rectangles instead of
discs; it is always applied.

The operator's tail computes in midpoint-radius form (Rump, BIT 39,
1999): the enclosures come as centers and radii, Y * encl(H) and
Id - Y * encl(dH/dx) are complex float products with one a priori
rounding bound per dot product (``ilinalg.point_matvec_box``,
``ilinalg.residual_matrix``), and since I - x lies in a ball centered at
0 (``intervals.ball_about``), the contraction term is a sum of the
residual's entry magnitudes times the box's radii, which also give the
norm (``ilinalg.imatvec``; Neumaier 1990 for the operator on boxes
symmetric about x).  The image is a box, rounded outward
(``_kernels.image_k``).  A test computes in the kernels' lists from its
operands to its verdict.
"""

import math
from dataclasses import dataclass

from . import _kernels as _k
from .errors import DimensionMismatch, NonFiniteEndpoint, PathcertError
from .ilinalg import imatvec, point_matvec_box, residual_matrix
from .intervals import (
    Box,
    RealInterval,
    ball_about,
    check_rects,
    point_list,
    point_rows,
)

_SQRT2_UP = math.nextafter(math.sqrt(2.0), math.inf)


@dataclass(frozen=True)
class KrawczykVerdict:
    """Outcome of one test: the two flags, the contraction norm that
    witnessed uniqueness, and the operator image box."""

    existence: bool
    uniqueness: bool
    residual_norm: float
    operator_image: Box

    @property
    def passed(self):
        return self.uniqueness and self.existence


def check_operands(n, x, y, box, T):
    """Validate the operands of a test on an n-variable system.

    Returns x and Y in the kernels' form (``point_list``, ``point_rows``)
    and T as a RealInterval.
    """
    x = point_list(x)
    y = point_rows(y)
    if len(x) != n:
        raise DimensionMismatch(f"x must have shape ({n},)")
    if len(y) != n or any(len(row) != n for row in y):
        raise DimensionMismatch(f"Y must have shape ({n}, {n})")
    if box.n != n:
        raise DimensionMismatch("box dimension differs from system")
    if not isinstance(T, RealInterval):
        T = RealInterval(T)
    if not box.contains_point(x):
        raise PathcertError("expansion point x lies outside the box")
    return x, y, T


def parametric_krawczyk_test(h, x, y, box, T):
    """Run the test and report existence/uniqueness flags.

    existence: K(I, T) is contained in I (closed inclusion).
    uniqueness: sqrt(2) * |Id - Y*Jac| < 1, rounded against the claim.
    Both checks are sound: rounding can only turn a true pass into a
    reported failure, never the other way.  A non-finite image or norm
    raises NonFiniteEndpoint.
    """
    x, y, T = check_operands(h.n, x, y, box, T)
    resid = residual_matrix(y, h.jac_x_interval(box, T, x))
    a = point_matvec_box(y, h.eval_over_time(x, T))
    b = imatvec(resid, ball_about(box, x))
    image = Box.of_rows(_k.image_k(x, a.mid, a.rad, b.rad))
    return verdict_from(box, image, resid.norm())


def _contracts(rn):
    """sqrt(2) * rn < 1, with the product rounded up."""
    return math.nextafter(_SQRT2_UP * rn, math.inf) < 1.0


def verdict_from(box, image, rn):
    """Verdict of a test from its operator image and contraction norm.

    Raises NonFiniteEndpoint when either is non-finite, and EmptyInterval
    for an image with an empty component, which outward-rounded finite
    arithmetic never makes.
    """
    check_rects(image.rows, "Krawczyk image")
    if not math.isfinite(rn):
        raise NonFiniteEndpoint("contraction norm is non-finite")
    return KrawczykVerdict(box.encloses(image), _contracts(rn), rn, image)
