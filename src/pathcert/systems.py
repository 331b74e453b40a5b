"""Parametric polynomial systems and parameter-line homotopies.

A system is F(x; p): C^n x C^m -> C^n given as term lists.  Each term is
coeff * p_k^(0 or 1) * prod_j x_j^e_j, i.e. coefficients are affine in the
parameters.  The homotopy moves parameters along a segment
p(t) = (1 - t) p0 + t p1, so H(x, t) = F(x; p(t)) and the t-derivative is
the parameter part evaluated at the displacement p1 - p0.

A homotopy can carry a shear: a time-affine shift s(t) with s(t0) = x0 and
s(t1) = x1.  The sheared map is x |-> H(x + s(t), t); evaluation and
x-Jacobians account for it (the Jacobian is unchanged as a function, only
its argument shifts).

A homotopy keeps its parameters and shear as lists of Python complex, the
kernels' form.  Its private point maps (``_eval``, ``_jac``, ``_f1``) take
and return lists for the tracker's step loop; the public methods take
arrays or lists and return arrays and boxes.  Products of a float and a
complex are written ``complex(t) * z``: that is numpy's float-to-complex
product, with the same bits on every Python version.
"""

import cmath
import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels as _k
from .errors import (
    DegenerateTimeInterval,
    DimensionMismatch,
    MalformedCertificate,
    NonFiniteEndpoint,
    ParseError,
    PathcertError,
    UnsupportedDegree,
)
from .ilinalg import IntervalMatrix
from .intervals import Box, RealInterval, point_list

# Largest total degree of a term.  Evaluation allocates powers up to the
# largest exponent, so a cap keeps a hostile system file or certificate
# from exhausting memory; every shipped family has degree 3 or less.
MAX_DEGREE = 32


@dataclass(frozen=True)
class Term:
    """One monomial term: coeff * p_param * x^expo (param optional)."""
    coeff: complex
    param: "int | None"
    expo: "tuple[int, ...]"


class _Flat:
    """A system's term lists in the layouts the kernels consume.

    ``rows[i]`` holds equation i's terms as (coeff, fac, param, expo):
    ``fac`` is the term's exact small-integer multiplicity (from
    differentiation) and ``param`` None or a parameter index.
    ``terms[i]`` lists equation i's terms for point evaluation as Python
    values: (par, factors, coef_point), with ``par`` -1 for no parameter,
    ``factors`` the (j, e) pairs with e > 0 and ``coef_point`` the complex
    float coeff * fac.  ``tpoly`` and ``dev`` are built on first use:
    only the term lists of F and of its Jacobian are enclosed, ``dev``
    only once one is enclosed over a box.  The scalar kernels of
    ``_kernels`` and their ``_batch`` twins loop over the same lists.
    """

    __slots__ = ("n", "rows", "max_expo", "tdeg", "terms", "_tpoly", "_dev")

    def __init__(self, rows, n):
        self.n = n
        self.rows = rows
        self._tpoly = None
        self._dev = None
        self.max_expo = max((e for row in rows for *_, expo in row
                             for e in expo), default=0)
        # degree in t after substituting a time-affine shear and path
        self.tdeg = max((sum(expo) + (param is not None)
                         for row in rows for _, _, param, expo in row),
                        default=0)
        self.terms = [[(-1 if param is None else param,
                        tuple((j, e) for j, e in enumerate(expo) if e > 0),
                        coeff * fac)
                       for coeff, fac, param, expo in row]
                      for row in rows]

    @property
    def tpoly(self):
        """Per equation, the view ``eval_terms_tpoly`` consumes: the three
        constants of its rounding bound, its degree in time (the most
        factors of a term) and the terms (coef_point, l1, eps, factors).
        ``l1`` bounds |coef * fac|_1 and |coef_point|_1, rounded up; ``eps``
        bounds |coef_point - coef * fac|_1 (0 when fac is 1); ``factors``
        index the kernel's factor table, variables then parameters: the
        parameter n + par first, then each variable j repeated e times."""
        if self._tpoly is not None:
            return self._tpoly
        n = self.n
        up = math.nextafter
        self._tpoly = []
        for row in self.rows:
            tterms = []
            for coeff, fac, param, expo in row:
                f = float(fac)
                l1 = up(up(abs(coeff.real) * f, math.inf)
                        + up(abs(coeff.imag) * f, math.inf), math.inf)
                tterms.append((
                    coeff * fac, l1,
                    0.0 if f == 1.0 else up(l1 * 2.0 ** -53, math.inf),
                    (() if param is None else (n + param,))
                    + tuple(j for j, e in enumerate(expo) for _ in range(e))))
            deg = max((len(fs) for *_, fs in tterms), default=0)
            self._tpoly.append(_k.tpoly_bound([t[1] for t in tterms], deg)
                               + (deg, tterms))
        return self._tpoly

    @property
    def dev(self):
        """Per equation, the view ``eval_terms_deviation`` consumes: the
        constant kappa of its underflow term, the most factors of a term
        (deg) and the terms with a variable factor, as (coef_point, l1,
        l1g, factors, occurrences).  ``l1`` and ``factors`` are those of
        ``tpoly``; ``l1g`` >= gamma_2(e-1) * l1 + eps for a term of e
        factors, rounded up; each occurrence is (j, m_j, others): a
        variable j of the term, its multiplicity as a float and the
        factors without one occurrence of j."""
        if self._dev is not None:
            return self._dev
        n = self.n
        up = math.nextafter
        self._dev = []
        for *_, tterms in self.tpoly:
            dterms = []
            for coef, l1, e1, fs in tterms:
                if not any(f < n for f in fs):
                    continue
                occ = []
                for j in sorted({f for f in fs if f < n}):
                    others = list(fs)
                    others.remove(j)
                    occ.append((j, float(fs.count(j)), tuple(others)))
                g = _k._gamma(2 * (len(fs) - 1))
                dterms.append((coef, l1, up(up(g * l1, math.inf) + e1,
                                            math.inf), fs, tuple(occ)))
            deg = max((len(t[3]) for t in dterms), default=0)
            self._dev.append((float(3 * len(dterms) * deg * (deg - 1)), deg,
                              dterms))
        return self._dev


class ParametricSystem:
    """Square polynomial system with affine parameter dependence."""

    def __init__(self, n, m, equations):
        if n < 1:
            raise DimensionMismatch(f"need at least one variable, got n={n}")
        if m < 0:
            raise DimensionMismatch(f"parameter count must be >= 0, got {m}")
        if len(equations) != n:
            raise DimensionMismatch(
                f"square system needs {n} equations, got {len(equations)}")
        eqs = []
        for i, row in enumerate(equations):
            terms = []
            for j, t in enumerate(row):
                c = complex(t.coeff)
                if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                    raise NonFiniteEndpoint(
                        f"equation {i} term {j} has non-finite coefficient")
                par = t.param
                if par is not None:
                    par = _integer(par)
                    if par is None or not (0 <= par < m):
                        raise DimensionMismatch(
                            f"equation {i} term {j} has parameter index "
                            f"{t.param!r}, not an integer in [0, {m})")
                expo = tuple(_integer(e) for e in t.expo)
                if (len(expo) != n
                        or any(e is None or e < 0 for e in expo)):
                    raise DimensionMismatch(
                        f"equation {i} term {j} has bad exponents {t.expo}")
                if sum(expo) > MAX_DEGREE:
                    raise UnsupportedDegree(
                        f"equation {i} term {j} has degree {sum(expo)} "
                        f"above {MAX_DEGREE}")
                terms.append(Term(c, par, expo))
            eqs.append(tuple(terms))
        self.n = n
        self.m = m
        self.equations = tuple(eqs)

    # -- flattened views ---------------------------------------------------

    @cached_property
    def _flat_f(self):
        rows = [[(t.coeff, 1, t.param, t.expo) for t in eq]
                for eq in self.equations]
        return _Flat(rows, self.n)

    @cached_property
    def _flat_jac(self):
        # row-major (i, j) blocks: d eq_i / d x_j
        rows = []
        for eq in self.equations:
            for j in range(self.n):
                row = []
                for t in eq:
                    e = t.expo[j]
                    if e > 0:
                        de = list(t.expo)
                        de[j] = e - 1
                        row.append((t.coeff, e, t.param, tuple(de)))
                rows.append(row)
        return _Flat(rows, self.n)

    @cached_property
    def _flat_f1(self):
        rows = [[(t.coeff, 1, t.param, t.expo) for t in eq
                 if t.param is not None] for eq in self.equations]
        return _Flat(rows, self.n)

    # -- JSON --------------------------------------------------------------

    def to_json(self):
        eqs = []
        for eq in self.equations:
            row = []
            for t in eq:
                row.append({
                    "coeff_re": repr(t.coeff.real),
                    "coeff_im": repr(t.coeff.imag),
                    "param_index": t.param,
                    "exponents": list(t.expo),
                })
            eqs.append(row)
        return {"n": self.n, "m": self.m, "equations": eqs}

    @classmethod
    def from_json(cls, obj):
        try:
            n = _json_int(obj["n"], "n")
            m = _json_int(obj["m"], "m")
            raw = [list(row) for row in obj["equations"]]
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(f"system header: {e}") from e
        eqs = []
        for i, row in enumerate(raw):
            terms = []
            for j, t in enumerate(row):
                loc = f"equations[{i}][{j}]"
                try:
                    cre = float_in(t["coeff_re"])
                    cim = float_in(t["coeff_im"])
                    par = t["param_index"]
                    if par is not None:
                        par = _json_int(par, "param_index")
                    expo = tuple(_json_int(e, "exponent")
                                 for e in t["exponents"])
                except (KeyError, TypeError, ValueError) as e:
                    raise ParseError(f"{loc}: {e}") from e
                terms.append(Term(complex(cre, cim), par, expo))
            eqs.append(terms)
        try:
            return cls(n, m, eqs)
        except PathcertError as e:
            raise MalformedCertificate(f"system: {e}") from e


def _integer(v):
    """v as an int when ``operator.index`` takes it and it is no bool,
    else None: a float exponent or index is refused, not truncated."""
    if isinstance(v, bool):
        return None
    try:
        return operator.index(v)
    except TypeError:
        return None


def _json_int(v, name):
    """v if it is a JSON integer; a bool, float or string raises
    TypeError instead of being converted."""
    if type(v) is not int:
        raise TypeError(f"{name} must be an integer, got {v!r}")
    return v


class Homotopy:
    """F(x; p(t)) along the parameter segment p(t) = (1-t) p0 + t p1."""

    def __init__(self, system, p0, p1, shear=None):
        p0 = np.ascontiguousarray(p0, dtype=np.complex128)
        p1 = np.ascontiguousarray(p1, dtype=np.complex128)
        if p0.shape != (system.m,) or p1.shape != (system.m,):
            raise DimensionMismatch(
                f"parameter vectors must have shape ({system.m},)")
        for name, p in (("p0", p0), ("p1", p1)):
            if not (np.isfinite(p.real).all() and np.isfinite(p.imag).all()):
                raise NonFiniteEndpoint(f"{name} has non-finite entries")
        self.system = system
        self.p0 = p0
        self.p1 = p1
        self._p0 = p0.tolist()
        self._p1 = p1.tolist()
        self._dp = (p1 - p0).tolist()
        self.shear = None
        self._sa = None
        self._sb = None
        self._table = None
        if shear is not None:
            self._set_shear(*shear)

    def _set_shear(self, x0, x1, t0, t1):
        x0, x1, self._sa, self._sb = shear_line(self.n, x0, x1, t0, t1)
        self.shear = (x0, x1, float(t0), float(t1))
        self._table = None

    @property
    def n(self):
        return self.system.n

    @property
    def m(self):
        return self.system.m

    def sheared(self, x0, x1, t0, t1):
        """Homotopy for x |-> H(x + s(t), t) with s affine through
        (t0, x0) and (t1, x1).  It shares this homotopy's system and
        parameters, which were checked when this one was made."""
        g = Homotopy.__new__(Homotopy)
        g.__dict__.update(self.__dict__)
        g._set_shear(x0, x1, t0, t1)
        return g

    def _shift(self, t):
        u = complex(t)
        return [a + u * b for a, b in zip(self._sa, self._sb)]

    def _params(self, t):
        s, u = complex(1.0 - t), complex(t)
        return [s * a + u * b for a, b in zip(self._p0, self._p1)]

    # -- point evaluation (uncertified) -------------------------------------

    def _at(self, t):
        """(s(t) or None, p(t)) as lists: what ``_eval`` and ``_jac`` need
        at time t, computed once for any number of points."""
        return (None if self.shear is None else self._shift(t),
                self._params(t))

    @staticmethod
    def _z(x, shift):
        return x if shift is None else [xj + s for xj, s in zip(x, shift)]

    def _eval(self, x, at):
        """H(x, t) for a list x and at = ``_at(t)``, as a list."""
        shift, pv = at
        return _k.eval_terms_point(self.system._flat_f, self._z(x, shift), pv)

    def _jac(self, x, at):
        """dH/dx at (x, t) for a list x and at = ``_at(t)``, as a list of
        rows."""
        shift, pv = at
        out = _k.eval_terms_point(self.system._flat_jac, self._z(x, shift), pv)
        n = self.n
        return [out[i:i + n] for i in range(0, n * n, n)]

    def _f1(self, x):
        """dH/dt of the unsheared homotopy at a list x, as a list."""
        return _k.eval_terms_point(self.system._flat_f1, x, self._dp)

    def _point(self, x):
        """x in the kernels' form, checked to be an n-vector."""
        x = point_list(x)
        if len(x) != self.n:
            raise DimensionMismatch(f"x must have shape ({self.n},)")
        return x

    def eval_point(self, x, t):
        return np.array(self._eval(self._point(x), self._at(t)),
                        dtype=np.complex128)

    def jac_x_point(self, x, t):
        """dH/dx at (x, t) as an (n, n) array.  The tracker works on
        ``_jac``'s rows; the tests use this, with ``f1_eval``, as the
        oracle of its Euler direction."""
        return np.array(self._jac(self._point(x), self._at(t)),
                        dtype=np.complex128)

    def f1_eval(self, x):
        """t-derivative of the unsheared homotopy at x (constant in t).
        The tracker works on ``_f1``'s list; the tests use this, with
        ``jac_x_point``, as the oracle of its Euler direction."""
        return np.array(self._f1(self._point(x)), dtype=np.complex128)

    # -- interval evaluation (certified enclosures) --------------------------

    def eval_interval(self, box, T):
        """Enclosure of { H(x, t) : x in box, t in T }, componentwise:
        ``_enclose`` of H's term list at the box's midpoint."""
        return Box.of_rows(self._enclose(self.system._flat_f, box, T))

    def eval_over_time(self, x, T):
        """Enclosure of { H(x, t) : t in T } at a fixed point x.

        The time polynomial of ``_enclose`` with no box.  For a sheared
        homotopy its linear coefficient nearly cancels (the secant slope
        tracks the path), so the enclosure shrinks to the secant's sag far
        below the raw drift of H over T.
        """
        return Box.of_rows(self._enclose(self.system._flat_f, None, T, x))

    def jac_x_interval(self, box, T, x=None):
        """Enclosure of the x-Jacobian over box x T as an IntervalMatrix:
        ``_enclose`` of the Jacobian's term list at the point x (by
        default the box's midpoint)."""
        out = self._enclose(self.system._flat_jac, box, T, x)
        n = self.n
        return IntervalMatrix.of_rows([out[i:i + n]
                                       for i in range(0, n * n, n)])

    def _enclose(self, flat, box, T, x=None):
        """Enclosure of the term list ``flat`` over box x T, one rectangle
        per equation, expanded at the point x (by default the box's
        midpoint); with no box, its enclosure at x over T.

        The term list's time polynomial at x is enclosed over T with float
        coefficients and an a priori rounding bound
        (``_kernels.eval_terms_tpoly``), and each entry is widened by a
        proven bound on how far it moves over box - x and T
        (``_kernels.eval_terms_deviation``): the first order at the window
        midpoint componentwise, the window variation and the higher orders
        in |.|_1 products, every magnitude rounded up.  The time
        polynomial keeps the shear's cancellation with the parameter drift
        that separate interval copies of T would lose.
        """
        if box is not None and box.n != self.n:
            raise DimensionMismatch("box dimension differs from system")
        if not isinstance(T, RealInterval):
            T = RealInterval(T)
        if x is None:
            x = [complex(0.5 * (rl + rh), 0.5 * (il + ih))
                 for rl, rh, il, ih in box.rows]
        else:
            x = self._point(x)
        table = self._tpoly_table(x, T)
        out = _k.eval_terms_tpoly(flat, table)
        if box is None:
            return out
        dev = _k.eval_terms_deviation(flat, table, _k.box_radii(box.rows, x))
        return [_k.c_add(r, (-er, er, -ei, ei))
                for r, (er, ei) in zip(out, dev)]

    def _tpoly_table(self, x, T):
        """``_kernels.tpoly_table`` at the point x over T.  A Krawczyk
        test encloses H and the Jacobian at one point and window, so the
        last table is kept for a call with equal x and T; making a
        sheared copy clears it."""
        key = (T.lo, T.hi, tuple(x))
        if self._table is not None and self._table[0] == key:
            return self._table[1]
        table = _k.tpoly_table(x, self._sa, self._sb, self._p0, self._p1,
                               T.lo, T.hi)
        self._table = key, table
        return table

    # -- JSON ---------------------------------------------------------------

    def to_json(self):
        obj = {
            "system": self.system.to_json(),
            "p0": cvec_out(self.p0),
            "p1": cvec_out(self.p1),
        }
        return obj

    @classmethod
    def from_json(cls, obj):
        try:
            sys_obj = obj["system"]
            p0 = cvec_in(obj["p0"], "p0")
            p1 = cvec_in(obj["p1"], "p1")
        except (KeyError, TypeError) as e:
            raise ParseError(f"homotopy: bad or missing field {e}") from e
        system = ParametricSystem.from_json(sys_obj)
        try:
            return cls(system, p0, p1)
        except PathcertError as e:
            raise MalformedCertificate(f"homotopy: {e}") from e


def shear_line(n, x0, x1, t0, t1):
    """The affine shift s(t) = a + t*b with s(t0) = x0 and s(t1) = x1.

    Validates the endpoints and returns (x0, x1, a, b) as lists of
    complex.  b = (x1 - x0) / (t1 - t0) and a = x0 - t0*b, with numpy's
    complex128 division (``_kernels._cdiv``) and products.
    """
    x0 = point_list(x0)
    x1 = point_list(x1)
    if len(x0) != n or len(x1) != n:
        raise DimensionMismatch("shear endpoints must be n-vectors")
    if not (t1 > t0):
        raise DegenerateTimeInterval(f"shear needs t1 > t0, got [{t0}, {t1}]")
    for name, v in (("x0", x0), ("x1", x1)):
        if not all(cmath.isfinite(z) for z in v):
            raise NonFiniteEndpoint(f"shear {name} not finite")
    dt = complex(t1 - t0)
    b = [_k._cdiv(q - p, dt) for p, q in zip(x0, x1)]
    t0 = complex(t0)
    return x0, x1, [p - t0 * v for p, v in zip(x0, b)], b


# --- JSON encoding of floats and complex vectors --------------------------
# Floats are written as shortest round-trip decimal strings, so a file is
# byte-stable across runs and parses back to identical binary64 values.

def float_out(x):
    return repr(float(x))


def float_in(v):
    """float(v) for a JSON number or string; a bool raises TypeError
    instead of reading as 1.0 or 0.0."""
    if isinstance(v, bool):
        raise TypeError(f"expected a float, got {v!r}")
    return float(v)


def cvec_out(v):
    # the parts of a Python complex are Python floats: repr is float_out
    return [[repr(z.real), repr(z.imag)] for z in point_list(v)]


def cvec_in(obj, loc):
    try:
        return np.array([complex(float_in(a), float_in(b)) for a, b in obj],
                        dtype=np.complex128)
    except (TypeError, ValueError) as e:
        raise ParseError(f"{loc}: bad complex vector") from e


def load_system(path):
    """Read a ParametricSystem from a JSON file; ParseError if the file is
    missing, unreadable, not UTF-8 or not JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError) as e:
        raise ParseError(f"{path}: {e}") from e
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    return ParametricSystem.from_json(obj)


def dump_system(system, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(system.to_json(), fh, indent=1)
        fh.write("\n")
