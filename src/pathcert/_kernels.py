"""Scalar interval kernels over Python floats.

The tracker tests one small problem at a time, so these kernels are plain
Python.  A complex rectangle [re_lo, re_hi] + i*[im_lo, im_hi] is a 4-tuple
of floats.  Each array kernel converts its operands once with ``tolist``
and returns float64 arrays: a box over C^n has shape (n, 4), an interval
matrix (r, c, 4).  Python floats are IEEE binary64 like numpy's, but their
arithmetic skips numpy's scalar dispatch and never warns on overflow.

Interval soundness convention: every arithmetic result is widened outward
by one ulp per endpoint (``math.nextafter`` toward the respective
infinity) AFTER the rounded-to-nearest float computation.  Since IEEE-754
round-to-nearest never strays past the neighbouring representable, the
widened interval encloses the exact real result.

The endpoint min/max of a product keep Python's ``min``/``max`` semantics
(keep a unless b < a), which fixes where a NaN ends up.  ``_batch`` holds
the array twins of these kernels and performs the same IEEE operations in
the same order, so the two agree bit for bit.  The verifier replays with
them, and the tracker's residual ``residual_k`` gives way to its twin
once a system has ``ilinalg.WIDE_N`` unknowns or more.
"""

import math

import numpy as np

_INF = math.inf
_next = math.nextafter

ZERO = (0.0, 0.0, 0.0, 0.0)
ONE = (1.0, 1.0, 0.0, 0.0)
# c_mul(ZERO, a) for every rectangle a with finite endpoints: each real
# product is a signed zero, rounded out to -+5e-324, and the sum and
# difference of two such bounds round out once more
_ZERO_TIMES_FINITE = (-1.5e-323, 1.5e-323, -1.5e-323, 1.5e-323)


def _rects(rows, shape):
    """float64 array of the given shape from a list of rectangles."""
    return np.array(rows, dtype=np.float64).reshape(shape)


def _points(v):
    """Degenerate rectangles at the entries of a complex array, flattened."""
    return [(z.real, z.real, z.imag, z.imag) for z in v.ravel().tolist()]


# ---------------------------------------------------------------------------
# scalar real interval ops
# ---------------------------------------------------------------------------

def r_add(al, ah, bl, bh):
    return _next(al + bl, -_INF), _next(ah + bh, _INF)


def r_sub(al, ah, bl, bh):
    return _next(al - bh, -_INF), _next(ah - bl, _INF)


def r_mul(al, ah, bl, bh):
    p1 = al * bl
    p2 = al * bh
    p3 = ah * bl
    p4 = ah * bh
    lo = min(min(p1, p2), min(p3, p4))
    hi = max(max(p1, p2), max(p3, p4))
    return _next(lo, -_INF), _next(hi, _INF)


def r_div(al, ah, bl, bh):
    # caller guarantees 0 is not in [bl, bh]
    q1 = al / bl
    q2 = al / bh
    q3 = ah / bl
    q4 = ah / bh
    lo = min(min(q1, q2), min(q3, q4))
    hi = max(max(q1, q2), max(q3, q4))
    return _next(lo, -_INF), _next(hi, _INF)


# ---------------------------------------------------------------------------
# scalar complex (rectangle) ops
# ---------------------------------------------------------------------------

def c_add(a, b):
    return (_next(a[0] + b[0], -_INF), _next(a[1] + b[1], _INF),
            _next(a[2] + b[2], -_INF), _next(a[3] + b[3], _INF))


def c_sub(a, b):
    return (_next(a[0] - b[1], -_INF), _next(a[1] - b[0], _INF),
            _next(a[2] - b[3], -_INF), _next(a[3] - b[2], _INF))


def c_mul(a, b):
    """Re = Re_a*Re_b - Im_a*Im_b, Im = Re_a*Im_b + Im_a*Re_b.

    The four real products are ``r_mul`` written out, with each min/max
    as the conditional expression Python's builtins evaluate.
    """
    arl, arh, ail, aih = a
    brl, brh, bil, bih = b
    # Re_a * Re_b
    p, q, r, s = arl * brl, arl * brh, arh * brl, arh * brh
    lo = q if q < p else p
    m = s if s < r else r
    rrl = _next(m if m < lo else lo, -_INF)
    hi = q if q > p else p
    m = s if s > r else r
    rrh = _next(m if m > hi else hi, _INF)
    # Im_a * Im_b
    p, q, r, s = ail * bil, ail * bih, aih * bil, aih * bih
    lo = q if q < p else p
    m = s if s < r else r
    iil = _next(m if m < lo else lo, -_INF)
    hi = q if q > p else p
    m = s if s > r else r
    iih = _next(m if m > hi else hi, _INF)
    # Re_a * Im_b
    p, q, r, s = arl * bil, arl * bih, arh * bil, arh * bih
    lo = q if q < p else p
    m = s if s < r else r
    ril = _next(m if m < lo else lo, -_INF)
    hi = q if q > p else p
    m = s if s > r else r
    rih = _next(m if m > hi else hi, _INF)
    # Im_a * Re_b
    p, q, r, s = ail * brl, ail * brh, aih * brl, aih * brh
    lo = q if q < p else p
    m = s if s < r else r
    irl = _next(m if m < lo else lo, -_INF)
    hi = q if q > p else p
    m = s if s > r else r
    irh = _next(m if m > hi else hi, _INF)
    return (_next(rrl - iih, -_INF), _next(rrh - iil, _INF),
            _next(ril + irl, -_INF), _next(rih + irh, _INF))


def cp_mul(a, z):
    """Rectangle a times the complex point z.

    Bit-identical to ``c_mul`` with z as a degenerate rectangle on either
    side: with equal endpoints, two of the four products of each real
    interval product repeat, and the min/max of the repeats is the first;
    swapping the sides swaps the addends of the imaginary part.
    """
    arl, arh, ail, aih = a
    zr = z.real
    zi = z.imag
    p, q = arl * zr, arh * zr
    rrl = _next(q if q < p else p, -_INF)
    rrh = _next(q if q > p else p, _INF)
    p, q = ail * zi, aih * zi
    iil = _next(q if q < p else p, -_INF)
    iih = _next(q if q > p else p, _INF)
    p, q = arl * zi, arh * zi
    ril = _next(q if q < p else p, -_INF)
    rih = _next(q if q > p else p, _INF)
    p, q = ail * zr, aih * zr
    irl = _next(q if q < p else p, -_INF)
    irh = _next(q if q > p else p, _INF)
    return (_next(rrl - iih, -_INF), _next(rrh - iil, _INF),
            _next(ril + irl, -_INF), _next(rih + irh, _INF))


def zero_times(a):
    """``c_mul(ZERO, a)``, bit for bit, without the products when every
    endpoint of a is finite."""
    if math.isfinite(a[0]) and math.isfinite(a[1]) and \
            math.isfinite(a[2]) and math.isfinite(a[3]):
        return _ZERO_TIMES_FINITE
    return c_mul(ZERO, a)


def c_den(b):
    # denominator interval Re_b*Re_b + Im_b*Im_b of complex division
    brl, brh, bil, bih = b
    s1l, s1h = r_mul(brl, brh, brl, brh)
    s2l, s2h = r_mul(bil, bih, bil, bih)
    return r_add(s1l, s1h, s2l, s2h)


def c_div(a, b):
    # caller guarantees 0 is not in the denominator interval
    arl, arh, ail, aih = a
    brl, brh, bil, bih = b
    dl, dh = c_den(b)
    n1l, n1h = r_mul(arl, arh, brl, brh)
    n2l, n2h = r_mul(ail, aih, bil, bih)
    rnl, rnh = r_add(n1l, n1h, n2l, n2h)
    n3l, n3h = r_mul(ail, aih, brl, brh)
    n4l, n4h = r_mul(arl, arh, bil, bih)
    inl, inh = r_sub(n3l, n3h, n4l, n4h)
    rl, rh = r_div(rnl, rnh, dl, dh)
    il, ih = r_div(inl, inh, dl, dh)
    return rl, rh, il, ih


def c_mag(a):
    # upper bound on |z| over the rectangle, rounded up at every step
    rl, rh, il, ih = a
    x, y = abs(rl), abs(rh)
    re = y if y > x else x
    x, y = abs(il), abs(ih)
    im = y if y > x else x
    s = _next(_next(re * re, _INF) + _next(im * im, _INF), _INF)
    return _next(math.sqrt(s), _INF)


# ---------------------------------------------------------------------------
# boxes (n, 4) and interval matrices (r, c, 4)
# ---------------------------------------------------------------------------

def box_add(a, b):
    return _rects([c_add(p, q) for p, q in zip(a.tolist(), b.tolist())],
                  a.shape)


def box_sub(a, b):
    return _rects([c_sub(p, q) for p, q in zip(a.tolist(), b.tolist())],
                  a.shape)


def box_norm_k(box):
    best = 0.0
    for row in box.tolist():
        v = c_mag(row)
        if v > best:
            best = v
    return best


def inorm_k(mat):
    # max row sum of entry magnitudes, rounded up
    best = 0.0
    for row in mat.tolist():
        s = 0.0
        for entry in row:
            s = _next(s + c_mag(entry), _INF)
        if s > best:
            best = s
    return best


def imatvec_k(mat, vec):
    # interval matrix times interval vector, row sums in column order
    vec = vec.tolist()
    out = []
    for row in mat.tolist():
        acc = ZERO
        for m, v in zip(row, vec):
            acc = c_add(acc, c_mul(m, v))
        out.append(acc)
    return _rects(out, (mat.shape[0], 4))


def pmatvec_k(y, vec):
    # complex point matrix times interval vector
    vec = vec.tolist()
    out = []
    for row in y.tolist():
        acc = ZERO
        for z, v in zip(row, vec):
            acc = c_add(acc, cp_mul(v, z))
        out.append(acc)
    return _rects(out, (len(out), 4))


def residual_k(y, mat):
    # identity minus (complex point matrix Y) * (interval matrix)
    n = y.shape[0]
    cols = list(zip(*mat.tolist()))
    out = []
    for i, row in enumerate(y.tolist()):
        for j in range(n):
            acc = ZERO
            for z, m in zip(row, cols[j]):
                acc = c_add(acc, cp_mul(m, z))
            out.append(c_sub(ONE if i == j else ZERO, acc))
    return _rects(out, (n, n, 4))


# ---------------------------------------------------------------------------
# homotopy preludes
# ---------------------------------------------------------------------------

def param_interval_k(p0, p1, tlo, thi):
    # (1 - T)*p0 + T*p1 entrywise for complex vectors p0, p1, T = [tlo, thi]
    ul, uh = r_sub(1.0, 1.0, tlo, thi)
    u = (ul, uh, 0.0, 0.0)
    t = (tlo, thi, 0.0, 0.0)
    return _rects([c_add(cp_mul(u, a), cp_mul(t, b))
                   for a, b in zip(p0.tolist(), p1.tolist())], (p0.shape[0], 4))


def shear_box_k(box, sa, sb, tlo, thi):
    # box + (a + T*b) entrywise, the interval image of a time-linear shift
    t = (tlo, thi, 0.0, 0.0)
    return _rects([c_add(p, c_add(cp_mul(t, b), a)) for p, a, b in
                   zip(box.tolist(), _points(sa), sb.tolist())], box.shape)


# ---------------------------------------------------------------------------
# polynomial evaluation over a systems._Flat term list
# ---------------------------------------------------------------------------

def eval_terms_interval(flat, z, pv):
    """Interval evaluation of a flattened term list.

    Equation i is the sum, in term order, of
      coef * pv[par] * prod_j z[j]^e_j
    over ``flat.terms[i]``, with the parameter factor skipped when
    par < 0.  ``coef`` is the term's coefficient times its exact
    small-integer multiplicity ``fac`` (from differentiation), a rectangle
    that ``systems._Flat`` forms once with interval semantics, so no
    rounding is silently dropped.  z is (n, 4), pv (m, 4).
    """
    zpow = []
    for zj in z.tolist():
        powers = [ONE]
        for _ in range(flat.max_expo):
            powers.append(c_mul(powers[-1], zj))
        zpow.append(powers)
    pv = pv.tolist()
    out = []
    for terms in flat.terms:
        acc = ZERO
        for v, par, factors, _ in terms:
            if par >= 0:
                v = c_mul(v, pv[par])
            for j, e in factors:
                v = c_mul(v, zpow[j][e])
            acc = c_add(acc, v)
        out.append(acc)
    return _rects(out, (len(out), 4))


def tpoly_linmul(w, factor):
    """The coefficient polynomial w[0..deg] times (A + B*tau).

    ``factor`` is (A, ZERO*A, B, mul_b): the new top slot is the zero slot
    above deg times A plus w[deg]*B, as the in-place form over a
    zero-padded slot array computes it, and ``mul_b`` multiplies by B
    (``cp_mul`` when B is a complex point).
    """
    a, top, b, mul_b = factor
    out = [c_mul(w[0], a)]
    for d in range(1, len(w)):
        out.append(c_add(c_mul(w[d], a), mul_b(w[d - 1], b)))
    out.append(c_add(top, mul_b(w[-1], b)))
    return out


def eval_terms_tpoly(flat, x, sa, sb, p0, p1, t_lo, t_hi):
    """Enclosure over t in [t_lo, t_hi] of a term list at a fixed point x.

    Every time-dependent factor is kept as a degree-1 polynomial in the
    local offset tau = t - tc, anchored at the window midpoint tc:
    variables enter as x_j + s_j(tc) + s'_j*tau, parameters as
    p(tc) + (p1 - p0)*tau.  Term products are convolved with interval
    coefficients and only then is the symmetric tau interval
    substituted, with odd/even powers bounded by their actual ranges.
    Cancellations between the shear slope and the parameter drift (and,
    at the midpoint, between the two refined window endpoints) happen
    in coefficient arithmetic instead of being lost to independent
    copies of the time interval.

    x, p0, p1 are complex vectors; the shear s(t) = sa + t*sb is given by
    complex vectors sa, sb, or both None when unsheared.
    """
    nd = flat.tdeg + 2
    tc = 0.5 * (t_lo + t_hi)
    if tc < t_lo:
        tc = t_lo
    elif tc > t_hi:
        tc = t_hi
    if sa is None:
        scale = x.tolist()
        lin = None
    else:
        lin = []
        for xj, a, b in zip(x.tolist(), sa.tolist(), sb.tolist()):
            rl, rh = r_mul(b.real, b.real, tc, tc)
            il, ih = r_mul(b.imag, b.imag, tc, tc)
            rl, rh = r_add(rl, rh, a.real, a.real)
            il, ih = r_add(il, ih, a.imag, a.imag)
            rl, rh = r_add(rl, rh, xj.real, xj.real)
            il, ih = r_add(il, ih, xj.imag, xj.imag)
            z0 = (rl, rh, il, ih)
            lin.append((z0, zero_times(z0), b, cp_mul))
    # parameter drift p1 - p0 as an interval (the float difference rounds)
    # and the path point p(tc) = p0 + tc*(p1 - p0)
    plin = []
    for a, b in zip(p0.tolist(), p1.tolist()):
        drl, drh = r_sub(b.real, b.real, a.real, a.real)
        dil, dih = r_sub(b.imag, b.imag, a.imag, a.imag)
        rl, rh = r_mul(drl, drh, tc, tc)
        il, ih = r_mul(dil, dih, tc, tc)
        rl, rh = r_add(rl, rh, a.real, a.real)
        il, ih = r_add(il, ih, a.imag, a.imag)
        q0 = (rl, rh, il, ih)
        plin.append((q0, zero_times(q0), (drl, drh, dil, dih), c_mul))
    # the symmetric tau interval [tau_lo, tau_hi] straddles 0: odd powers
    # are monotone, even powers have range [0, max-magnitude^d], each
    # magnitude power rounded up
    tau_lo, _ = r_sub(t_lo, t_lo, tc, tc)
    _, tau_hi = r_sub(t_hi, t_hi, tc, tc)
    taus = []
    pl = ph = 1.0
    for d in range(1, nd):
        pl = _next(pl * (-tau_lo), _INF)
        ph = _next(ph * tau_hi, _INF)
        if d % 2 == 1:
            taus.append((-pl, ph, 0.0, 0.0))
        else:
            taus.append((0.0, pl if pl > ph else ph, 0.0, 0.0))
    out = []
    for terms in flat.terms:
        acc = [ZERO] * nd
        for coef, par, factors, _ in terms:
            w = [coef]
            if par >= 0:
                w = tpoly_linmul(w, plin[par])
            for j, e in factors:
                for _ in range(e):
                    if lin is None:
                        w = [cp_mul(v, scale[j]) for v in w]
                    else:
                        w = tpoly_linmul(w, lin[j])
            for d, v in enumerate(w):
                acc[d] = c_add(acc[d], v)
        r = acc[0]
        for d in range(1, nd):
            r = c_add(r, c_mul(acc[d], taus[d - 1]))
        out.append(r)
    return _rects(out, (len(out), 4))


def eval_terms_point(flat, z, pv):
    """Complex point evaluation of a flattened term list.

    Python complex multiplies and adds exactly as numpy's complex128
    scalars do, so the result is bit for bit a complex128 evaluation in
    the same order.
    """
    zpow = []
    for zj in z.tolist():
        powers = [1.0 + 0.0j]
        for _ in range(flat.max_expo):
            powers.append(powers[-1] * zj)
        zpow.append(powers)
    pv = pv.tolist()
    out = []
    for terms in flat.terms:
        acc = 0.0 + 0.0j
        for _, par, factors, coef in terms:
            v = coef
            if par >= 0:
                v = v * pv[par]
            for j, e in factors:
                v = v * zpow[j][e]
            acc = acc + v
        out.append(acc)
    return np.array(out, dtype=np.complex128)


# ---------------------------------------------------------------------------
# dense complex linear algebra (LU with partial pivoting) on Python complex
#
# Python complex multiplies and subtracts as numpy's complex128 scalars do;
# its division and abs differ, so _cdiv and _cabs compute what numpy
# computes.  Every stored Y comes out of this LU.
# ---------------------------------------------------------------------------

def _over_zero(v):
    """v / +0.0 in IEEE arithmetic, where Python raises."""
    return math.copysign(_INF, v) if v == v and v != 0.0 else math.nan


def _cdiv(a, b):
    """a / b bit for bit as numpy's complex128 scalar division (Smith's
    method), with IEEE results where Python would raise."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    abs_br, abs_bi = abs(br), abs(bi)
    if abs_br >= abs_bi:
        if abs_br == 0.0:
            return complex(_over_zero(ar), _over_zero(ai))
        rat = bi / br
        scl = 1.0 / (br + bi * rat)
        return complex((ar + ai * rat) * scl, (ai - ar * rat) * scl)
    # bi is zero here only when br is NaN, and NaN / 0 is NaN
    rat = br / bi if bi else math.nan
    scl = 1.0 / (bi + br * rat)
    return complex((ar * rat + ai) * scl, (ai * rat - ar) * scl)


def _cabs(z):
    """abs(z) as numpy computes it: inf where Python raises on overflow."""
    try:
        return abs(z)
    except OverflowError:
        return _INF


def lu_factor_k(a):
    """Row-pivoted LU of a complex128 matrix, as lists of Python complex.

    Returns (lu, piv, ok); ok is False when a pivot falls below 1e-300.
    """
    n = a.shape[0]
    lu = a.tolist()
    piv = list(range(n))
    for k in range(n):
        pk = k
        pmax = _cabs(lu[k][k])
        for i in range(k + 1, n):
            v = _cabs(lu[i][k])
            if v > pmax:
                pmax = v
                pk = i
        if pmax < 1e-300:
            return lu, piv, False
        piv[k] = pk
        lu[k], lu[pk] = lu[pk], lu[k]
        row_k = lu[k]
        pivot = row_k[k]
        for i in range(k + 1, n):
            row = lu[i]
            f = row[k] = _cdiv(row[k], pivot)
            for j in range(k + 1, n):
                row[j] = row[j] - f * row_k[j]
    return lu, piv, True


def lu_apply_k(lu, piv, b):
    """Solve with the factors of ``lu_factor_k``; b is a list of complex."""
    n = len(lu)
    x = list(b)
    for k in range(n):
        pk = piv[k]
        x[k], x[pk] = x[pk], x[k]
    for i in range(n):
        row, v = lu[i], x[i]
        for j in range(i):
            v = v - row[j] * x[j]
        x[i] = v
    for i in range(n - 1, -1, -1):
        row, v = lu[i], x[i]
        for j in range(i + 1, n):
            v = v - row[j] * x[j]
        x[i] = _cdiv(v, row[i])
    return x


def lu_solve_k(a, b):
    lu, piv, ok = lu_factor_k(a)
    if not ok:
        return np.zeros_like(b), False
    return np.array(lu_apply_k(lu, piv, b.tolist()), dtype=np.complex128), True


def lu_inverse_k(a):
    n = a.shape[0]
    lu, piv, ok = lu_factor_k(a)
    if not ok:
        return np.zeros((n, n), np.complex128), False
    cols = [lu_apply_k(lu, piv, [1.0 + 0.0j if i == c else 0.0j
                                 for i in range(n)])
            for c in range(n)]
    return np.array(cols, dtype=np.complex128).T.copy(), True
