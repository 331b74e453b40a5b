"""Scalar interval kernels over Python floats.

The tracker tests one small problem at a time, so these kernels are plain
Python, and Python lists are their one representation.  A complex
rectangle [re_lo, re_hi] + i*[im_lo, im_hi] is a 4-tuple of floats, a box
over C^n a list of n rectangles, a complex vector a list of Python
complex and a point matrix a list of rows of them.  In midpoint-radius
form a rectangle is a complex center and a pair of radii (r_re, r_im), and
a vector or a matrix keeps a list (of rows) of each.  Every kernel takes
and returns these lists; numpy arrays are made only at the public
boundary (``intervals``, ``ilinalg``, ``systems``) when a caller asks for
one.  Python floats are IEEE binary64 like numpy's, but their arithmetic
skips numpy's scalar dispatch and never warns on overflow.  The package
has no interval number type: these functions are its scalar interval
arithmetic.  Of the rectangle kernels, tracking calls ``r_sub`` alone;
``r_add``, ``r_mul``, ``c_add``, ``c_sub``, ``c_mul`` and the division
kernels ``r_div``, ``c_den`` and ``c_div`` are kept for the interval
soundness guarantee alone (see ``r_div``).

Three soundness conventions, all for IEEE-754 round-to-nearest with
gradual underflow:

- Per-operation outward rounding, for rectangles and boxes: each
  arithmetic result is widened outward by one ulp per endpoint
  (``math.nextafter`` toward the respective infinity) AFTER the
  rounded-to-nearest float computation.  Round to nearest never strays
  past the neighbouring representable, so the widened interval encloses
  the exact real result.  The same rounding up keeps every magnitude of
  ``eval_terms_deviation`` an upper bound, and it makes the Krawczyk
  image's rectangles (``image_k``) and the rectangles of a center and its
  radii (``rects_k``).
- An a priori rounding bound, for every enclosure of a term list (H or
  its Jacobian): a midpoint-radius enclosure (Rump, BIT 1999) about a
  point x.  ``eval_terms_tpoly`` encloses the term list at x over a time
  window: its operands are points, so it computes the polynomial's
  coefficients in plain complex floats and widens them by a bound on
  their accumulated rounding error (Higham, *Accuracy and Stability of
  Numerical Algorithms*, 2002, sections 3.1 and 3.6); only the
  substitution of the time range is outward-rounded per operation.  Over
  a box about x, ``eval_terms_deviation`` adds a bound on how far the
  term list moves.  Each docstring proves its bound, and the two share
  one factor table (``tpoly_table``).
- One a priori bound per dot product, for the operator's tail in
  midpoint-radius form: ``sub_pmul_k`` (I - Y*J and Y*H) computes each
  center in plain complex floats and each radius as a nonnegative sum in
  round-to-nearest, scaled once by a rounded-up 1 + gamma_k and raised by
  an underflow term, which together cover the center's rounding
  (gamma_k times the sum of the terms' magnitudes) and the radius sum's
  own; ``contract_k`` (the contraction term and the norm) bounds its
  nonnegative sums the same way.  No sum is rounded with ``nextafter``.

The endpoint min/max of a product keep Python's ``min``/``max`` semantics
(keep a unless b < a), which fixes where a NaN ends up.  ``_batch`` holds
the array twins of the kernels that tracking calls and performs the same
IEEE operations in the same order, so the two agree bit for bit.  The
polynomial kernels loop over the term lists of a ``systems._Flat``, and
their twins loop over the same lists with a segment axis on every value;
the tail's twins loop over the summation index with the other indices as
array axes.  The verifier replays with the twins.
"""

import functools
import math

_INF = math.inf
_next = math.nextafter

ZERO = (0.0, 0.0, 0.0, 0.0)
_ONE = 1.0 + 0.0j


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
    """[al, ah] / [bl, bh]; the caller guarantees 0 is not in [bl, bh].

    No step of tracking or verification divides intervals, or calls
    ``r_mul`` or a complex rectangle kernel.  They stay because acceptance
    criterion 1 (``tests/test_acceptance.py``) guarantees sound interval
    + - * /, and checks it on them.
    """
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


def c_den(b):
    """Denominator interval Re_b*Re_b + Im_b*Im_b of complex division; a
    caller of ``c_div`` checks that it excludes 0 (kept for division's
    guarantee, see ``r_div``)."""
    brl, brh, bil, bih = b
    s1l, s1h = r_mul(brl, brh, brl, brh)
    s2l, s2h = r_mul(bil, bih, bil, bih)
    return r_add(s1l, s1h, s2l, s2h)


def c_div(a, b):
    """a / b; the caller guarantees 0 is not in ``c_den(b)`` (kept for
    division's guarantee, see ``r_div``)."""
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


# ---------------------------------------------------------------------------
# midpoint-radius entries: the operator tail of a Krawczyk test
#
# An entry in midpoint-radius form is a complex center c and a pair of
# radii (r_re, r_im): the rectangle [Re c - r_re, Re c + r_re] +
# i[Im c - r_im, Im c + r_im], held by its center.  A vector is a list of
# centers and a list of radius pairs, a matrix the rows of both.  Products
# compute their centers in plain complex floats and bound each dot
# product's rounding once, a priori, instead of rounding every operation
# outward.
# ---------------------------------------------------------------------------

# unit roundoff of binary64 and the smallest subnormal, 2 * 2^-1075, where
# 2^-1075 bounds the absolute error of a product in the subnormal range
_U = 2.0 ** -53
_TINY = 5e-324


def _gamma(k):
    """gamma_k = k*u / (1 - k*u) rounded up; k*u and 1 - k*u are exact."""
    return _next(k * _U / (1.0 - k * _U), _INF)


def midrad_k(rects):
    """The rectangles of a list as (centers, radius pairs): center
    fl(0.5 * fl(lo + hi)) per part, which lies in [lo, hi], and radius the
    larger distance to an endpoint, rounded up unless it is 0 (a
    difference of floats is 0 only when they are equal)."""
    mids = []
    rads = []
    for rl, rh, il, ih in rects:
        cr = 0.5 * (rl + rh)
        ci = 0.5 * (il + ih)
        r = cr - rl
        q = rh - cr
        if q > r:
            r = q
        i = ci - il
        q = ih - ci
        if q > i:
            i = q
        mids.append(complex(cr, ci))
        rads.append((_next(r, _INF) if r else r, _next(i, _INF) if i else i))
    return mids, rads


def rects_k(mids, rads):
    """The rectangles of a list of centers and radius pairs, each endpoint
    rounded outward."""
    return [(_next(c.real - r, -_INF), _next(c.real + r, _INF),
             _next(c.imag - i, -_INF), _next(c.imag + i, _INF))
            for c, (r, i) in zip(mids, rads)]


@functools.lru_cache(maxsize=None)
def _dot_constants(n):
    """(g, f, e0, e1) of ``sub_pmul_k`` for n products per dot product."""
    g = _gamma(n + 2)
    e0 = (3 * n + 1) * 2.0 ** -1072
    return g, _next(1.0 + _gamma(n + 7), _INF), e0, _next(2.0 * g + e0, _INF)


def sub_pmul_k(y, mid, rad, eye):
    """E - Y*M in midpoint-radius form, for a point matrix Y (rows of
    complex) and an interval matrix M given by its columns: the j-th item
    of the iterable ``mid`` holds the centers of column j, and that of
    ``rad`` their radius pairs.  E is
    the identity when ``eye`` is true and 0 otherwise.  Returns the rows
    of the result's centers and the rows of its radius pairs.

    Entry (i, j) has the center z~ = fl(E_ij - sum_k y_ik c_kj), summed
    in ascending k in Python complex arithmetic, and radii (rho_re,
    rho_im) such that E_ij - sum_k y_ik m_kj differs from z~ by at most
    rho_re in its real part and rho_im in its imaginary part for every
    m_kj with |Re(m_kj - c_kj)| <= r_re,kj and |Im(m_kj - c_kj)| <=
    r_im,kj.

    The bound (Rump, BIT 39, 1999; Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002, sections 2.2, 3.1 and 3.6).  Let u =
    2^-53, gamma_k = k u / (1 - k u), |z|_1 = |Re z| + |Im z|, n the
    number of products per dot product, and fl(a op b) = (a op b)(1 + d)
    + e with |d| <= u, e = 0 for + and -, and |e| <= 2^-1075 for a
    product (gradual underflow).
    1. Propagation.  E - sum y m = (E - sum y c) - sum y (m - c), and
       |Re(y w)| <= |Re y| |Re w| + |Im y| |Im w|, |Im(y w)| <= |Re y|
       |Im w| + |Im y| |Re w|: the radii move as sum_k (|Re y_ik|
       r_re,kj + |Im y_ik| r_im,kj) in the real part and the mirror in
       the imaginary part.
    2. The center's rounding.  A part of y*c is a sum or difference of
       two rounded products, and the running value subtracts it, so each
       monomial of the exact center passes at most n + 2 roundings (E_ij
       at most n).  By Lemma 3.1 each part of z~ is off by at most g
       (E_ij + sum_k |y_ik|_1 |c_kj|_1), g = gamma_(n+2), plus the 2n
       products' e, each amplified by at most (1 + u)^(n+1) <= 2: n
       2^-1073 in all.
    3. So each radius may be any rho >= B + g E_ij + n 2^-1073, where B =
       sum_k (|Re y_ik| (r_re,kj + g |c_kj|_1) + |Im y_ik| (r_im,kj + g
       |c_kj|_1)) for the real part (the mirror for the imaginary part)
       covers 1 and the sum of 2, as |y|_1 = |Re y| + |Im y|.
    4. B in floats.  Per entry of M the kernel forms w = fl(|Re c| + |Im
       c|) and t = fl(fl(g w) + 2^-1074) >= g w (1 - u)^2, since fl(g w)
       >= g w (1 - u) - 2^-1075; then p = fl(r_re + t) and q = fl(r_im +
       t).  Per k it adds fl(fl(|Re y| p) + fl(|Im y| q)) to a running
       sum that starts at 0.  Every value is nonnegative, every monomial
       of B passes at most n + 5 roundings, and the 2n products' e add at
       least -n 2^-1073, so the sum s~ >= (1 - u)^(n+5) B - n 2^-1073;
       that is, B <= (1 + gamma_(n+5)) s~ + n 2^-1072.
    5. The radius is fl(fl(f s~) + e), with f = 1 + gamma_(n+7) rounded
       up, which is at least (1 + gamma_(n+5)) / (1 - u)^2, and e =
       (3n + 1) 2^-1072 off the diagonal of E and e + 2g, rounded up, on
       it, which covers ((3n 2^-1073 + g E_ij) / (1 - u) + 2^-1075): the
       radius is at least f s~ (1 - u)^2 + (e - 2^-1075)(1 - u), which is
       at least the bound of 3.
    Nothing is rounded with ``nextafter`` inside the sums.  An overflow or
    a NaN makes a center or a radius non-finite.
    """
    g, f, e0, e1 = _dot_constants(len(y[0]))
    cols = []
    for cc, rc in zip(mid, rad):
        ps = []
        qs = []
        for c, (r, i) in zip(cc, rc):
            t = g * (abs(c.real) + abs(c.imag)) + _TINY
            ps.append(r + t)
            qs.append(i + t)
        cols.append((cc, ps, qs))
    mids = []
    rads = []
    for i, row in enumerate(y):
        ar = [abs(z.real) for z in row]
        ai = [abs(z.imag) for z in row]
        mrow = []
        rrow = []
        for j, (cc, ps, qs) in enumerate(cols):
            diag = eye and i == j
            acc = _ONE if diag else 0j
            sr = si = 0.0
            for z, a, b, c, p, q in zip(row, ar, ai, cc, ps, qs):
                acc = acc - z * c
                sr = sr + (a * p + b * q)
                si = si + (a * q + b * p)
            e = e1 if diag else e0
            mrow.append(acc)
            rrow.append((f * sr + e, f * si + e))
        mids.append(mrow)
        rads.append(rrow)
    return mids, rads


@functools.lru_cache(maxsize=None)
def _contract_constants(n):
    """(f, e, e_norm) of ``contract_k`` for rows of n entries."""
    return (_next(1.0 + _gamma(n + 4), _INF), (n + 1) * 2.0 ** -1071,
            (n + 1) * 2.0 ** -535)


def contract_k(mid, rad, d):
    """M * v for an interval matrix M (rows of centers and of radius
    pairs) and a vector v centered at 0 with the radius pairs d, with the
    row-sum norm of M's entry magnitudes from the same magnitudes.
    Returns the product's radius pairs (its centers are 0) and the norm.

    With P = |Re c| + r_re and Q = |Im c| + r_im, every entry m of M has
    |Re m| <= P and |Im m| <= Q, so |Re(m v_j)| <= P d_re,j + Q d_im,j
    and |Im(m v_j)| <= P d_im,j + Q d_re,j: as the Krawczyk test's I - x
    lies in [-d, d] per part, its contraction term needs no complex
    interval product.  And |m| <= sqrt(P^2 + Q^2).
    The bound, in the model of ``sub_pmul_k``.  The kernel forms p =
    fl(|Re c| + r_re) >= P (1 - u), q likewise, and adds fl(fl(p d_re)
    + fl(q d_im)) to a running sum from 0 in ascending j: every monomial
    passes at most n + 2 roundings and the 2n products' e add at least
    -n 2^-1073, so the exact part is at most (1 + gamma_(n+2)) s~ + n
    2^-1072, and the radius fl(fl(f s~) + e) with f = 1 + gamma_(n+4)
    rounded up and e = (n + 1) 2^-1071 covers it (step 5 of
    ``sub_pmul_k``).  The norm: m~ = fl(sqrt(fl(fl(p p) + fl(q q))))
    bounds sqrt(P^2 + Q^2) <= m~ / (1 - u)^3 + 2^-537 / (1 - u)^2 (the
    two products' e add at most 2^-1074 under the root), and the row's
    running sum of its n values adds at most n - 1 roundings, so a row
    sums to at most (1 + gamma_(n+2)) s~ + n 2^-536; the norm is
    fl(fl(f s~_max) + e') with e' = (n + 1) 2^-535.  A row whose sum is
    NaN makes the norm NaN: a row replaces the largest so far when it
    compares above it or is NaN.
    """
    f, e, en = _contract_constants(len(d))
    out = []
    best = 0.0
    for crow, rrow in zip(mid, rad):
        sr = si = s = 0.0
        for c, (r, i), (dr, di) in zip(crow, rrow, d):
            p = abs(c.real) + r
            q = abs(c.imag) + i
            sr = sr + (p * dr + q * di)
            si = si + (p * di + q * dr)
            s = s + math.sqrt(p * p + q * q)
        out.append((f * sr + e, f * si + e))
        if s > best or s != s:
            best = s
    return out, f * best + en


def image_k(x, amid, arad, brad):
    """The Krawczyk image x - a + b as rectangles, for the point x, the
    vector a (centers and radius pairs) and the vector b centered at 0
    (radius pairs): each part is x - Re a (or Im) rounded down and up,
    widened by the two radii's sum rounded up, and rounded outward."""
    out = []
    for z, a, (ar, ai), (br, bi) in zip(x, amid, arad, brad):
        r = _next(ar + br, _INF)
        i = _next(ai + bi, _INF)
        dr = z.real - a.real
        di = z.imag - a.imag
        out.append((_next(_next(dr, -_INF) - r, -_INF),
                    _next(_next(dr, _INF) + r, _INF),
                    _next(_next(di, -_INF) - i, -_INF),
                    _next(_next(di, _INF) + i, _INF)))
    return out


# ---------------------------------------------------------------------------
# polynomial evaluation over a systems._Flat term list
# ---------------------------------------------------------------------------

def _below_one_minus(g):
    return _next(1.0 - g, -_INF)


# bounds gamma_3 g from the rounded g~ of the 5-rounding magnitude sum g
_EPS3 = _next(_gamma(3) / _below_one_minus(_gamma(5)), _INF)


def tpoly_bound(l1, deg):
    """The constants (G, H, kappa) of ``eval_terms_tpoly``'s rounding
    bound, rounded up, for one equation whose terms have coefficient
    bounds l1[k] and at most deg time-dependent factors."""
    n = len(l1)
    lam = _below_one_minus(_gamma(2 * deg + n + 3))
    c = 0.0
    for v in l1:
        c = _next(c + v, _INF)
    kappa = (_next(deg * (deg + 5) * c, _INF)
             + deg * (9 * deg + 29) * n)
    return (_next(_gamma(3 * deg + n) / lam, _INF), _next(1.0 / lam, _INF),
            _next(kappa, _INF))


def _factor(a, b, bm, g, tmax):
    """(A, B, h, h + eps, eps, |A|_1, v) of a factor A + B*tau that
    moves, where bm = |B|_1 and g bounds the magnitude of A's and B's
    exact monomials (see ``eval_terms_tpoly``); |A|_1 and v >= |B|_1 tmax
    + eps are rounded up (see ``eval_terms_deviation``)."""
    am = abs(a.real) + abs(a.imag)
    h = am + bm * tmax
    eps = _next(_next(_EPS3 * g, _INF) + 2 * _TINY, _INF)
    v = _next(_next(_next(bm, _INF) * tmax, _INF) + eps, _INF)
    return a, b, h, h + eps, eps, _next(am, _INF), v


def tpoly_table(x, sa, sb, p0, p1, t_lo, t_hi):
    """The time window and the factor table that ``eval_terms_tpoly`` and
    ``eval_terms_deviation`` share: (facs, tau_lo, tau_hi, tmax), where
    facs lists, variables then parameters, (A, B, h, h + eps, eps, a, v)
    per factor A + B*tau, and a >= |A|_1 and v >= |F(tau) - A|_1 on the
    window are rounded up."""
    tc = 0.5 * (t_lo + t_hi)
    if tc < t_lo:
        tc = t_lo
    elif tc > t_hi:
        tc = t_hi
    atc = abs(tc)
    tau_lo, _ = r_sub(t_lo, t_lo, tc, tc)
    _, tau_hi = r_sub(t_hi, t_hi, tc, tc)
    tmax = -tau_lo
    if tau_hi > tmax:
        tmax = tau_hi
    facs = []
    for xj, a, b in zip(x, sa, sb):
        mb = abs(b.real) + abs(b.imag)
        g = (((atc * mb + (abs(a.real) + abs(a.imag)))
              + (abs(xj.real) + abs(xj.imag))) + mb * tmax)
        facs.append(_factor(complex((tc * b.real + a.real) + xj.real,
                                    (tc * b.imag + a.imag) + xj.imag),
                            b, mb, g, tmax))
    for a, b in zip(p0, p1):
        br = b.real - a.real
        bi = b.imag - a.imag
        a0 = abs(a.real) + abs(a.imag)
        mb = a0 + (abs(b.real) + abs(b.imag))
        facs.append(_factor(complex(a.real + tc * br, a.imag + tc * bi),
                            complex(br, bi), abs(br) + abs(bi),
                            (a0 + atc * mb) + mb * tmax, tmax))
    return facs, tau_lo, tau_hi, tmax


def eval_terms_tpoly(flat, table):
    """Enclosure over t in [t_lo, t_hi] of a term list at a fixed point x,
    from the factor table ``tpoly_table(x, sa, sb, p0, p1, t_lo, t_hi)``.

    Every time-dependent factor is a degree-1 polynomial A + B*tau in the
    offset tau = t - tc from the window midpoint tc: variable j enters as
    (x_j + sa_j + tc*sb_j) + sb_j*tau, parameter k as
    (p0_k + tc*(p1_k - p0_k)) + (p1_k - p0_k)*tau.  Each term's product
    is convolved slot by slot, w_d*A + w_(d-1)*B, and the terms are summed
    in order, all in plain complex floats: the coefficients c~_d of
    equation i.  The enclosure is the interval value of sum_d c~_d tau^d
    over the tau range (odd powers are monotone, even powers lie in
    [0, max-magnitude^d], d up to the equation's degree), with the real
    and imaginary parts of c~_0 widened by rho_i; an equation without
    terms is exactly 0.  Cancellations between the shear slope and the
    parameter drift happen in the coefficients instead of being lost to
    independent copies of the time interval.  The rectangles are returned
    in midpoint-radius form (``midrad_k``), as the operator tail takes
    them.

    ``tpoly_table`` takes x, p0, p1 and the shear s(t) = sa + t*sb as
    lists of complex, sa and sb zero for an unsheared homotopy, and forms
    each factor's A~ and B~ (step 1 below).

    The bound rho_i.  Let u = 2^-53, gamma_k = k*u / (1 - k*u),
    |z|_1 = |Re z| + |Im z|, tmax = max(-tau_lo, tau_hi) >= |tau|, and
    for a tau-polynomial q, ||q|| = sum_d |q_d|_1 tmax^d, which is
    submultiplicative and bounds |Re q(tau)| and |Im q(tau)| on the
    window.  It suffices that ||c~ - c|| <= rho_i for the exact
    coefficients c of equation i: the tau substitution rounds outward.
    Model (Higham 2002, 2.2 and 3.1): fl(a op b) = (a op b)(1 + delta)
    + eta, |delta| <= u, and eta = 0 except for a product in the
    subnormal range, where |eta| <= 2^-1075.  A program of +, - and *
    then computes each monomial of its exact inputs times prod(1 + delta)
    over the k roundings on its path, and |prod(1 + delta) - 1| <=
    gamma_k (Lemma 3.1), plus monomials that contain an eta.  Equation
    i has n_i terms of at most e_i factors F = A + B*tau (stages) each.

    1. Rounded factors.  The kernel forms A~ and B~ once per factor: for
       a parameter B~ = fl(p1 - p0) and A~ = fl(p0 + fl(tc*B~)); for a
       variable B = sb and A~ = fl(fl(fl(tc*sb) + sa) + x), at most 3
       roundings per path and one product.  So ||F~ - F|| <= eps_f =
       gamma_3 g_f + 3*2^-1075, where g_f = m_A + m_B*tmax sums the exact
       monomials' magnitudes: m_A = |p0|_1 + |tc| (|p0|_1 + |p1|_1) and
       m_B = |p0|_1 + |p1|_1 for a parameter, m_A = |x|_1 + |sa|_1 + |tc|
       |sb|_1 and m_B = |sb|_1 for a variable.  A coefficient is exact
       when fac = 1; else coef~ = fl(coef*fac) is off by eps_c = u*l1,
       with l1 >= |coef*fac|_1 and >= |coef~|_1 held rounded up.  A
       variable's m's are large when sa and tc*sb nearly cancel; they
       enter once.
    2. Arithmetic on the rounded factors.  From coef~, A~ and B~ a path
       takes at most 3 roundings per stage (real product, the complex
       product's real sum, the slot sum) and n_i - 1 in the sum of
       terms: K_i = 3 e_i + n_i.  |a|_1 |b|_1 is the sum of the four
       |real products| of a complex product a*b, so a term's absolute
       monomials sum in ||.|| to at most l1 prod_f h_f, where h_f =
       ||F~_f|| = |A~|_1 + |B~|_1 tmax: to at most M_i in all.  A product
       adds at most 2^-1075, which later stages scale by h_f each; with
       Gamma >= max(1, tmax, h_f + eps_f + 2^-1075), the <= 8 products
       per slot in the s + 1 slots of stage s add, over all stages and
       terms, at most nu_i = 2^-1075 Gamma^e_i sum_k 4 e_i (e_i + 3).
       This part is at most gamma_K M_i + (1 + gamma_K) nu_i.
    3. The factors' rounding, in exact arithmetic.  The product is
       multilinear, so the rounding of step 1 moves a term by at most
       (l1 + eps_c) prod_f (h_f + eps_f) - l1 prod_f h_f, in ||.||; the
       kernel accumulates it stage by stage, D <- D (h_f + eps_f) +
       P eps_f and P <- P h_f, from D = eps_c and P = l1: at most D_i in
       all.
    4. M_i and D_i in floats.  The kernel's M~_i and D~_i come from
       nonnegative programs of at most L_i = 2 e_i + n_i + 3 roundings
       per path, whose eta parts are at most nu_M = 2^-1075 Gamma^e_i
       sum_k e_i (l1_k + 1) and nu_D = 2^-1075 Gamma^e_i sum_k e_i
       (e_i + 3) (l1_k + 1) / 2.  So M_i <= (M~_i + (1 + gamma_L) nu_M)
       / (1 - gamma_L), and D_i likewise.

    The factors gamma_K (1 + gamma_L) / (1 - gamma_L), (1 + gamma_L) /
    (1 - gamma_L) and 1 + gamma_K are at most 2, so rho_i = G_i M~_i +
    H_i D~_i + 2 (nu_i + nu_M + nu_D) suffices, with G_i >= gamma_K /
    (1 - gamma_L) and H_i >= 1 / (1 - gamma_L); that is G_i M~_i +
    H_i D~_i + 2^-1075 Gamma^e_i kappa_i, with kappa_i = e_i (e_i + 5)
    sum_k l1_k + e_i (9 e_i + 29) n_i.  ``tpoly_bound`` holds G_i, H_i
    and kappa_i per equation, rounded up.  The kernel takes
    fl(gamma_3 / (1 - gamma_5) * g~_f) + 4*2^-1075, rounded up, for eps_f
    (g~_f is g_f in 5 roundings and 2 products), and
    (2 max(1, tmax, h~_f + eps_f))^e_i for Gamma^e_i, which covers the
    roundings of h~_f and of the power.  It uses 2^-1074 for 2^-1075 to
    cover the rounding of Gamma^e_i kappa_i, and rounds every other step
    of rho_i up.  An overflow makes c~, M~, D~ or rho non-finite, and so
    the enclosure.
    """
    facs, tau_lo, tau_hi, tmax = table
    nd = flat.tdeg + 1
    gmax = 1.0
    if tmax > gmax:
        gmax = tmax
    for f in facs:
        if f[3] > gmax:
            gmax = f[3]
    big = 2.0 * gmax
    gpow = [1.0]
    for _ in range(flat.tdeg):
        gpow.append(gpow[-1] * big)
    # the symmetric tau interval [tau_lo, tau_hi] straddles 0: odd powers
    # are monotone, even powers have range [0, max-magnitude^d], each
    # magnitude power rounded up
    taus = [None]
    pl = ph = 1.0
    for d in range(1, nd):
        pl = _next(pl * (-tau_lo), _INF)
        ph = _next(ph * tau_hi, _INF)
        if d % 2 == 1:
            taus.append((-pl, ph))
        else:
            taus.append((0.0, pl if pl > ph else ph))
    out = []
    for g_rel, h_rel, kappa, deg, terms in flat.tpoly:
        if not terms:
            out.append(ZERO)
            continue
        acc = [0j] * (deg + 1)
        msum = dsum = 0.0
        for coef, l1, e1, fs in terms:
            w = [coef]
            mag = l1
            dev = e1
            for f in fs:
                a, b, h, he, e, _, _ = facs[f]
                dev = dev * he + mag * e
                mag = mag * h
                u = w[0]
                w1 = [u * a]
                for v in w[1:]:
                    w1.append(v * a + u * b)
                    u = v
                w1.append(u * b)
                w = w1
            msum = msum + mag
            dsum = dsum + dev
            for d, v in enumerate(w):
                acc[d] = acc[d] + v
        rho = _next(_next(_next(g_rel * msum, _INF)
                          + _next(h_rel * dsum, _INF), _INF)
                    + _next(gpow[deg] * kappa * _TINY, _INF), _INF)
        c = acc[0]
        rl = _next(c.real - rho, -_INF)
        rh = _next(c.real + rho, _INF)
        il = _next(c.imag - rho, -_INF)
        ih = _next(c.imag + rho, _INF)
        # add [tl, th] * c~_d, the products and the sums rounded outward
        for d in range(1, deg + 1):
            tl, th = taus[d]
            c = acc[d]
            p = tl * c.real
            q = th * c.real
            rl = _next(rl + _next(q if q < p else p, -_INF), -_INF)
            rh = _next(rh + _next(q if q > p else p, _INF), _INF)
            p = tl * c.imag
            q = th * c.imag
            il = _next(il + _next(q if q < p else p, -_INF), -_INF)
            ih = _next(ih + _next(q if q > p else p, _INF), _INF)
        out.append((rl, rh, il, ih))
    return midrad_k(out)


def box_radii(box, x):
    """Per entry (R, I) with |Re(z - x)| <= R and |Im(z - x)| <= I for
    every z of the rectangle, rounded up; x is a list of complex."""
    out = []
    for (rl, rh, il, ih), xj in zip(box, x):
        p = _next(xj.real - rl, _INF)
        q = _next(rh - xj.real, _INF)
        r = _next(xj.imag - il, _INF)
        s = _next(ih - xj.imag, _INF)
        out.append((q if q > p else p, s if s > r else r))
    return out


def eval_terms_deviation(flat, table, rad):
    """Bounds (E_re, E_im) per equation on how far a term list moves when
    its variables move by delta inside a box, over a time window.

    ``table`` is ``tpoly_table`` at the expansion point x, and ``rad``
    is ``box_radii`` of the box about x: delta_j = z_j - x_j has
    |Re delta_j| <= R_j and |Im delta_j| <= I_j.  With the factors
    F_f(tau) = A_f + B_f*tau of ``eval_terms_tpoly`` (delta_f = delta_j
    for an occurrence of variable j, 0 for a parameter), equation i moves
    by D_i = sum_k c_k [prod_f (F_f + delta_f) - prod_f F_f], and
    |Re D_i| <= E_re and |Im D_i| <= E_im for every tau of the window and
    every delta.  So the time enclosure of the term list at x, widened by
    [-E_re, E_re] + i[-E_im, E_im], encloses the term list over box x
    window.  Terms without a variable factor do not move and are not in
    ``flat.dev``.

    The split.  Write F_f = A~_f + G_f, with A~_f the table's float A
    (the factor at the window midpoint) and |G_f|_1 <= v_f on the window,
    and let a_f >= |A~_f|_1 and d_j >= |delta_j|_1 = R_j + I_j (the
    table's a and v; d_j rounded up, d = 0 for a parameter).  Expanding
    each factor as A~ + G + delta, D_i's term k is c_k times
      (1) sum_f delta_f prod_(g != f) A~_g, the first order at the
          midpoint, plus
      (2) every product that takes delta from at least one factor and is
          not a first-order one of (1): the window variation of the
          first order and the higher orders.
    By |zw|_1 <= |z|_1 |w|_1, (2) is at most the nonnegative polynomial
    X = prod(a + v + d) - prod(a + v) - sum_f d_f prod_(g != f) a_g.
    Stage by stage over the factors, with P = prod a, L = sum_f d_f
    prod_(g != f) a_g and U = prod(a + v + d) - P, a factor (a, v, d)
    maps X <- X (a + v) + L v + U d, U <- U (a + v + d) + P (v + d),
    L <- L a + P d, P <- P a: sums and products of nonnegative values,
    which the kernel rounds up one by one, with a + v, a + v + d and v + d
    rounded up once per factor (the first factor sets X = 0, U = v + d,
    L = d and P = a; the last needs no U or P).  |c_k|_1 <= l1_k bounds
    (2) by l1_k X.
    (1) is computed per distinct variable j of the term, as the complex
    float w~ = fl(coef~ * prod A~_g) over the factors but one occurrence
    of j, times its multiplicity m_j (exact, since every occurrence
    leaves the same factors): |Re(w delta_j)| <= |Re w| R_j + |Im w| I_j
    and |Im(w delta_j)| <= |Re w| I_j + |Im w| R_j, the componentwise
    part, summed rounded up.  Its error: coef~ is off c_k by e1_k (see
    ``eval_terms_tpoly``), and a chain of s complex products in the model
    fl(a op b) = (a op b)(1 + delta) + eta (``eval_terms_tpoly``) errs by
    at most gamma_2s |coef~|_1 prod a (Higham 2002, Lemma 3.1; two
    roundings per complex product) plus the propagated eta's, at most
    2 (1 + u) 2^-1074 sum_r ((1 + u)^2 max(1, a))^(s - r) <= 3 * 2^-1074
    s Gamma^(s-1), with Gamma = 2 max(1, a_f, d_j) over the table.  A
    term of e factors has s <= e - 1 and at most e occurrences, so its
    error in (1) is at most l1g_k L + 3 * 2^-1074 e (e - 1) Gamma^(e-1),
    with l1g_k >= gamma_2(e-1) l1_k + e1_k (``flat.dev``, rounded up).
    Per equation of n_i moving terms of at most e_i factors: E = the
    componentwise part + sum_k (l1_k X_k + l1g_k L_k) + 2^-1074 kappa_i
    Gamma^(e_i - 1), kappa_i = 3 n_i e_i (e_i - 1), every step rounded up
    (Gamma's power too).  Rounding up with ``nextafter`` after a
    rounded-to-nearest operation never falls below the exact result, in
    the subnormal range too.  An overflow or a NaN makes E non-finite.
    """
    facs = table[0]
    n = len(rad)
    vals = []
    gmax = 1.0
    for f, (a_pt, _, _, _, _, a, v) in enumerate(facs):
        he = _next(a + v, _INF)
        if f < n:
            re_r, im_r = rad[f]
            d = _next(re_r + im_r, _INF)
            vals.append((a_pt, a, v, he, d, _next(he + d, _INF),
                         _next(v + d, _INF)))
            if d > gmax:
                gmax = d
        else:
            vals.append((a_pt, a, v, he, 0.0, he, v))
        if a > gmax:
            gmax = a
    big = 2.0 * gmax
    out = []
    for kappa, deg, terms in flat.dev:
        if not terms:
            out.append((0.0, 0.0))
            continue
        sre = sim = rem = 0.0
        for coef, l1, l1g, fs, occ in terms:
            for j, mult, others in occ:
                w = coef
                for g in others:
                    w = w * vals[g][0]
                wr = abs(w.real)
                wi = abs(w.imag)
                if mult != 1.0:
                    wr = _next(wr * mult, _INF)
                    wi = _next(wi * mult, _INF)
                re_r, im_r = rad[j]
                sre = _next(sre + _next(_next(wr * re_r, _INF)
                                        + _next(wi * im_r, _INF), _INF), _INF)
                sim = _next(sim + _next(_next(wr * im_r, _INF)
                                        + _next(wi * re_r, _INF), _INF), _INF)
            _, p, v, _, d, _, vd = vals[fs[0]]
            x = 0.0
            u = vd
            lin = d
            last = len(fs) - 1
            for k in range(1, last + 1):
                _, a, v, he, d, hd, vd = vals[fs[k]]
                x = _next(_next(_next(x * he, _INF) + _next(lin * v, _INF),
                                _INF) + _next(u * d, _INF), _INF)
                lin = _next(_next(lin * a, _INF) + _next(p * d, _INF), _INF)
                if k < last:
                    u = _next(_next(u * hd, _INF) + _next(p * vd, _INF),
                              _INF)
                    p = _next(p * a, _INF)
            rem = _next(rem + _next(_next(l1 * x, _INF)
                                    + _next(l1g * lin, _INF), _INF), _INF)
        if kappa:
            gp = 1.0
            for _ in range(deg - 1):
                gp = _next(gp * big, _INF)
            rem = _next(rem + _next(_next(kappa * _TINY, _INF) * gp, _INF),
                        _INF)
        out.append((_next(sre + rem, _INF), _next(sim + rem, _INF)))
    return out


def eval_terms_point(flat, z, pv):
    """Complex point evaluation of a flattened term list.

    Python complex multiplies and adds exactly as numpy's complex128
    scalars do, so the result is bit for bit a complex128 evaluation in
    the same order.  z and pv are lists of complex, and so is the result.
    """
    zpow = []
    for zj in z:
        powers = [1.0 + 0.0j]
        for _ in range(flat.max_expo):
            powers.append(powers[-1] * zj)
        zpow.append(powers)
    out = []
    for terms in flat.terms:
        acc = 0.0 + 0.0j
        for par, factors, coef in terms:
            v = coef
            if par >= 0:
                v = v * pv[par]
            for j, e in factors:
                v = v * zpow[j][e]
            acc = acc + v
        out.append(acc)
    return out


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
    """Row-pivoted LU of a point matrix (a list of rows of complex), as
    new lists.

    Returns (lu, piv, ok); ok is False when a pivot falls below 1e-300.
    """
    n = len(a)
    lu = [list(row) for row in a]
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


def lu_inverse_k(lu, piv):
    """The rows of the inverse, from the factors of ``lu_factor_k``: its
    columns are the solutions for the unit vectors."""
    n = len(lu)
    cols = [lu_apply_k(lu, piv, [1.0 + 0.0j if i == c else 0.0j
                                 for i in range(n)])
            for c in range(n)]
    return [list(row) for row in zip(*cols)]
