"""Segment-batched interval kernels.

The tracker runs one Krawczyk test at a time on the scalar kernels of
``_kernels``.  The segments of a certificate are independent claims, so
``verify`` replays all of them as one batch with the array versions
here, the verifier's throughput layer, in the process that verifies the
certificate.  A complex interval array has shape (4, ...) with re_lo,
re_hi, im_lo, im_hi along the first axis, and an array in midpoint-radius
form the same shape with Re c, Im c, r_re, r_im; every other axis is a
batch axis (segments, then equations or matrix entries).  The polynomial
twins ``eval_tpoly`` (the time enclosure at a point, of H and of its
Jacobian) and ``eval_deviation`` (how far the Jacobian moves over the box)
batch over segments only: they loop over a ``systems._Flat`` term list in
Python, term by term and factor by factor, as their scalar twins do, on
one factor table (``tpoly_table``).  The tail's twins ``sub_pmul`` (I -
Y*J and Y*H), ``contract`` (the contraction term and the norm) and
``image`` loop over the summation index in ascending order, with the
segments and the other indices as array axes.  Every segment is
tested in one frame, a box about a point under a shear s(t) = sa + t*sb:
a tilted segment's shear comes from its anchors, and a rect segment's is
zero, so its factors carry a zero slope.  ``shear_regions``, the region
box + s(t) a segment certifies at a given time, serves the verifier's
hand-off and endpoint checks alone and has no scalar twin.

Each array twin performs, element by element, the same IEEE
operations in the same order as its scalar twin: the same term order,
the same k-order sums, ``nextafter`` where the twin rounds outward or up,
the real operations of CPython's complex ``*`` and ``+`` where it
computes in plain complex floats (``eval_tpoly``, the first order of
``eval_deviation``, the centers of ``sub_pmul``), and Python's
``min``/``max`` semantics for NaN (keep the first operand unless the
second compares below/above it).  A replayed Krawczyk image and
contraction norm are therefore bit-identical to what
``krawczyk.parametric_krawczyk_test`` computes for the same segment;
``tests/test_kernels.py`` checks the arithmetic twins on special values.
"""

import numpy as np

from . import _kernels

_INF = np.inf
# the smallest subnormal, and the constant of ``_kernels._factor``
_TINY = _kernels._TINY
_EPS3 = _kernels._EPS3


# ---------------------------------------------------------------------------
# outward rounding over arrays
# ---------------------------------------------------------------------------

def _down(x):
    return np.nextafter(x, -_INF)


def _up(x):
    return np.nextafter(x, _INF)


def _max(a, b):
    # Python's max(a, b): keep a unless b > a, so NaNs behave the same
    return np.where(b > a, b, a)


def r_sub(al, ah, bl, bh):
    return _down(al - bh), _up(ah - bl)


# ---------------------------------------------------------------------------
# midpoint-radius layer: an array (4, ...) holds Re c, Im c, r_re, r_im
# ---------------------------------------------------------------------------

def midrad(rect):
    """``_kernels.midrad_k``: rectangles (4, ...) as centers and radii."""
    cr = 0.5 * (rect[0] + rect[1])
    ci = 0.5 * (rect[2] + rect[3])
    r = _max(cr - rect[0], rect[1] - cr)
    i = _max(ci - rect[2], rect[3] - ci)
    return np.stack((cr, ci, np.where(r != 0, _up(r), r),
                     np.where(i != 0, _up(i), i)))


def sub_pmul(y, m, eye):
    """``_kernels.sub_pmul_k`` for each segment: E - Y*M for complex Y
    (S, n, n) and M (4, S, n, c) in midpoint-radius form, E the identity
    when ``eye`` (then c = n) and 0 otherwise.  The sums run in ascending
    k, one (n, c, S) step per k with the segments on the last axis, where
    numpy's loops run longest, and CPython's complex products written out
    as ``_cmul`` writes them."""
    n = y.shape[2]
    g, f, e0, e1 = _kernels._dot_constants(n)
    cr, ci, rr, ri = np.ascontiguousarray(np.moveaxis(m, 1, -1))  # (k, c, S)
    t = g * (np.abs(cr) + np.abs(ci)) + _TINY
    p = rr + t
    q = ri + t
    yr = np.ascontiguousarray(np.moveaxis(y.real, 0, -1))   # (i, k, S)
    yi = np.ascontiguousarray(np.moveaxis(y.imag, 0, -1))
    ar, ai = np.abs(yr), np.abs(yi)
    shape = (n,) + m.shape[3:] + (y.shape[0],)
    diag = np.eye(n, dtype=bool) if eye else np.zeros(shape[:2], dtype=bool)
    acc_r = np.where(diag, 1.0, 0.0)[..., None] + np.zeros(shape)
    acc_i = np.zeros(shape)
    sr = np.zeros(shape)
    si = np.zeros(shape)
    for k in range(n):
        zr, zi = yr[:, k, None], yi[:, k, None]
        a, b = ar[:, k, None], ai[:, k, None]
        vr, vi = _cmul(zr, zi, cr[k], ci[k])
        acc_r = acc_r - vr
        acc_i = acc_i - vi
        sr = sr + (a * p[k] + b * q[k])
        si = si + (a * q[k] + b * p[k])
    e = np.where(diag, e1, e0)[..., None]
    return np.moveaxis(np.stack((acc_r, acc_i, f * sr + e, f * si + e)),
                       -1, 1)


def contract(m, dr, di):
    """``_kernels.contract_k`` for each segment: M (4, S, n, n) in
    midpoint-radius form times the vectors centered at 0 with radii dr,
    di (S, n).  Returns the product's radii (2, S, n) and the norms
    (S,)."""
    cr, ci, rr, ri = m
    n = dr.shape[1]
    f, e, en = _kernels._contract_constants(n)
    sr = si = s = np.zeros(cr.shape[:2])
    for j in range(n):
        p = np.abs(cr[..., j]) + rr[..., j]
        q = np.abs(ci[..., j]) + ri[..., j]
        d_r, d_i = dr[:, j, None], di[:, j, None]
        sr = sr + (p * d_r + q * d_i)
        si = si + (p * d_i + q * d_r)
        s = s + np.sqrt(p * p + q * q)
    best = np.zeros(s.shape[0])
    for i in range(s.shape[1]):
        row = s[:, i]
        best = np.where((row > best) | np.isnan(row), row, best)
    return np.stack((f * sr + e, f * si + e)), f * best + en


def image(x, a, b):
    """``_kernels.image_k`` for each segment: x (S, n) complex, a (4, S, n)
    in midpoint-radius form and the radii b (2, S, n) of a vector centered
    at 0; returns the rectangles (4, S, n)."""
    r = _up(a[2] + b[0])
    i = _up(a[3] + b[1])
    dr = x.real - a[0]
    di = x.imag - a[1]
    return np.stack((_down(_down(dr) - r), _up(_up(dr) + r),
                     _down(_down(di) - i), _up(_up(di) + i)))


# ---------------------------------------------------------------------------
# polynomial evaluation: the time enclosure at a point and its deviation
# ---------------------------------------------------------------------------

def _cmul(ar, ai, br, bi):
    """(ar + i*ai) * (br + i*bi) as CPython's complex ``*`` computes it."""
    return ar * br - ai * bi, ar * bi + ai * br


def _factor(ar, ai, br, bi, bm, g, tmax):
    """``_kernels._factor`` on arrays: A, B, h, h + eps, eps, a, v."""
    am = np.abs(ar) + np.abs(ai)
    h = am + bm * tmax
    eps = _up(_up(_EPS3 * g) + 2 * _TINY)
    v = _up(_up(_up(bm) * tmax) + eps)
    return ar, ai, br, bi, h, h + eps, eps, _up(am), v


def _columns(table, count):
    """Split a factor table by factor: column k of each array, whose last
    axis runs over the ``count`` factors, copied to be contiguous."""
    return [tuple(v[..., k].copy() for v in table) for k in range(count)]


def tpoly_table(x, sa, sb, p0, p1, t_lo, t_hi):
    """``_kernels.tpoly_table`` for each segment: x, sa, sb (S, n) complex,
    t_lo and t_hi (S,).  Each factor is (Re A, Im A, Re B, Im B, h, h +
    eps, eps, a, v), arrays of (S,) (Re B and Im B of a parameter, shared
    by the segments, are 0-d)."""
    n = x.shape[1]
    m = p0.shape[0]
    tc = 0.5 * (t_lo + t_hi)
    tc = np.where(tc < t_lo, t_lo, np.where(tc > t_hi, t_hi, tc))
    tau_lo, _ = r_sub(t_lo, t_lo, tc, tc)
    _, tau_hi = r_sub(t_hi, t_hi, tc, tc)
    tmax = np.where(tau_hi > -tau_lo, tau_hi, -tau_lo)
    tcol = tc[:, None]
    atc = np.abs(tcol)
    tm = tmax[:, None]
    xm = np.abs(x.real) + np.abs(x.imag)
    mb = np.abs(sb.real) + np.abs(sb.imag)
    g = ((atc * mb + (np.abs(sa.real) + np.abs(sa.imag))) + xm) + mb * tm
    var = _factor((tcol * sb.real + sa.real) + x.real,
                  (tcol * sb.imag + sa.imag) + x.imag,
                  sb.real, sb.imag, mb, g, tm)
    br = p1.real - p0.real
    bi = p1.imag - p0.imag
    a0 = np.abs(p0.real) + np.abs(p0.imag)
    mb = a0 + (np.abs(p1.real) + np.abs(p1.imag))
    par = _factor(p0.real + tcol * br, p0.imag + tcol * bi, br, bi,
                  np.abs(br) + np.abs(bi), (a0 + atc * mb) + mb * tm, tm)
    return _columns(var, n) + _columns(par, m), tau_lo, tau_hi, tmax


def eval_tpoly(flat, table):
    """``_kernels.eval_terms_tpoly`` for each segment, on ``tpoly_table``'s
    table; returns (4, S, neq) in midpoint-radius form.  The scalar
    kernel's complex float products are written out as the real
    operations of CPython's complex ``*`` (``_cmul``), not left to numpy's
    complex loops."""
    facs, tau_lo, tau_hi, tmax = table
    S = tau_lo.shape[0]
    nd = flat.tdeg + 1
    gmax = np.where(tmax > 1.0, tmax, 1.0)
    for f in facs:
        gmax = np.where(f[5] > gmax, f[5], gmax)
    big = 2.0 * gmax
    gpow = [np.ones(S)]
    for _ in range(flat.tdeg):
        gpow.append(gpow[-1] * big)
    gpow = np.stack(gpow, axis=1)

    # each term multiplies its coefficient polynomial by A + B*tau for
    # every factor (slot 0 takes w_0*A, slots 1..deg w_d*A + w_(d-1)*B,
    # slot deg + 1 w_deg*B); each slot sums its terms in order
    zero = np.zeros(S)
    re, im, msums, dsums = [], [], [], []
    for *_, terms in flat.tpoly:
        acc = [(zero, zero)] * nd
        msum = dsum = zero
        for coef, l1, e1, fs in terms:
            w = [(coef.real, coef.imag)]
            mag = l1
            dev = e1
            for f in fs:
                ar, ai, br, bi, h, he, e, _, _ = facs[f]
                dev = dev * he + mag * e
                mag = mag * h
                u = w[0]
                w1 = [_cmul(*u, ar, ai)]
                for v in w[1:]:
                    pr, pi = _cmul(*v, ar, ai)
                    qr, qi = _cmul(*u, br, bi)
                    w1.append((pr + qr, pi + qi))
                    u = v
                w1.append(_cmul(*u, br, bi))
                w = w1
            msum = msum + mag
            dsum = dsum + dev
            for d, (vr, vi) in enumerate(w):
                acc[d] = (acc[d][0] + vr, acc[d][1] + vi)
        re.append([vr for vr, _ in acc])
        im.append([vi for _, vi in acc])
        msums.append(msum)
        dsums.append(dsum)
    # (S, neq, nd) coefficients and (S, neq) magnitude sums
    re = np.moveaxis(np.array(re), -1, 0)
    im = np.moveaxis(np.array(im), -1, 0)
    msum = np.stack(msums, axis=1)
    dsum = np.stack(dsums, axis=1)

    # the rounding bound rho of each equation widens its constant slot
    g_rel, h_rel, kappa, deg = np.array([eq[:4] for eq in flat.tpoly]).T
    rho = _up(_up(_up(g_rel * msum) + _up(h_rel * dsum))
              + _up(gpow[:, deg.astype(np.int64)] * kappa * _TINY))
    rl = _down(re[..., 0] - rho)
    rh = _up(re[..., 0] + rho)
    il = _down(im[..., 0] - rho)
    ih = _up(im[..., 0] + rho)

    # add [tl, th] * c_d for d up to each equation's degree: odd powers of
    # tau are monotone, even powers range over [0, max-magnitude^d]
    pl = np.ones(S)
    ph = np.ones(S)
    for d in range(1, nd):
        pl = _up(pl * (-tau_lo))
        ph = _up(ph * tau_hi)
        if d % 2 == 1:
            tl, th = -pl[:, None], ph[:, None]
        else:
            tl, th = zero[:, None], np.where(pl > ph, pl, ph)[:, None]
        keep = deg >= d
        cr, ci = re[..., d], im[..., d]
        p, q = tl * cr, th * cr
        rl = np.where(keep, _down(rl + _down(np.where(q < p, q, p))), rl)
        rh = np.where(keep, _up(rh + _up(np.where(q > p, q, p))), rh)
        p, q = tl * ci, th * ci
        il = np.where(keep, _down(il + _down(np.where(q < p, q, p))), il)
        ih = np.where(keep, _up(ih + _up(np.where(q > p, q, p))), ih)
    out = np.stack((rl, rh, il, ih))
    out[:, :, [not eq[4] for eq in flat.tpoly]] = 0.0
    return midrad(out)


def box_radii(box, x):
    """``_kernels.box_radii`` for each segment: box (4, S, n), x (S, n).
    Returns R and I, each (S, n)."""
    p = _up(x.real - box[0])
    q = _up(box[1] - x.real)
    r = _up(x.imag - box[2])
    s = _up(box[3] - x.imag)
    return np.where(q > p, q, p), np.where(s > r, s, r)


def eval_deviation(flat, table, rad):
    """``_kernels.eval_terms_deviation`` for each segment, on the tables
    of ``tpoly_table`` and ``box_radii``.  Returns E_re and E_im, each
    (S, neq); the complex float products of the first order are written
    out as CPython's (``_cmul``)."""
    facs = table[0]
    rr, ri = rad
    n = rr.shape[1]
    vals = []
    gmax = np.ones(rr.shape[0])
    for f, (ar, ai, _, _, _, _, _, a, v) in enumerate(facs):
        he = _up(a + v)
        if f < n:
            d = _up(rr[:, f] + ri[:, f])
            vals.append((ar, ai, a, v, he, d, _up(he + d), _up(v + d)))
            gmax = np.where(d > gmax, d, gmax)
        else:
            vals.append((ar, ai, a, v, he, 0.0, he, v))
        gmax = np.where(a > gmax, a, gmax)
    big = 2.0 * gmax
    zero = np.zeros(rr.shape[0])
    ers, eis = [], []
    for kappa, deg, terms in flat.dev:
        if not terms:
            ers.append(zero)
            eis.append(zero)
            continue
        sre = sim = rem = zero
        for coef, l1, l1g, fs, occ in terms:
            for j, mult, others in occ:
                wr, wi = coef.real, coef.imag
                for g in others:
                    wr, wi = _cmul(wr, wi, vals[g][0], vals[g][1])
                wr = np.abs(wr)
                wi = np.abs(wi)
                if mult != 1.0:
                    wr = _up(wr * mult)
                    wi = _up(wi * mult)
                re_r, im_r = rr[:, j], ri[:, j]
                sre = _up(sre + _up(_up(wr * re_r) + _up(wi * im_r)))
                sim = _up(sim + _up(_up(wr * im_r) + _up(wi * re_r)))
            _, _, p, v, _, d, _, vd = vals[fs[0]]
            x = 0.0
            u = vd
            lin = d
            last = len(fs) - 1
            for k in range(1, last + 1):
                _, _, a, v, he, d, hd, vd = vals[fs[k]]
                x = _up(_up(_up(x * he) + _up(lin * v)) + _up(u * d))
                lin = _up(_up(lin * a) + _up(p * d))
                if k < last:
                    u = _up(_up(u * hd) + _up(p * vd))
                    p = _up(p * a)
            rem = _up(rem + _up(_up(l1 * x) + _up(l1g * lin)))
        if kappa:
            gp = 1.0
            for _ in range(deg - 1):
                gp = _up(gp * big)
            rem = _up(rem + _up(_up(kappa * _TINY) * gp))
        ers.append(_up(sre + rem))
        eis.append(_up(sim + rem))
    return np.stack(ers, axis=1), np.stack(eis, axis=1)


# ---------------------------------------------------------------------------
# the Krawczyk operator
# ---------------------------------------------------------------------------

def _images_block(h, x, y, box, t_lo, t_hi, sa, sb):
    n = h.n
    S = x.shape[0]
    table = tpoly_table(x, sa, sb, h.p0, h.p1, t_lo, t_hi)
    dr, di = box_radii(np.moveaxis(box, -1, 0), x)
    flat = h.system._flat_jac
    er, ei = eval_deviation(flat, table, (dr, di))
    jac = eval_tpoly(flat, table)
    jac[2] = _up(jac[2] + er)
    jac[3] = _up(jac[3] + ei)
    resid = sub_pmul(y, jac.reshape(4, S, n, n), True)
    a = sub_pmul(y, eval_tpoly(h.system._flat_f, table)[..., None], False)
    a[:2] = -a[:2]
    b, norm = contract(resid, dr, di)
    return np.moveaxis(image(x, a[..., 0], b), 0, -1), norm


def krawczyk_images(h, x, y, box, t_lo, t_hi, sa, sb):
    """Krawczyk images and contraction norms of S stacked tests.

    Segment s tests the unsheared homotopy h, sheared by s(t) = sa[s] +
    t*sb[s] (zero for a rect segment), at the point x[s] with matrix y[s]
    over box[s] and time [t_lo[s], t_hi[s]].  Shapes: x, sa, sb (S, n)
    complex; y (S, n, n) complex; box (S, n, 4); t_lo, t_hi (S,).  Returns
    the images (S, n, 4) and the norms |I - Y*J| (S,), all S segments
    computed as one batch.
    """
    with np.errstate(all="ignore"):
        return _images_block(h, x, y, box, t_lo, t_hi, sa, sb)


def shear_regions(box, sa, sb, t):
    """Region box + s(t) of each segment at its time t[s]: box (S, n, 4),
    sa and sb (S, n) complex and s(t) = sa + t*sb.  Per part, t*sb is one
    real product, rounded outward, then sa and the box's endpoints are
    added, each sum rounded outward.  Where a part's sa and sb are both 0,
    box + 0 is exact and the box's endpoints stand: a rect segment's
    region is its box."""
    with np.errstate(all="ignore"):
        tc = t[:, None]
        b = np.moveaxis(box, -1, 0)
        out = []
        for k, (a, v) in enumerate(((sa.real, sb.real), (sa.imag, sb.imag))):
            p = tc * v
            exact = (a == 0) & (v == 0)
            lo, hi = b[2 * k], b[2 * k + 1]
            out.append(np.where(exact, lo, _down(lo + _down(_down(p) + a))))
            out.append(np.where(exact, hi, _up(hi + _up(_up(p) + a))))
    return np.stack(out, axis=-1)
