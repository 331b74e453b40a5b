"""Segment-batched interval kernels.

The tracker runs one Krawczyk test at a time on the scalar kernels of
``_kernels``.  The segments of a certificate are independent claims, so
``verify`` replays all of them as one batch with the array versions
here, the verifier's throughput layer, in the process that verifies the
certificate.  The tracker also forms its residual I - Y*J here, with a
segment axis of 1, once a system has ``ilinalg.WIDE_N`` unknowns or
more: there the n^3 products outweigh numpy's per-call cost.  A complex
interval array has shape (4, ...) with re_lo, re_hi, im_lo, im_hi along
the first axis; every other axis is a batch axis (segments, then
equations or matrix entries).  The polynomial twins ``eval_tpoly`` (the
time enclosure at a point, of H and of its Jacobian) and
``eval_deviation`` (how far the Jacobian moves over the box) batch over
segments only: they loop over a ``systems._Flat`` term list in Python,
term by term and factor by factor, as their scalar twins do, on one
factor table (``tpoly_table``).  ``shear_regions``, the region a sheared
segment certifies at a given time, serves the verifier's hand-off and
endpoint checks alone and has no scalar twin.

Each array twin performs, element by element, the same IEEE
operations in the same order as its scalar twin: the same term order,
the same k-order sums, ``nextafter`` where the twin rounds outward or up,
the real operations of CPython's complex ``*`` and ``+`` where it
computes in plain complex floats (``eval_tpoly``, the first order of
``eval_deviation``), and Python's ``min``/``max`` semantics for NaN (keep
the first operand unless the second compares below/above it).  A
replayed Krawczyk image and contraction norm are therefore bit-identical
to what ``krawczyk.parametric_krawczyk_test`` computes for the same
segment; ``tests/test_kernels.py`` checks the arithmetic twins on special
values.
"""

import numpy as np

from . import _kernels

_INF = np.inf
# the smallest subnormal, and the constant of ``_kernels._factor``
_TINY = _kernels._TINY
_EPS3 = _kernels._EPS3
_OUTWARD = np.array([-_INF, _INF, -_INF, _INF])

# products per slice of ``residual``; bounds its (2, 4, s, n, n, n)
# temporaries, which grow with n^3 where a batch's others grow with n^2
_PRODUCTS = 2 ** 14


# ---------------------------------------------------------------------------
# real and complex interval arithmetic over arrays
# ---------------------------------------------------------------------------

def _down(x):
    return np.nextafter(x, -_INF)


def _up(x):
    return np.nextafter(x, _INF)


def _min(a, b):
    # Python's min(a, b): keep a unless b < a, so NaNs behave the same
    return np.where(b < a, b, a)


def _max(a, b):
    return np.where(b > a, b, a)


def _outward(x):
    """Round the rows re_lo, re_hi, im_lo, im_hi of x (4, ...) outward."""
    return np.nextafter(x, _OUTWARD.reshape((4,) + (1,) * (x.ndim - 1)))


def r_sub(al, ah, bl, bh):
    return _down(al - bh), _up(ah - bl)


def r_mul(al, ah, bl, bh):
    p1 = al * bl
    p2 = al * bh
    p3 = ah * bl
    p4 = ah * bh
    return (_down(_min(_min(p1, p2), _min(p3, p4))),
            _up(_max(_max(p1, p2), _max(p3, p4))))


def c_add(a, b):
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[0::2] = _down(a[0::2] + b[0::2])
    out[1::2] = _up(a[1::2] + b[1::2])
    return out


def c_sub(a, b):
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[0::2] = _down(a[0::2] - b[1::2])
    out[1::2] = _up(a[1::2] - b[0::2])
    return out


def c_mul(a, b):
    # the four real products re*re, im*im, re*im, im*re as one r_mul
    pl, ph = r_mul(a[[0, 2, 0, 2]], a[[1, 3, 1, 3]],
                   b[[0, 2, 2, 0]], b[[1, 3, 3, 1]])
    out = np.empty(pl.shape)
    out[0] = _down(pl[0] - ph[1])
    out[1] = _up(ph[0] - pl[1])
    out[2] = _down(pl[2] + pl[3])
    out[3] = _up(ph[2] + ph[3])
    return out


def cp_mul(a, z):
    """cp_mul: rectangles a (4, ...) times the complex points z (...).

    Rows of ``lo``/``hi``: Re_a*Re_z, Im_a*Im_z, Re_a*Im_z, Im_a*Re_z.
    """
    prod = a * np.stack((z.real, z.imag))[:, None]      # (2, 4, ...)
    p = prod[[0, 1, 1, 0], [0, 2, 0, 2]]
    q = prod[[0, 1, 1, 0], [1, 3, 1, 3]]
    lo = _down(np.where(q < p, q, p))
    hi = _up(np.where(q > p, q, p))
    return _outward(np.stack((lo[0] - hi[1], hi[0] - lo[1],
                              lo[2] + lo[3], hi[2] + hi[3])))


def c_mag(a):
    re = _max(np.abs(a[0]), np.abs(a[1]))
    im = _max(np.abs(a[2]), np.abs(a[3]))
    s = _up(_up(re * re) + _up(im * im))
    return _up(np.sqrt(s))


def point(re, im):
    """Degenerate complex intervals at the points re + i*im."""
    return np.stack((re, re, im, im))


def real(lo, hi):
    """Complex intervals [lo, hi] + i[0, 0]."""
    lo, hi = np.broadcast_arrays(lo, hi)
    zero = np.zeros(lo.shape)
    return np.stack((lo, hi, zero, zero))


# ---------------------------------------------------------------------------
# matrix-vector layer: Y is (4, S, n, n), vectors are (4, S, n)
# ---------------------------------------------------------------------------

def matvec(mat, vec):
    """pmatvec_k / imatvec_k: row sums accumulated in column order."""
    acc = np.zeros(vec.shape[:2] + mat.shape[2:3])
    for j in range(mat.shape[3]):
        acc = c_add(acc, c_mul(mat[..., j], vec[..., j:j + 1]))
    return acc


def residual(y, mat):
    """residual_k: I - Y*M for complex Y (S, n, n) and M (4, S, n, n).

    All n^3 products Y[i, k] * M[k, j] of a slice of segments at once,
    then the k-sums in ascending k, each addition rounded outward.
    """
    n = y.shape[2]
    step = max(1, _PRODUCTS // n ** 3)
    acc = np.empty(mat.shape)
    for lo in range(0, y.shape[0], step):
        sl = slice(lo, lo + step)
        prod = cp_mul(mat[:, sl, None], y[sl, ..., None])   # (4, s, i, k, j)
        part = np.zeros(prod.shape[:3] + prod.shape[4:])
        for k in range(n):
            part = _outward(part + prod[:, :, :, k])
        acc[:, sl] = part
    eye = np.eye(n)
    return c_sub(real(eye, eye)[:, None], acc)


def inorm(mat):
    """inorm_k: largest row sum of entry magnitudes, rounded up."""
    mags = c_mag(mat)                       # (S, r, c)
    s = np.zeros(mags.shape[:2])
    for j in range(mags.shape[2]):
        s = _up(s + mags[..., j])
    best = np.zeros(mags.shape[0])
    for i in range(mags.shape[1]):
        best = np.where(s[:, i] > best, s[:, i], best)
    return best


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
    """Split a factor table by factor: column k of each array whose last
    axis runs over the ``count`` factors, copied to be contiguous; None
    and 0-d entries are shared by every factor."""
    return [tuple(v if np.ndim(v) == 0 else v[..., k].copy() for v in table)
            for k in range(count)]


def tpoly_table(x, sa, sb, p0, p1, t_lo, t_hi):
    """``_kernels.tpoly_table`` for each segment: x, sa, sb (S, n) complex
    (sa = sb = None when unsheared), t_lo and t_hi (S,).  Each factor is
    (Re A, Im A, Re B, Im B, h, h + eps, eps, a, v), arrays of (S,)."""
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
    if sa is None:
        var = (x.real, x.imag, None, None, xm, xm, 0.0, _up(xm), 0.0)
    else:
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
    table; returns (4, S, neq).  The scalar kernel's complex float
    products are written out as the real operations of CPython's complex
    ``*`` (``_cmul``), not left to numpy's complex loops."""
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
    # every moving factor (slot 0 takes w_0*A, slots 1..deg w_d*A +
    # w_(d-1)*B, slot deg + 1 w_deg*B) and by A for a variable that does
    # not move; each slot sums its terms in order
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
                if br is None:
                    w = [_cmul(*v, ar, ai) for v in w]
                    continue
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
    return out


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
    ib = np.moveaxis(box, -1, 0)
    ypt = point(y.real, y.imag)
    xpt = point(x.real, x.imag)
    table = tpoly_table(x, sa, sb, h.p0, h.p1, t_lo, t_hi)
    a = matvec(ypt, eval_tpoly(h.system._flat_f, table))
    flat = h.system._flat_jac
    er, ei = eval_deviation(flat, table, box_radii(ib, x))
    jac = c_add(eval_tpoly(flat, table), np.stack((-er, er, -ei, ei)))
    resid = residual(y, jac.reshape(4, S, n, n))
    b = matvec(resid, c_sub(ib, xpt))
    image = c_add(c_sub(xpt, a), b)
    return np.moveaxis(image, 0, -1), inorm(resid)


def krawczyk_images(h, x, y, box, t_lo, t_hi, sa=None, sb=None):
    """Krawczyk images and contraction norms of S stacked tests.

    Segment s tests the unsheared homotopy h, sheared by
    s(t) = sa[s] + t*sb[s] when ``sa`` is given, at the point x[s] with
    matrix y[s] over box[s] and time [t_lo[s], t_hi[s]].  Shapes: x, sa,
    sb (S, n) complex; y (S, n, n) complex; box (S, n, 4); t_lo, t_hi
    (S,).  Returns the images (S, n, 4) and the norms |I - Y*J| (S,), all
    S segments computed as one batch.
    """
    with np.errstate(all="ignore"):
        return _images_block(h, x, y, box, t_lo, t_hi, sa, sb)


def shear_regions(box, sa, sb, t):
    """Region box + s(t) of each sheared segment at its time t[s]: box
    (S, n, 4), sa and sb (S, n) complex, s(t) = sa + t*sb enclosed in
    outward-rounded interval arithmetic."""
    with np.errstate(all="ignore"):
        s = c_mul(real(t, t)[..., None], point(sb.real, sb.imag))
        s = c_add(s, point(sa.real, sa.imag))
        out = c_add(np.moveaxis(box, -1, 0), s)
    return np.moveaxis(out, 0, -1)
