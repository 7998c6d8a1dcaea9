"""Monotone 1D Gaussianizing transforms and Wasserstein diagnostics.

A fitted marginal Gaussianizer is a pair of knot tables: input knots are
smoothed empirical quantiles at equispaced probability levels, output
knots the matching standard-normal quantiles.  Between knots the map is
monotone piecewise-cubic, outside them linear; conditional.KnotTable
derives its slopes (_checked_slopes) for a whole slice at once.

The normal quantiles come from the standard library's
statistics.NormalDist().inv_cdf, so the package runs on numpy alone;
scipy is the tests' oracle for the PCHIP slopes, and its ndtri agrees
with those quantiles to within a few ulps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import FitError, InputError

DEFAULT_KNOTS = 64
DEFAULT_DERIVATIVE_FLOOR = 1e-6

# indices along a knot (or interval) axis: the two ends, the entry next
# to each end, and the first knots and the last knots of the first and
# the last interval
_ENDS = np.array([0, -1])
_END_NEIGHBOURS = np.array([1, -2])
_END_INTERVALS = (np.array([0, -2]), np.array([1, -1]))

# Residual tolerance (z-space, relative) for the numeric inverse.
_INVERT_RTOL = 1e-12
_INVERT_MAX_ITER = 200


@dataclass
class Marginal1DTransform:
    """Strictly increasing map from data space to latent-normal space.

    knots_in / knots_out are strictly increasing and of equal length;
    slopes holds the interpolant derivative at each knot; tail_slopes
    are the linear extrapolation slopes below/above the knot range.
    Reported derivatives are clamped at derivative_floor so the log
    derivative stays finite.  Build transforms with from_knots, which
    checks the knots (_checked_slopes).  No package code builds one: a
    fitted flow keeps only the knots, and conditional.KnotTable derives
    the same slopes and tails from them.  The class is the tests'
    bit-for-bit reference for that table, and the benchmark harness
    patches its transform method and imports it.
    """

    knots_in: np.ndarray
    knots_out: np.ndarray
    tail_slopes: tuple[float, float]
    derivative_floor: float
    slopes: np.ndarray = field(repr=False)

    @classmethod
    def from_knots(cls, knots_in, knots_out, derivative_floor=DEFAULT_DERIVATIVE_FLOOR):
        """Build a transform from knot tables, deriving monotone slopes
        (_checked_slopes)."""
        x = np.array(knots_in, dtype=float)
        y = np.array(knots_out, dtype=float)
        if x.ndim != 1 or x.shape != y.shape:
            raise InputError("need matching 1D knot arrays with >= 2 knots")
        d, tails = _checked_slopes(x, y, derivative_floor)
        return cls(knots_in=x, knots_out=y, tail_slopes=tuple(tails.tolist()),
                   derivative_floor=float(derivative_floor), slopes=d)

    # -- evaluation ---------------------------------------------------------

    def transform(self, values):
        """Map values forward; returns (psi, derivative) with the derivative
        clamped at derivative_floor."""
        v = np.asarray(values, dtype=float)
        x, y, d = self.knots_in, self.knots_out, self.slopes
        psi = np.empty_like(v)
        deriv = np.empty_like(v)

        below = v < x[0]
        above = v > x[-1]
        inner = ~(below | above)

        if np.any(below):
            psi[below] = y[0] + self.tail_slopes[0] * (v[below] - x[0])
            deriv[below] = self.tail_slopes[0]
        if np.any(above):
            psi[above] = y[-1] + self.tail_slopes[1] * (v[above] - x[-1])
            deriv[above] = self.tail_slopes[1]
        if np.any(inner):
            vi = v[inner]
            j = np.clip(np.searchsorted(x, vi, side="right") - 1, 0, x.size - 2)
            h = x[j + 1] - x[j]
            t = (vi - x[j]) / h
            delta = (y[j + 1] - y[j]) / h
            d0 = d[j]
            d1 = d[j + 1]
            c2 = 3.0 * delta - 2.0 * d0 - d1
            c3 = d0 + d1 - 2.0 * delta
            psi[inner] = y[j] + h * t * (d0 + t * (c2 + t * c3))
            deriv[inner] = d0 + t * (2.0 * c2 + 3.0 * t * c3)

        deriv = np.maximum(deriv, self.derivative_floor)
        return psi, deriv


def safeguarded_newton(evaluate, z, v, lo, hi):
    """Solve evaluate(rows, v)[0] = z elementwise for an increasing map.

    evaluate(rows, v) returns (value, derivative) at v for the entries
    indexed by rows; each root starts at v inside its bracket [lo, hi].
    A Newton step that leaves the (shrinking) bracket, or that failed to
    halve |residual|, is replaced by bisection: a derivative clamped far
    above the true slope would otherwise make Newton creep.  Each entry
    stops once its residual is within a relative _INVERT_RTOL of z, all
    of them after _INVERT_MAX_ITER steps.
    """
    v = np.array(v, dtype=float)
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    tol = _INVERT_RTOL * np.maximum(1.0, np.abs(z))
    last = np.full(v.shape, np.inf)  # |residual| before the latest step
    rows = np.arange(v.size)
    for _ in range(_INVERT_MAX_ITER):
        u = v[rows]
        p, dp = evaluate(rows, u)
        f = p - z[rows]
        err = np.abs(f)
        todo = err > tol[rows]
        if not np.any(todo):
            break
        rows, u, f, dp, err = rows[todo], u[todo], f[todo], dp[todo], err[todo]
        hi[rows] = np.where(f > 0, np.minimum(hi[rows], u), hi[rows])
        lo[rows] = np.where(f < 0, np.maximum(lo[rows], u), lo[rows])
        step = u - f / dp
        newton = (step > lo[rows]) & (step < hi[rows]) & (err <= 0.5 * last[rows])
        last[rows] = err
        v[rows] = np.where(newton, step, 0.5 * (lo[rows] + hi[rows]))
    return v


def _checked_slopes(x, y, derivative_floor):
    """Knot slopes and (low, high) tail slopes of the knot tables x -> y,
    along the last axis, after checking the knots.

    Slopes come from monotone piecewise-cubic (Fritsch-Carlson)
    interpolation (_pchip_slopes), so each map is strictly increasing
    wherever its knots are.  Endpoint slopes of zero are raised slightly
    (within the monotonicity bound) so the tails stay invertible.  The
    rules are Python's max(a, b) and min(a, b), written as np.where so
    that signed zeros keep their bits.
    """
    if x.shape[-1] < 2:
        raise InputError("need matching 1D knot arrays with >= 2 knots")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise InputError("knots must be finite")
    if (x[..., 1:] <= x[..., :-1]).any() or (y[..., 1:] <= y[..., :-1]).any():
        raise InputError("knots must be strictly increasing")
    floor = float(derivative_floor)
    if not 0 < floor < math.inf:
        raise InputError("derivative_floor must be positive and finite")
    # a zero secant divides by zero in the harmonic mean and is then
    # discarded, as in scipy
    lo, hi = _END_INTERVALS
    with np.errstate(divide="ignore", invalid="ignore"):
        d = _pchip_slopes(x, y)
        # the first and the last interval's secant
        secants = ((y.take(hi, axis=-1) - y.take(lo, axis=-1))
                   / (x.take(hi, axis=-1) - x.take(lo, axis=-1)))
    low = 3.0 * secants
    low = np.where(low < floor, low, floor)
    ends = d.take(_ENDS, axis=-1)
    ends = np.where(low > ends, low, ends)
    d[..., 0] = ends[..., 0]
    d[..., -1] = ends[..., 1]
    tails = np.where(floor > ends, floor, ends)
    if not (tails > 0).all():
        raise InputError("tail slopes must be positive")
    return d, tails


def _edge_slope(h0, h1, m0, m1):
    """End slope from the end interval (width h0, secant m0) and its
    neighbour (h1, m1): the one-sided three-point estimate, set to 0 if
    its sign differs from m0's and capped at 3 * m0 if the secants change
    sign (scipy's PchipInterpolator._edge_case), elementwise."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    sign = np.sign(m0)
    cap = (sign != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    return np.where(np.sign(d) != sign, 0.0, np.where(cap, 3.0 * m0, d))


def _pchip_slopes(x, y):
    """Derivative at the knots of the monotone piecewise-cubic interpolant
    along the last axis, bit for bit equal to scipy's
    PchipInterpolator(x, y).derivative()(x) row by row.

    Interior slopes are the weighted harmonic mean of the two adjacent
    secants, 0 where these differ in sign or one is 0; the end slopes come
    from _edge_slope.  scipy evaluates the derivative at the last knot from
    the last interval's cubic, which rounds differently from the end slope
    it was built from, so the last slope is evaluated the same way: the
    interval's coefficients c0, c1, as in CubicHermiteSpline, summed as
    (d + 2 c1 h) + 3 c0 h^2 in PPoly's order.
    """
    h = x[..., 1:] - x[..., :-1]
    m = (y[..., 1:] - y[..., :-1]) / h
    d = np.empty_like(x)
    if x.shape[-1] == 2:
        d[..., 0] = d_end = m[..., 0]  # a straight line
    else:
        condition = ((np.sign(m[..., 1:]) != np.sign(m[..., :-1]))
                     | (m[..., 1:] == 0) | (m[..., :-1] == 0))
        w1 = 2 * h[..., 1:] + h[..., :-1]
        w2 = h[..., 1:] + 2 * h[..., :-1]
        whmean = (w1 / m[..., :-1] + w2 / m[..., 1:]) / (w1 + w2)
        d[..., 1:-1] = np.where(condition, 0.0, 1.0 / whmean)
        # both ends in one call: the end intervals and their neighbours
        ends = _edge_slope(h.take(_ENDS, axis=-1), h.take(_END_NEIGHBOURS, axis=-1),
                           m.take(_ENDS, axis=-1), m.take(_END_NEIGHBOURS, axis=-1))
        d[..., 0] = ends[..., 0]
        d_end = ends[..., 1]
    width, slope, d0 = h[..., -1], m[..., -1], d[..., -2]
    t = (d0 + d_end - 2 * slope) / width
    c0 = t / width
    c1 = (slope - d0) / width - t
    d[..., -1] = (d0 + (2 * c1) * width) + (3 * c0) * (width * width)
    # scipy sums each derivative from +0.0, so a zero slope is never -0.0
    # there: subnormal secants can overflow w / m and give 1 / -inf here
    d += 0.0
    return d


def _normal_levels(n: int):
    """Probability levels (j + 0.5) / n and their standard-normal
    quantiles: at n the sample size, the plotting quantiles of
    wasserstein_1d_to_gaussian."""
    # imported here, where fitting and the W1 API need it, so that score
    # and features runs do not load the statistics module
    from statistics import NormalDist

    p = (np.arange(n) + 0.5) / n
    return p, np.fromiter(map(NormalDist().inv_cdf, p.tolist()), float, n)


@lru_cache(maxsize=8)
def _knot_levels(n_knots: int):
    """_normal_levels of a knot count, read-only: the output knots of
    fit_marginal_transform.  Only knot counts are cached, never sample
    sizes, so the cache stays a few hundred doubles."""
    p, z = _normal_levels(n_knots)
    p.setflags(write=False)
    z.setflags(write=False)
    return p, z


def _linear_quantiles(s, p, sizes=None):
    """Quantiles of the ascending sample s at levels p in [0, 1]:
    np.quantile(s, p)'s default linear method, bit for bit, with the
    same arithmetic (virtual index (n - 1) p, and a lerp taken from the
    upper neighbour where its weight g is >= 0.5).  The one exception is
    the sign of a zero quantile in a sample holding both 0.0 and -0.0:
    np.quantile's partition may order the two differently from a sort.

    Given sizes, s is a 2-D block of ascending rows and row r's sample
    is its first sizes[r] entries; a (rows, levels) array of each row's
    quantiles, taken at its own size, comes back.
    """
    last = np.expand_dims(np.asarray(s.shape[-1] if sizes is None else sizes) - 1, -1)
    v = last * p
    below = np.floor(v)
    g = v - below
    i = below.astype(np.intp)
    a = np.take_along_axis(s, i, axis=-1)
    b = np.take_along_axis(s, np.minimum(i + 1, last), axis=-1)
    diff = b - a
    return np.where(g >= 0.5, b - diff * (1 - g), a + diff * g)


def fit_marginal_transform(samples, n_knots=DEFAULT_KNOTS, sizes=None):
    """Fit the marginal Gaussianizer of a scalar sample; returns its
    strictly increasing (knots_in, knots_out).

    Input knots are linear-interpolated empirical quantiles at levels
    (j + 0.5) / n_knots; output knots are the standard-normal quantiles
    at the same levels.  Duplicate quantiles (tied data) are merged,
    keeping the first of each run.

    Given sizes, samples is a 2-D block of samples, one per row: row r's
    sample is its first sizes[r] entries, and +inf pads it to the
    block's width.  One call sorts the rows, and a list of each row's
    (knots_in, knots_out) comes back, bit for bit the pair of that
    sample on its own (but for the sign of a zero knot, see
    _linear_quantiles).  A check that fails raises what it would raise
    on the first row that fails it.
    """
    one = sizes is None
    if one:
        s = np.sort(np.asarray(samples, dtype=float), axis=None)[None]
        sizes = np.array([s.shape[1]])
    else:
        s = np.sort(np.asarray(samples, dtype=float), axis=1)
        sizes = np.asarray(sizes)
    rows = np.arange(s.shape[0])
    # -inf sorts first, +inf, nan and the padding last
    if s.shape[1]:
        low, high = s[:, 0], s[rows, sizes - 1]
        if not ((np.isfinite(low) & np.isfinite(high)) | (sizes == 0)).all():
            raise InputError("samples must be finite")
    if n_knots < 2:
        raise InputError("n_knots must be at least 2")
    short = np.flatnonzero(sizes < 2 * n_knots)
    if short.size:
        raise FitError(f"need at least {2 * n_knots} samples for {n_knots} knots, "
                       f"got {sizes[short[0]]}")
    if (high - low == 0.0).any():
        raise FitError("samples have zero variance; marginal transform is degenerate")

    p, z = _knot_levels(n_knots)
    q = _linear_quantiles(s, p, sizes)
    # Merge knots closer than a relative epsilon, keeping the first of each
    # run: gaps that small are one atom of the distribution, and they would
    # otherwise blow up the interpolant slopes.
    min_gap = 1e-14 * np.maximum(np.ptp(q, axis=1), np.finfo(float).tiny)
    keep = np.ones(q.shape, dtype=bool)
    keep[:, 1:] = np.diff(q, axis=1) > min_gap[:, None]
    if (keep.sum(axis=1) < 2).any():
        raise FitError("fewer than 2 distinct quantile knots; samples are degenerate")
    pairs = [(row[kept], z[kept]) for row, kept in zip(q, keep)]
    return pairs[0] if one else pairs


def wasserstein_1d_to_gaussian(samples, axis=None, overwrite=False, quantiles=None):
    """Order-1 Wasserstein distance from a 1D sample to N(0, 1).

    Computed by quantile matching: mean |sorted sample - normal quantile|
    at plotting positions (j - 0.5) / n.  With axis None the samples are
    one flattened sample and a float comes back.  Given an axis, each
    1-D slice along it is a sample, and an array of their distances comes
    back from one sort call, one subtraction, one absolute value and one
    mean: bit for bit each slice's distance on its own, since numpy sums
    each contiguous row pairwise, as it sums a 1-D sample.
    The samples are copied first, unless overwrite is set, an axis is
    given and each sample along it is already a contiguous row of a
    writeable float64 array (a C-contiguous one taken along its last
    axis): then they are sorted and overwritten in place.
    quantiles, if given, are the plotting quantiles for the sample size,
    _normal_levels(n)[1]: a caller that scores many samples of one size
    computes them once.
    """
    s = np.asarray(samples, dtype=float)
    if axis is None:
        s = s.flatten()
    else:
        s = np.moveaxis(s, axis, -1)
        if not (overwrite and s.flags.c_contiguous and s.flags.writeable):
            # a copy with each sample a contiguous row
            s = s.copy(order="C")
    s.sort(axis=-1)
    if s.shape[-1] < 2:
        raise InputError("need at least 2 samples")
    # -inf sorts first, +inf and nan last
    if not (np.isfinite(s[..., 0]).all() and np.isfinite(s[..., -1]).all()):
        raise InputError("samples must be finite")
    # (j + 0.5) / n for j = 0 .. n - 1 are the same doubles as (j - 0.5) / n
    # for j = 1 .. n
    s -= _normal_levels(s.shape[-1])[1] if quantiles is None else quantiles
    w1 = np.abs(s, out=s).mean(axis=-1)
    return float(w1) if axis is None else w1
