"""Equal-occupancy binning of a conditioning scalar, with transform
interpolation between neighbouring bins.

Per-bin 1D transforms are combined at evaluation time: a conditional value
m between two bin centers gets the convex combination of the two bins'
transform OUTPUTS (and derivatives), which keeps the fitted conditional
density continuous in m.  Below the first center / above the last one the
edge bin applies unweighted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FitError, InputError
from .transforms import safeguarded_newton


@dataclass
class ConditionalBinning:
    """Bin edges (n_bins + 1) and centers (n_bins) over the conditional."""

    edges: np.ndarray
    centers: np.ndarray

    def __post_init__(self):
        self.edges = np.ascontiguousarray(self.edges, dtype=float)
        self.centers = np.ascontiguousarray(self.centers, dtype=float)
        if self.edges.ndim != 1 or self.edges.size < 3:
            raise ConfigError("need at least 2 bins (3 edges)")
        if self.centers.size != self.edges.size - 1:
            raise ConfigError("centers must have one entry per bin")
        if np.any(np.diff(self.edges) <= 0):
            raise InputError("bin edges must be strictly increasing")
        if np.any(self.centers <= self.edges[:-1]) or np.any(self.centers >= self.edges[1:]):
            raise InputError("bin centers must lie strictly inside their bins")

    @property
    def n_bins(self) -> int:
        return self.centers.size

    def assign(self, m):
        """Bin index for each conditional value (values clamped to range)."""
        m = np.asarray(m, dtype=float)
        return np.clip(np.searchsorted(self.edges, m, side="right") - 1, 0, self.n_bins - 1)

    def clamp(self, m):
        """Clamp conditionals to the trained range; returns (values, flag)."""
        m = np.asarray(m, dtype=float)
        clamped = np.clip(m, self.edges[0], self.edges[-1])
        return clamped, (m < self.edges[0]) | (m > self.edges[-1])

    def interp_weights(self, m):
        """Interpolation structure for conditionals: (lo, hi, t, clamped).

        The effective transform at m is (1 - t) * bin[lo] + t * bin[hi];
        t is exactly 0.0 at bin centers and outside the center range.
        """
        mc, clamped = self.clamp(m)
        c = self.centers
        lo = np.clip(np.searchsorted(c, mc, side="right") - 1, 0, self.n_bins - 1)
        hi = np.minimum(lo + 1, self.n_bins - 1)
        span = c[hi] - c[lo]
        safe = np.where(span > 0, span, 1.0)
        t = np.clip(np.where(span > 0, (mc - c[lo]) / safe, 0.0), 0.0, 1.0)
        return lo, hi, t, clamped


def build_binning(m_values, n_bins: int, min_occupancy: int = 2) -> ConditionalBinning:
    """Equal-occupancy bins over the conditional values.

    Interior edges sit midway between the order statistics that the cut
    separates, so training occupancies differ by at most one when the
    values are distinct.
    """
    m = np.asarray(m_values, dtype=float).ravel()
    if not np.all(np.isfinite(m)):
        raise InputError("conditional values must be finite")
    if n_bins < 2:
        raise ConfigError("n_bins must be at least 2")
    if m.size // n_bins < min_occupancy:
        raise FitError(f"{n_bins} bins over {m.size} samples leaves bins below "
                       f"the minimum occupancy of {min_occupancy}")
    if np.ptp(m) == 0.0:
        raise FitError("conditional values are all equal; cannot bin")

    s = np.sort(m)
    cuts = (np.arange(1, n_bins) * m.size) // n_bins
    interior = 0.5 * (s[cuts - 1] + s[cuts])
    # assign() puts a value equal to an edge in the upper bin, so an edge
    # must sit strictly above the last value of the bin below it.  The
    # midpoint of two adjacent floats can round down onto the lower one;
    # push such an edge up to the upper order statistic instead.
    interior = np.where(interior > s[cuts - 1], interior, s[cuts])
    edges = np.concatenate(([s[0]], interior, [s[-1]]))
    if np.any(np.diff(edges) <= 0):
        raise FitError("too many tied conditional values for the requested bin count")
    centers = 0.5 * (edges[:-1] + edges[1:])
    return ConditionalBinning(edges=edges, centers=centers)


# -- vectorized evaluation of a slice's per-bin transforms --------------------

class KnotTable:
    """The per-bin transforms of one slice, stacked for row-wise evaluation.

    Row b of knots_in / knots_out / slopes holds bin b's knot table,
    padded to a power-of-two width of at least the longest knot count
    (knot arrays with +inf, slopes with 0); n_knots, the end knots, tail
    slopes and derivative floors are kept per bin.  Built once per
    (layer, slice), so evaluating any mix of bins costs a fixed number of
    array operations.
    """

    def __init__(self, transforms):
        n_bins = len(transforms)
        self.n_knots = np.array([tr.knots_in.size for tr in transforms])
        # a power of two, so segment() needs no bounds check
        self.width = 1 << (int(self.n_knots.max()) - 1).bit_length()
        self.knots_in = np.full((n_bins, self.width), np.inf)
        self.knots_out = np.full((n_bins, self.width), np.inf)
        self.slopes = np.zeros((n_bins, self.width))
        for b, tr in enumerate(transforms):
            self.knots_in[b, :tr.knots_in.size] = tr.knots_in
            self.knots_out[b, :tr.knots_in.size] = tr.knots_out
            self.slopes[b, :tr.knots_in.size] = tr.slopes
        last = self.n_knots - 1
        rows = np.arange(n_bins)
        self.first_in = self.knots_in[:, 0].copy()
        self.last_in = self.knots_in[rows, last]
        self.first_out = self.knots_out[:, 0].copy()
        self.last_out = self.knots_out[rows, last]
        self.tail_lo = np.array([tr.tail_slopes[0] for tr in transforms], dtype=float)
        self.tail_hi = np.array([tr.tail_slopes[1] for tr in transforms], dtype=float)
        self.floor = np.array([tr.derivative_floor for tr in transforms], dtype=float)

    def segment(self, knots, bin_idx, v):
        """Flat index into knots (knots_in or knots_out, raveled) of the
        cubic segment holding v in each row's bin.

        Equals clip(searchsorted(row, v, "right") - 1, 0, n - 2) for v at
        or above the bin's first knot, found by log2(width) rounds of
        gather + compare over the padded rows.
        """
        base = bin_idx * self.width
        count = np.ones(bin_idx.shape, dtype=np.intp)  # knots <= v, first one known
        step = self.width // 2
        while step:
            count += step * (knots[base + count + (step - 1)] <= v)
            step //= 2
        return base + np.minimum(count, self.n_knots[bin_idx] - 1) - 1


def eval_binned(table: KnotTable, bin_idx, y):
    """Evaluate bin bin_idx[i]'s transform at y[i]; returns (psi, deriv).

    Row for row bit-identical to Marginal1DTransform.transform: the same
    Hermite, linear-tail and floor expressions in the same order.
    """
    x0 = table.first_in[bin_idx]
    xl = table.last_in[bin_idx]
    # tail rows are evaluated at the nearest end knot, then replaced below
    v = np.minimum(np.maximum(y, x0), xl)
    x, yk, d = table.knots_in.ravel(), table.knots_out.ravel(), table.slopes.ravel()
    i = table.segment(x, bin_idx, v)
    h = x[i + 1] - x[i]
    t = (v - x[i]) / h
    delta = (yk[i + 1] - yk[i]) / h
    d0 = d[i]
    d1 = d[i + 1]
    c2 = 3.0 * delta - 2.0 * d0 - d1
    c3 = d0 + d1 - 2.0 * delta
    psi = yk[i] + h * t * (d0 + t * (c2 + t * c3))
    deriv = d0 + t * (2.0 * c2 + 3.0 * t * c3)

    below = y < x0
    above = y > xl
    tail_lo = table.tail_lo[bin_idx]
    tail_hi = table.tail_hi[bin_idx]
    psi = np.where(below, table.first_out[bin_idx] + tail_lo * (y - x0), psi)
    psi = np.where(above, table.last_out[bin_idx] + tail_hi * (y - xl), psi)
    deriv = np.where(below, tail_lo, np.where(above, tail_hi, deriv))
    return psi, np.maximum(deriv, table.floor[bin_idx])


def invert_binned(table: KnotTable, bin_idx, z):
    """Invert bin bin_idx[i]'s transform at z[i]: exact on the tails,
    safeguarded Newton inside the bracketing knot segment."""
    y0 = table.first_out[bin_idx]
    yl = table.last_out[bin_idx]
    below = z < y0
    above = z > yl
    y = np.where(below, table.first_in[bin_idx] + (z - y0) / table.tail_lo[bin_idx],
                 table.last_in[bin_idx] + (z - yl) / table.tail_hi[bin_idx])
    inner = ~(below | above)
    if np.any(inner):
        b = bin_idx[inner]
        zi = z[inner]
        x, yk = table.knots_in.ravel(), table.knots_out.ravel()
        i = table.segment(yk, b, zi)
        # secant initial guess inside the bracketing segment
        v = x[i] + (zi - yk[i]) * (x[i + 1] - x[i]) / (yk[i + 1] - yk[i])
        y[inner] = safeguarded_newton(lambda rows, u: eval_binned(table, b[rows], u),
                                      zi, v, x[i], x[i + 1])
    return y


def interpolated_transform(table: KnotTable, lo, hi, t, y):
    """Forward map through the bin-interpolated transform, elementwise.

    Returns (psi, deriv); derivatives are already clamped per transform,
    and a convex combination keeps the clamp.
    """
    psi, deriv = eval_binned(table, lo, y)
    mixed = t > 0
    if np.any(mixed):
        psi_hi, d_hi = eval_binned(table, hi[mixed], y[mixed])
        tm = t[mixed]
        psi[mixed] = (1.0 - tm) * psi[mixed] + tm * psi_hi
        deriv[mixed] = (1.0 - tm) * deriv[mixed] + tm * d_hi
    return psi, deriv


def interpolated_inverse(table: KnotTable, lo, hi, t, z):
    """Invert the bin-interpolated transform elementwise.

    The root of (1-t)*T_lo(y) + t*T_hi(y) = z is bracketed by the two
    single-bin inverses, then polished with safeguarded Newton.
    """
    y = invert_binned(table, lo, z)
    mixed = t > 0
    if not np.any(mixed):
        return y

    zm = z[mixed]
    tm = t[mixed]
    lom = lo[mixed]
    him = hi[mixed]
    y_lo = y[mixed]
    y_hi = invert_binned(table, him, zm)
    v = (1.0 - tm) * y_lo + tm * y_hi
    y[mixed] = safeguarded_newton(
        lambda rows, u: interpolated_transform(table, lom[rows], him[rows], tm[rows], u),
        zm, v, np.minimum(y_lo, y_hi), np.maximum(y_lo, y_hi))
    return y

