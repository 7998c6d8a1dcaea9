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
from .transforms import _checked_slopes, safeguarded_newton


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
        if not (np.isfinite(self.edges).all() and np.isfinite(self.centers).all()):
            raise InputError("bin edges and centers must be finite")
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

    def outside(self, m):
        """Flag the conditionals outside the trained range [edges[0], edges[-1]]."""
        m = np.asarray(m, dtype=float)
        return (m < self.edges[0]) | (m > self.edges[-1])

    def interp_weights(self, m):
        """Interpolation structure for conditionals: (lo, hi, t).

        The effective transform at m is (1 - t) * bin[lo] + t * bin[hi];
        t is exactly 0.0 at bin centers and outside the center range.
        lo, hi and t are computed from np.clip(m, centers[0], centers[-1]),
        so t lies in [0, 1]; outside(m) flags values outside the trained range.
        """
        c = self.centers
        mc = np.clip(m, c[0], c[-1])
        lo = np.searchsorted(c, mc, side="right") - 1
        hi = np.minimum(lo + 1, self.n_bins - 1)
        span = c[hi] - c[lo]
        safe = np.where(span > 0, span, 1.0)
        t = np.where(span > 0, (mc - c[lo]) / safe, 0.0)
        return lo, hi, t


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

# a KnotTable cuts each bin's search row into this many buckets per slot
_BUCKETS_PER_SLOT = 4


def _bucket_entries(y, bins, scale, offset, buckets):
    """bins * buckets + u, u the bucket of y in its bin: trunc(clip(y *
    scale[bins] + offset[bins], 0, buckets - 1)), a monotone map of y.
    NaN (y NaN, or an infinite y times a zero scale) is in bucket 0, and
    a y far outside its bin overflows to an infinity that the clip takes."""
    u = scale.take(bins)
    with np.errstate(over="ignore", invalid="ignore"):
        u *= y
        u += offset.take(bins)
    np.fmax(u, 0.0, out=u)
    np.fmin(u, buckets - 1, out=u)
    entries = bins * buckets
    entries += u.astype(np.intp)
    return entries


class KnotTable:
    """The per-bin monotone maps of one slice as a table of cubic segments.

    Built from one (knots_in, knots_out) pair per bin and the model's
    derivative floor.  Slopes and tail slopes come from _checked_slopes,
    one stacked call per distinct knot count, so they are the doubles that
    Marginal1DTransform.from_knots derives from each pair.

    Bin b owns `stride` = (longest knot count + 1) consecutive slots.  With
    n knots, slot 0 is the low tail, slots 1 .. n-1 hold knot segments
    0 .. n-2 and slot n the high tail; any further slots repeat the high
    tail.  Each slot is a row of `segments`: anchor x, width h, value a,
    slope d0 and the Hermite coefficients c2, c3, computed once with
    Marginal1DTransform.transform's expressions.  A tail is a segment
    anchored at its end knot with h = 1, d0 = the tail slope and
    c2 = c3 = 0, so one cubic serves every slot.  Slots 1 .. n thus anchor
    and value at the knots themselves, which is where knots(b) reads them.

    `edges` holds each bin's search row: x_0 .. x_{n-2}, then
    nextafter(x_{n-1}, +inf), so that the last knot itself falls in the
    last segment, then NaN padding.  NaN <= y is false for every y, so the
    count of row entries <= y is one of the bin's own n + 1 slots, even
    for y = +inf.

    The count is taken in a window of the row.  Bin b's span from its
    first to its last edge is cut into `buckets` = 4 * stride equal
    buckets, and y lies in bucket u = trunc(clip(y * scale[b] + offset[b],
    0, buckets - 1)) (_bucket_entries).  That map is monotone in y and
    buckets the edges too, so every edge of an earlier bucket is <= y and
    every edge of a later one > y.  window[b * buckets + u] is where,
    counted from b's first slot, the `width` entries that hold bucket u's
    edges begin; width is the table's largest bucket occupancy.  A window that would run past b's
    row starts further left, over edges of earlier buckets, which count
    as <= y anyway.  A bin whose span gives no finite scale and offset has
    one bucket, a search of the whole row.  Built once per (layer, slice),
    so evaluating any mix of bins costs a fixed number of array
    operations.
    """

    def __init__(self, knots, floor):
        n_bins = len(knots)
        xs, ys = zip(*knots)
        self.n_knots = np.array([len(v) for v in xs])
        if self.n_knots.tolist() != [len(v) for v in ys]:
            raise InputError("need matching 1D knot arrays with >= 2 knots")
        self.stride = int(self.n_knots.max()) + 1
        self.floor = float(floor)
        # every bin's knots end to end; ends / starts index each bin's
        # last / first knot
        x = np.concatenate(xs, dtype=float)
        y = np.concatenate(ys, dtype=float)
        ends = np.cumsum(self.n_knots) - 1
        starts = ends + 1 - self.n_knots
        d = np.empty_like(x)
        tails = np.empty((n_bins, 2))
        for n in np.unique(self.n_knots).tolist():
            rows = np.flatnonzero(self.n_knots == n)
            at = starts[rows, None] + np.arange(n)
            d[at], tails[rows] = _checked_slopes(x[at], y[at], floor)
        # knot k of bin b is entry k of b's search row and starts the
        # segment in b's slot k + 1
        at = np.arange(x.size) + np.repeat(np.arange(n_bins) * self.stride - starts,
                                           self.n_knots)
        j = np.delete(np.arange(x.size), ends)  # the first knot of each segment
        h = x[j + 1] - x[j]
        delta = (y[j + 1] - y[j]) / h
        d0 = d[j]
        d1 = d[j + 1]
        c2 = 3.0 * delta - 2.0 * d0 - d1
        c3 = d0 + d1 - 2.0 * delta

        segments = np.zeros((n_bins, self.stride, 6))
        segments[:, :, 1] = 1.0  # the tails' h; their c2 and c3 stay 0
        for col, low, high in ((0, x[starts], x[ends]), (2, y[starts], y[ends]),
                               (3, tails[:, 0], tails[:, 1])):
            segments[:, :, col] = high[:, None]
            segments[:, 0, col] = low
        # one row per slot
        self.segments = segments.reshape(-1, 6)
        self.segments[at[j] + 1] = np.column_stack((x[j], h, y[j], d0, c2, c3))
        self.edges = np.full(n_bins * self.stride, np.nan)
        self.edges[at[j]] = x[j]
        self.edges[at[ends]] = np.nextafter(x[ends], np.inf)
        self._index_buckets(n_bins)

    def _index_buckets(self, n_bins):
        """scale, offset, window and width: the bucket index of the search
        rows (see the class docstring)."""
        stride = self.stride
        buckets = _BUCKETS_PER_SLOT * stride
        rows = self.edges.reshape(n_bins, stride)
        low, high = rows[:, 0], rows[np.arange(n_bins), self.n_knots - 1]
        with np.errstate(over="ignore", invalid="ignore"):
            self.scale = buckets / (high - low)
            self.offset = -(low * self.scale)
        one = ~(np.isfinite(self.scale) & np.isfinite(self.offset))
        self.scale[one] = 0.0
        self.offset[one] = 0.0
        entries = _bucket_entries(self.edges, np.arange(n_bins).repeat(stride),
                                  self.scale, self.offset, buckets)
        # the NaN padding is not an edge
        occupancy = np.bincount(entries[(np.arange(stride) < self.n_knots[:, None]).ravel()],
                                minlength=n_bins * buckets)
        self.width = int(occupancy.max())
        before = occupancy.reshape(n_bins, buckets).cumsum(axis=1).ravel() - occupancy
        self.window = np.minimum(before, stride - self.width).astype(
            np.min_scalar_type(stride - 1))

    def knots(self, b):
        """Bin b's (knots_in, knots_out), the doubles it was built from."""
        first = b * self.stride + 1
        return self.segments[first:first + self.n_knots[b], [0, 2]].T


def _count_le(row, start, width, v):
    """start[i] plus the count of row[start[i] : start[i] + width] that
    are <= v[i], for rows ascending (NaN counting as above all); it reads
    nothing outside that window."""
    p = start.copy()
    while width > 1:
        half = width // 2
        p += half * (row[half - 1:].take(p) <= v)  # row[p + half - 1] <= v
        width -= half
    p += row.take(p) <= v
    return p


def eval_binned(table: KnotTable, bins, y):
    """Evaluate bin bins[i]'s transform at y[i]; returns (psi, deriv).

    Row for row bit-identical to Marginal1DTransform.transform for finite
    y: the same Hermite expressions in the same order; on a tail
    h * t = t, and the cubic terms add a signed zero to a positive slope.
    An infinite y gives NaN (inf * 0 in the cubic terms).
    """
    y = np.ascontiguousarray(y, dtype=float)
    at = _bucket_entries(y, bins, table.scale, table.offset, _BUCKETS_PER_SLOT * table.stride)
    np.add(bins * table.stride, table.window.take(at), out=at)  # y's window's first slot
    # the gather through the transposed view gives contiguous columns, on
    # which the arithmetic runs twice as fast as on a row gather's strided ones
    x, h, a, d0, c2, c3 = table.segments.T.take(
        _count_le(table.edges, at, table.width, y), axis=1)
    # a + h * t * (d0 + t * (c2 + t * c3)) and d0 + t * (2 c2 + 3 t c3),
    # operation for operation, in place
    t = y - x
    t /= h
    psi = t * c3
    psi += c2
    psi *= t
    psi += d0
    ht = h * t
    psi *= ht
    psi += a
    deriv = np.multiply(t, 3.0)
    deriv *= c3
    deriv += np.multiply(c2, 2.0, out=ht)
    deriv *= t
    deriv += d0
    return psi, np.maximum(deriv, table.floor, out=deriv)


def _bracket(table: KnotTable, bin_idx, z):
    """Bracket (a, v, c) of bin bin_idx[i]'s inverse at z[i], Newton-free:
    on a tail the exact root, a = v = c; inside the knot range the
    bracketing segment [x_j, x_{j+1}] and the secant point v in it."""
    x, _, yk, d0, c2, c3 = table.segments.T
    base = bin_idx * table.stride
    last = base + table.n_knots[bin_idx]  # the high-tail slot
    # slots 1 .. n hold knot outputs y_0 .. y_{n-1} as their values, so one
    # less than the count of them <= z is the slot whose value is the last
    # y_j <= z: the low tail below y_0, the high tail from y_{n-1} up
    slot = np.minimum(_count_le(yk, base + 1, table.stride - 1, z) - 1, last)
    a = x[slot]
    # a cubic's secant slope is d0 + c2 + c3, a tail's is d0 (c2 = c3 = 0)
    v = a + (z - yk[slot]) / (d0[slot] + c2[slot] + c3[slot])
    tail = (slot == base) | (slot == last)
    return (np.where(tail, v, a), v,
            np.where(tail, v, x[np.minimum(slot + 1, last)]))


class InterpPlan:
    """The selections that evaluating a batch at interpolation weights
    (lo, hi, t) needs, made once per pass and shared by every (layer,
    slice) of it.

    order lists the batch's rows with the mixed ones (t > 0) first, each
    group in its original order.  A batch taken in that order blends its
    first t.size rows, so the blend is a slice.  bins, the argument the
    knot-table kernels take, holds every reordered row's lo bin and then
    each mixed row's hi bin; t and s = 1 - t are the mixed rows' weights.
    """

    def __init__(self, lo, hi, t):
        mixed = t > 0
        self.order = np.concatenate((np.flatnonzero(mixed), np.flatnonzero(~mixed)))
        first = self.order[:np.count_nonzero(mixed)]
        self.bins = np.concatenate((lo[self.order], hi[first]))
        self.t = t[first]
        self.s = 1.0 - self.t

    def blocks(self, parts):
        """The plan cut into `parts` consecutive row blocks, as (rows,
        bins, t, s): rows slices the planned rows, and bins, t and s are
        the block's own plan.  Mixed rows lead, so a block's t and s are
        slices of t and s, and its bins are its rows' lo bins, then its
        mixed rows' hi bins.  One block is the plan's own arrays."""
        n, k = self.order.size, self.t.size
        if parts == 1:
            return [(slice(0, n), self.bins, self.t, self.s)]
        cuts = [n * i // parts for i in range(parts + 1)]
        blocks = []
        for a, b in zip(cuts, cuts[1:]):
            mixed = slice(min(a, k), min(b, k))
            blocks.append((slice(a, b), np.concatenate((self.bins[a:b], self.bins[n:][mixed])),
                           self.t[mixed], self.s[mixed]))
        return blocks

    def restore(self, a):
        """The rows of a, taken in plan order, back in the batch's order."""
        out = np.empty_like(a)
        out[self.order] = a
        return out


def interpolated_transform(table: KnotTable, bins, t, s, y):
    """Forward map through the bin-interpolated transform of rows in an
    InterpPlan's order: bins = plan.bins, t = plan.t and s = plan.s.
    Returns (psi, deriv) in that order.

    Derivatives are already clamped per transform, and a convex
    combination keeps the clamp.  Both bins are evaluated in one
    eval_binned call: every row in its lo bin, then the mixed rows, which
    lead y, in their hi bin.
    """
    y = np.asarray(y, dtype=float)
    n, k = y.size, t.size
    psi, deriv = eval_binned(table, bins, np.concatenate((y, y[:k])))
    psi_hi, d_hi = psi[n:], deriv[n:]
    psi, deriv = psi[:n], deriv[:n]
    psi[:k] = s * psi[:k] + t * psi_hi
    deriv[:k] = s * deriv[:k] + t * d_hi
    return psi, deriv


def _interpolate_rows(table: KnotTable, lo, hi, t, y):
    """interpolated_transform at weights (lo, hi, t) for rows in any order:
    planned, evaluated in plan order and put back."""
    plan = InterpPlan(lo, hi, t)
    psi, deriv = interpolated_transform(table, plan.bins, plan.t, plan.s,
                                        np.asarray(y, dtype=float)[plan.order])
    return plan.restore(psi), plan.restore(deriv)


def interpolated_inverse(table: KnotTable, lo, hi, t, z):
    """Invert the bin-interpolated transform elementwise.

    The root of (1-t)*T_lo(y) + t*T_hi(y) = z lies between the two
    single-bin roots, so the union of their brackets holds it.  One
    safeguarded Newton solve on interpolated_transform finds it, starting
    from the t-blend of the two secant points; each step plans the rows
    it evaluates.
    """
    z = np.ascontiguousarray(z, dtype=float)  # every search round reads all of z
    a_lo, v_lo, c_lo = _bracket(table, lo, z)
    a_hi, v_hi, c_hi = _bracket(table, hi, z)
    return safeguarded_newton(
        lambda rows, u: _interpolate_rows(table, lo[rows], hi[rows], t[rows], u),
        z, (1.0 - t) * v_lo + t * v_hi, np.minimum(a_lo, a_hi), np.maximum(c_lo, c_hi))
