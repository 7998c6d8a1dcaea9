"""Monotone 1D Gaussianizing transforms and Wasserstein diagnostics.

A Marginal1DTransform maps samples of one scalar variable onto a standard
normal by monotone piecewise-cubic interpolation between quantile knots:
input knots are smoothed empirical quantiles at equispaced probability
levels, output knots are the matching standard-normal quantiles.  Outside
the knot range the map continues linearly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.stats import norm

from .errors import FitError, InputError

DEFAULT_KNOTS = 64
DEFAULT_DERIVATIVE_FLOOR = 1e-6

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
    derivative stays finite.
    """

    knots_in: np.ndarray
    knots_out: np.ndarray
    tail_slopes: tuple[float, float]
    derivative_floor: float
    slopes: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.knots_in = np.ascontiguousarray(self.knots_in, dtype=float)
        self.knots_out = np.ascontiguousarray(self.knots_out, dtype=float)
        self.slopes = np.ascontiguousarray(self.slopes, dtype=float)
        if self.knots_in.ndim != 1 or self.knots_in.shape != self.knots_out.shape:
            raise InputError("knots_in and knots_out must be 1D arrays of equal length")
        if self.knots_in.size < 2:
            raise InputError("need at least 2 knots")
        if not (np.all(np.isfinite(self.knots_in)) and np.all(np.isfinite(self.knots_out))):
            raise InputError("knots must be finite")
        if np.any(np.diff(self.knots_in) <= 0) or np.any(np.diff(self.knots_out) <= 0):
            raise InputError("knots must be strictly increasing")
        if not (self.derivative_floor > 0):
            raise InputError("derivative_floor must be positive")
        if not (self.tail_slopes[0] > 0 and self.tail_slopes[1] > 0):
            raise InputError("tail slopes must be positive")

    @classmethod
    def from_knots(cls, knots_in, knots_out, derivative_floor=DEFAULT_DERIVATIVE_FLOOR):
        """Build a transform from knot tables, deriving monotone slopes.

        Slopes come from monotone piecewise-cubic (Fritsch-Carlson)
        interpolation, so the map is strictly increasing wherever the
        knots are.  Endpoint slopes of zero are raised slightly (within
        the monotonicity bound) so the tails stay invertible.
        """
        x = np.ascontiguousarray(knots_in, dtype=float)
        y = np.ascontiguousarray(knots_out, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or x.size < 2:
            raise InputError("need matching 1D knot arrays with >= 2 knots")
        d = PchipInterpolator(x, y).derivative()(x)
        secant_lo = (y[1] - y[0]) / (x[1] - x[0])
        secant_hi = (y[-1] - y[-2]) / (x[-1] - x[-2])
        d[0] = max(d[0], min(derivative_floor, 3.0 * secant_lo))
        d[-1] = max(d[-1], min(derivative_floor, 3.0 * secant_hi))
        tails = (max(d[0], derivative_floor), max(d[-1], derivative_floor))
        return cls(
            knots_in=x,
            knots_out=y,
            tail_slopes=tails,
            derivative_floor=float(derivative_floor),
            slopes=d,
        )

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

    def inverse(self, values):
        """Map latent values back; exact on tails, safeguarded Newton on the
        cubic segments."""
        z = np.asarray(values, dtype=float)
        x, y = self.knots_in, self.knots_out
        out = np.empty_like(z)

        below = z < y[0]
        above = z > y[-1]
        inner = ~(below | above)

        if np.any(below):
            out[below] = x[0] + (z[below] - y[0]) / self.tail_slopes[0]
        if np.any(above):
            out[above] = x[-1] + (z[above] - y[-1]) / self.tail_slopes[1]
        if np.any(inner):
            zi = z[inner]
            j = np.clip(np.searchsorted(y, zi, side="right") - 1, 0, y.size - 2)
            # secant initial guess inside the bracketing segment
            v = x[j] + (zi - y[j]) * (x[j + 1] - x[j]) / (y[j + 1] - y[j])
            out[inner] = safeguarded_newton(self.transform, zi, v, x[j], x[j + 1])
        return out


def safeguarded_newton(evaluate, z, v, lo, hi):
    """Solve evaluate(v)[0] = z elementwise for an increasing map.

    evaluate returns (value, derivative); each root starts at v inside its
    bracket [lo, hi].  A Newton step that leaves the (shrinking) bracket
    is replaced by bisection.  Iterates until every residual is within
    a relative _INVERT_RTOL of z, or _INVERT_MAX_ITER steps.
    """
    tol = _INVERT_RTOL * np.maximum(1.0, np.abs(z))
    for _ in range(_INVERT_MAX_ITER):
        p, dp = evaluate(v)
        f = p - z
        if np.all(np.abs(f) <= tol):
            break
        hi = np.where(f > 0, np.minimum(hi, v), hi)
        lo = np.where(f < 0, np.maximum(lo, v), lo)
        step = v - f / dp
        mid = 0.5 * (lo + hi)
        v = np.where((step > lo) & (step < hi), step, mid)
    return v


def fit_marginal_transform(samples, n_knots=DEFAULT_KNOTS,
                           derivative_floor=DEFAULT_DERIVATIVE_FLOOR) -> Marginal1DTransform:
    """Fit the marginal Gaussianizer of a scalar sample.

    Input knots are linear-interpolated empirical quantiles at levels
    (j + 0.5) / n_knots; output knots are the standard-normal quantiles
    at the same levels.  Duplicate quantiles (tied data) are merged,
    keeping the first of each run.
    """
    s = np.asarray(samples, dtype=float).ravel()
    if not np.all(np.isfinite(s)):
        raise InputError("samples must be finite")
    if n_knots < 2:
        raise InputError("n_knots must be at least 2")
    if s.size < 2 * n_knots:
        raise FitError(f"need at least {2 * n_knots} samples for {n_knots} knots, got {s.size}")
    if np.ptp(s) == 0.0:
        raise FitError("samples have zero variance; marginal transform is degenerate")

    p = (np.arange(n_knots) + 0.5) / n_knots
    q = np.quantile(s, p)
    # Merge knots closer than a relative epsilon, keeping the first of each
    # run: gaps that small are one atom of the distribution, and they would
    # otherwise blow up the interpolant slopes.
    min_gap = 1e-14 * max(np.ptp(q), np.finfo(float).tiny)
    keep = np.concatenate(([True], np.diff(q) > min_gap))
    q = q[keep]
    p = p[keep]
    if q.size < 2:
        raise FitError("fewer than 2 distinct quantile knots; samples are degenerate")
    z = norm.ppf(p)
    return Marginal1DTransform.from_knots(q, z, derivative_floor=derivative_floor)


def apply_marginal(transform: Marginal1DTransform, y):
    """Forward-map y; returns (psi, log_derivative)."""
    psi, deriv = transform.transform(y)
    log_deriv = np.log(deriv)
    if np.isscalar(y) or np.ndim(y) == 0:
        return float(psi), float(log_deriv)
    return psi, log_deriv


def invert_marginal(transform: Marginal1DTransform, z):
    """Inverse-map z back to data space."""
    y = transform.inverse(z)
    if np.isscalar(z) or np.ndim(z) == 0:
        return float(y)
    return y


@lru_cache(maxsize=8)
def _gaussian_plotting_quantiles(n: int) -> np.ndarray:
    q = norm.ppf((np.arange(1, n + 1) - 0.5) / n)
    q.setflags(write=False)
    return q


def wasserstein_1d_to_gaussian(samples) -> float:
    """Order-1 Wasserstein distance from a 1D sample to N(0, 1).

    Computed by quantile matching: mean |sorted sample - normal quantile|
    at plotting positions (j - 0.5) / n.
    """
    s = np.asarray(samples, dtype=float).ravel()
    if s.size < 2:
        raise InputError("need at least 2 samples")
    if not np.all(np.isfinite(s)):
        raise InputError("samples must be finite")
    s = np.sort(s)
    return float(np.mean(np.abs(s - _gaussian_plotting_quantiles(s.size))))
