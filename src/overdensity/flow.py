"""Conditional Gaussianizing flow built from iterative orthogonal slices.

Each layer picks an orthonormal set of directions W (d x K, columns
orthonormal), Gaussianizes the data marginals along those directions with
per-conditional-bin 1D transforms, and updates

    X <- X - W W^T X + W Psi(W^T X)

leaving the orthogonal complement of span(W) untouched.  The same W is
shared by all conditional bins; only the 1D transforms depend on the bin.
Because the update acts componentwise in the W basis, each layer adds
exactly K marginal log-derivative terms to the log-Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .conditional import (ConditionalBinning, KnotTable, build_binning,
                          interpolated_inverse, interpolated_transform)
from .errors import ConfigError, FitError, InputError
from .transforms import (DEFAULT_DERIVATIVE_FLOOR, DEFAULT_KNOTS,
                         fit_marginal_transform, wasserstein_1d_to_gaussian)

MODEL_FORMAT_HEADER = "GISFLOW v1"

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class FitConfig:
    """Hyperparameters for fitting the flow.

    n_slices defaults to min(dim, 4) when left as None.  Defaults suit a
    mid-size fit (1e5-ish rows, ~5 features); small 1D problems want far
    fewer iterations and bins.
    """

    n_iterations: int = 100
    n_slices: int | None = None
    n_conditional_bins: int = 20
    n_knots: int = DEFAULT_KNOTS
    n_candidates: int = 64
    derivative_floor: float = DEFAULT_DERIVATIVE_FLOOR
    rng_seed: int = 0

    def resolve_slices(self, dim: int) -> int:
        k = min(dim, 4) if self.n_slices is None else self.n_slices
        if k < 1 or k > dim:
            raise ConfigError(f"n_slices must be in [1, {dim}], got {k}")
        return k

    def validate(self, dim: int) -> None:
        if self.n_iterations < 0:
            raise ConfigError("n_iterations must be non-negative")
        if self.n_conditional_bins < 2:
            raise ConfigError("n_conditional_bins must be at least 2")
        if self.n_knots < 8:
            raise ConfigError("n_knots must be at least 8")
        if self.n_candidates < 1:
            raise ConfigError("n_candidates must be positive")
        if not self.derivative_floor > 0:
            raise ConfigError("derivative_floor must be positive")
        self.resolve_slices(dim)


@dataclass
class GisLayer:
    """One slicing step: orthonormal directions plus per-bin 1D maps.

    tables[k] holds the maps that Gaussianize slice k, one per conditional
    bin.
    """

    weights: np.ndarray
    tables: list


def _apply_layer(layer: GisLayer, Z, lo, hi, t, log_det=None):
    """Apply one layer to the rows of Z at interpolation weights (lo, hi, t).

    Returns (Z', P), P being the transformed slice coordinates.  Each
    slice's log-derivative is added into log_det, if given, in slice order.
    interpolated_transform is looked up in this module on every call, which
    is where perfbench's tracer patches it.
    """
    W = layer.weights
    Y = Z @ W
    P = np.empty_like(Y)
    for k in range(W.shape[1]):
        P[:, k], deriv = interpolated_transform(layer.tables[k], lo, hi, t, Y[:, k])
        if log_det is not None:
            log_det += np.log(deriv)
    return Z + (P - Y) @ W.T, P


@dataclass
class FlowModel:
    """Fitted conditional flow: standardization, binning, layers."""

    dim: int
    shift: np.ndarray
    scale: np.ndarray
    binning: ConditionalBinning
    layers: list
    derivative_floor: float = DEFAULT_DERIVATIVE_FLOOR
    fit_progress: list = field(default_factory=list, repr=False)

    # -- helpers ------------------------------------------------------------

    def _as_batch(self, x, m):
        X = np.asarray(x, dtype=float)
        single = X.ndim == 1
        X = np.atleast_2d(X)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise InputError(f"expected feature vectors of dimension {self.dim}")
        mv = np.asarray(m, dtype=float)
        if mv.ndim == 0:
            mv = np.full(X.shape[0], float(mv))
        if mv.shape != (X.shape[0],):
            raise InputError("conditional values must match the number of rows")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(mv))):
            raise InputError("features and conditionals must be finite")
        return X, mv, single

    def conditional_clamped(self, m):
        """True where m falls outside the trained conditional range."""
        _, flag = self.binning.clamp(np.asarray(m, dtype=float))
        return flag

    # -- core maps ----------------------------------------------------------

    def forward(self, x, m):
        """Map data to latent space; returns (z, log_det)."""
        X, mv, single = self._as_batch(x, m)
        Z = (X - self.shift) / self.scale
        log_det = np.full(Z.shape[0], -float(np.sum(np.log(self.scale))))
        lo, hi, t, _ = self.binning.interp_weights(mv)
        for layer in self.layers:
            Z, _ = _apply_layer(layer, Z, lo, hi, t, log_det)
        if single:
            return Z[0], float(log_det[0])
        return Z, log_det

    def inverse(self, z, m):
        """Map latent vectors back to data space."""
        Z, mv, single = self._as_batch(z, m)
        X = Z.copy()
        lo, hi, t, _ = self.binning.interp_weights(mv)
        for layer in reversed(self.layers):
            W = layer.weights
            Y_out = X @ W
            Y_in = np.empty_like(Y_out)
            for k in range(W.shape[1]):
                Y_in[:, k] = interpolated_inverse(layer.tables[k], lo, hi, t, Y_out[:, k])
            X = X + (Y_in - Y_out) @ W.T
        X = X * self.scale + self.shift
        if single:
            return X[0]
        return X

    def log_density(self, x, m):
        """Conditional log density log p(x | m).

        Standard-normal base density of the latent point plus the
        accumulated log-Jacobian.  Conditionals outside the trained range
        are evaluated at the clamped edge.
        """
        Z, log_det = self.forward(x, m)  # which checks x and m
        logp = -0.5 * np.sum(Z * Z, axis=-1) - 0.5 * self.dim * _LOG_2PI + log_det
        if Z.ndim == 1:  # a single point
            return float(logp)
        return logp


# -- slice selection ----------------------------------------------------------


def _axis_candidate(X, k):
    """Orthonormal candidate made of the k most non-Gaussian coordinate axes."""
    scores = np.array([wasserstein_1d_to_gaussian(X[:, a]) for a in range(X.shape[1])])
    order = np.argsort(-scores, kind="stable")[:k]
    W = np.zeros((X.shape[1], k))
    W[order, np.arange(k)] = 1.0
    return W


def _random_orthonormal(rng, d, k):
    G = rng.standard_normal((d, k))
    Q, R = np.linalg.qr(G)
    sign = np.sign(np.diag(R))
    sign[sign == 0] = 1.0
    return Q * sign


def _candidate_score(X, W):
    # projected as W^T X^T, so each slice's sample is a contiguous row
    return sum(wasserstein_1d_to_gaussian(y) for y in W.T @ X.T)


def _select_slice_scored(X, n_slices, n_candidates, seed):
    d = X.shape[1]
    rng = np.random.default_rng(seed)
    candidates = [_axis_candidate(X, n_slices)]
    candidates.extend(_random_orthonormal(rng, d, n_slices) for _ in range(n_candidates))
    scores = np.array([_candidate_score(X, W) for W in candidates])
    best = int(np.argmax(scores))  # ties resolve to the lowest index
    return candidates[best], float(scores[best])


# -- fitting -------------------------------------------------------------------


def fit_gis(data, conditionals, config: FitConfig | None = None,
            on_iteration=None) -> FlowModel:
    """Fit the conditional flow on (data, conditionals).

    Per iteration: select the best slice on the current residual, fit one
    marginal's knots per (conditional bin, slice column), and apply the
    bin-interpolated update to every row.  fit_progress records the summed
    slice Wasserstein score before and after each iteration's update;
    on_iteration, if given, is called with (iteration, before, after).
    """
    if config is None:
        config = FitConfig()
    X = np.asarray(data, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    m = np.asarray(conditionals, dtype=float).ravel()
    if X.ndim != 2 or X.shape[0] != m.size:
        raise InputError("data must be (n, d) with one conditional per row")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(m))):
        raise InputError("data and conditionals must be finite")
    n, d = X.shape
    config.validate(d)
    k_slices = config.resolve_slices(d)
    min_per_bin = 2 * config.n_knots
    if n <= max(10 * d, config.n_conditional_bins * min_per_bin):
        raise FitError(f"{n} samples are too few for dim {d} with "
                       f"{config.n_conditional_bins} bins of >= {min_per_bin}")

    shift = X.mean(axis=0)
    scale = X.std(axis=0)
    if np.any(scale == 0):
        bad = int(np.flatnonzero(scale == 0)[0])
        raise FitError(f"feature column {bad} has zero variance")
    Z = (X - shift) / scale

    binning = build_binning(m, config.n_conditional_bins, min_occupancy=min_per_bin)
    bin_idx = binning.assign(m)
    counts = np.bincount(bin_idx, minlength=binning.n_bins)
    short = np.flatnonzero(counts < min_per_bin)
    if short.size:
        b = int(short[0])
        raise FitError(f"conditional bin {b} [{binning.edges[b]:g}, "
                       f"{binning.edges[b + 1]:g}] has {counts[b]} samples; "
                       f"needs >= {min_per_bin}")
    lo, hi, t, _ = binning.interp_weights(m)
    bin_rows = [np.flatnonzero(bin_idx == b) for b in range(binning.n_bins)]

    layers = []
    progress = []
    if config.n_iterations > 0:
        seeds = np.random.SeedSequence(config.rng_seed).generate_state(
            config.n_iterations, dtype=np.uint64)
        for i in range(config.n_iterations):
            W, before = _select_slice_scored(Z, k_slices, config.n_candidates,
                                             int(seeds[i]))
            # one contiguous row per slice, projected as _apply_layer does
            Yt = np.ascontiguousarray((Z @ W).T)
            tables = [KnotTable([fit_marginal_transform(y[rows], config.n_knots)
                                 for rows in bin_rows], config.derivative_floor)
                      for y in Yt]
            layer = GisLayer(weights=W, tables=tables)
            Z, P = _apply_layer(layer, Z, lo, hi, t)
            after = sum(wasserstein_1d_to_gaussian(P[:, k]) for k in range(k_slices))
            layers.append(layer)
            progress.append((before, after))
            if on_iteration is not None:
                on_iteration(i, before, after)

    return FlowModel(dim=d, shift=shift, scale=scale, binning=binning,
                     layers=layers, derivative_floor=config.derivative_floor,
                     fit_progress=progress)


# -- serialization -------------------------------------------------------------


def _fmt(values):
    # one % call per row: the same bytes as format(v, ".17g") per value
    row = np.atleast_1d(values).tolist()
    return ("%.17g " * len(row))[:-1] % tuple(row)


def save_model(model: FlowModel, path) -> None:
    """Write the model as versioned plain text (17 significant digits)."""
    lines = [MODEL_FORMAT_HEADER]
    lines.append(f"dim {model.dim}")
    lines.append(f"derivative_floor {format(model.derivative_floor, '.17g')}")
    lines.append(f"shift {_fmt(model.shift)}")
    lines.append(f"scale {_fmt(model.scale)}")
    lines.append(f"edges {_fmt(model.binning.edges)}")
    lines.append(f"centers {_fmt(model.binning.centers)}")
    n_slices = model.layers[0].weights.shape[1] if model.layers else 0
    lines.append(f"layers {len(model.layers)} slices {n_slices}")
    for i, layer in enumerate(model.layers):
        lines.append(f"layer {i}")
        for row in layer.weights:
            lines.append(_fmt(row))
        for b in range(model.binning.n_bins):
            for k, table in enumerate(layer.tables):
                knots_in, knots_out = table.knots(b)
                lines.append(f"transform {b} {k} {knots_in.size}")
                lines.append(_fmt(knots_in))
                lines.append(_fmt(knots_out))
    lines.append("end")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> FlowModel:
    """Read a model written by save_model; the rebuilt model reproduces
    log_density bit for bit."""
    try:
        with open(path) as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read model file {path}: {exc}") from exc
    if not lines or lines[0].strip() != MODEL_FORMAT_HEADER:
        raise InputError(f"not a {MODEL_FORMAT_HEADER} model file: {path}")
    try:
        return _parse_model(lines)
    except InputError:
        raise
    except (IndexError, ValueError) as exc:
        # a missing field or a field that is not a number
        raise InputError(f"malformed model file {path}: {exc}") from exc


def _parse_model(lines) -> FlowModel:
    pos = 1

    def take():
        nonlocal pos
        if pos >= len(lines):
            raise InputError("truncated model file")
        line = lines[pos]
        pos += 1
        return line

    def take_field(name):
        parts = take().split()
        if not parts or parts[0] != name:
            raise InputError(f"expected '{name}' in model file")
        return parts[1:]

    dim = int(take_field("dim")[0])
    floor = float(take_field("derivative_floor")[0])
    shift = np.array([float(v) for v in take_field("shift")])
    scale = np.array([float(v) for v in take_field("scale")])
    if shift.shape != (dim,) or scale.shape != (dim,):
        raise InputError("shift and scale need one value per feature in model file")
    if not (np.isfinite(shift).all() and np.isfinite(scale).all() and (scale > 0).all()):
        raise InputError("shift must be finite and scale finite and positive in model file")
    edges = np.array([float(v) for v in take_field("edges")])
    centers = np.array([float(v) for v in take_field("centers")])
    head = take().split()
    if head[0] != "layers" or head[2] != "slices":
        raise InputError("malformed layer header in model file")
    n_layers, n_slices = int(head[1]), int(head[3])
    n_bins = centers.size

    layers = []
    for i in range(n_layers):
        tag = take().split()
        if tag[0] != "layer" or int(tag[1]) != i:
            raise InputError(f"expected layer {i} in model file")
        W = np.array([[float(v) for v in take().split()] for _ in range(dim)])
        if W.shape != (dim, n_slices) or not np.isfinite(W).all():
            raise InputError("malformed slice matrix in model file")
        # the log-Jacobian holds only for orthonormal columns; a saved
        # matrix is orthonormal to within a few ulps
        if np.abs(W.T @ W - np.eye(n_slices)).max() > 1e-9:
            raise InputError("slice matrix columns are not orthonormal in model file")
        knots = []  # (knots_in, knots_out) of each transform, bin-major
        for b in range(n_bins):
            for k in range(n_slices):
                meta = take_field("transform")
                if int(meta[0]) != b or int(meta[1]) != k:
                    raise InputError("transform blocks out of order in model file")
                n_knots = int(meta[2])
                knots_in = np.array(take().split(), dtype=float)
                knots_out = np.array(take().split(), dtype=float)
                if knots_in.size != n_knots or knots_out.size != n_knots:
                    raise InputError("knot table size mismatch in model file")
                knots.append((knots_in, knots_out))
        layers.append(GisLayer(weights=W, tables=[
            KnotTable(knots[k::n_slices], floor) for k in range(n_slices)]))
    if take().strip() != "end":
        raise InputError("missing end marker in model file")

    return FlowModel(dim=dim, shift=shift, scale=scale,
                     binning=ConditionalBinning(edges=edges, centers=centers),
                     layers=layers, derivative_floor=floor)
