"""Conditional Gaussianizing flow built from iterative orthogonal slices.

Each layer picks an orthonormal set of directions W (d x K, columns
orthonormal), Gaussianizes the data marginals along those directions with
per-conditional-bin 1D transforms, and updates

    X <- X - W W^T X + W Psi(W^T X)

leaving the orthogonal complement of span(W) untouched.  The same W is
shared by all conditional bins; only the 1D transforms depend on the bin.
Because the update acts componentwise in the W basis, each layer adds
exactly K marginal log-derivative terms to the log-Jacobian.

The fit runs each layer in whole-block numpy calls on a thread pool with
one worker per CPU the process may use: a candidate frame's K projections
are scored by one sort call, a slice's bin marginals are fitted from one,
and the update maps row blocks of at most _BLOCK_ROWS rows, one task per
block through all the layer's slices (the sorts and the array arithmetic
release the interpreter lock).  Scores come back in candidate order and
every row maps on its own, so the model is byte-identical for any number
of CPUs.

Its working memory is a fixed number of n-row arrays: each worker sorts its
candidates' projections in one K x n buffer allocated once per fit (the
first also sorts the coordinates, K at a time), the layer update
overwrites the standardised rows in place, and the progress report's
transforms go to the first buffer.  The plotting quantiles of the n-row
samples are computed once per fit and not cached.

forward runs the same layer map, _apply_layer, over a batch as one block:
it standardises a reordered copy of the rows in place, and each layer
writes its transforms minus the slice coordinates over those coordinates.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import chain

import numpy as np

from .conditional import (ConditionalBinning, InterpPlan, KnotTable, build_binning,
                          interpolated_inverse, interpolated_transform)
from .errors import ConfigError, FitError, InputError
from .transforms import (DEFAULT_DERIVATIVE_FLOOR, DEFAULT_KNOTS, _normal_levels,
                         fit_marginal_transform, wasserstein_1d_to_gaussian)

MODEL_FORMAT_HEADER = "GISFLOW v1"

_LOG_2PI = math.log(2.0 * math.pi)

# the most rows in one block of the fit's update, which keeps each
# worker's temporaries cache-sized at any number of rows
_BLOCK_ROWS = 8192


def event_batch(x, m):
    """The (n, d) float feature matrix and n conditionals of a batch.

    Fit, the flow maps and scoring all take feature rows with one
    conditional each: a 1-D x is n rows of one feature, and m is
    flattened, so a scalar m is a one-row batch.  Raises InputError
    unless there is one conditional per row and every value is finite.
    """
    X = np.asarray(x, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    mv = np.asarray(m, dtype=float).ravel()
    if X.ndim != 2 or X.shape[0] != mv.size:
        raise InputError("features must be (n, d) rows with one conditional per row")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(mv))):
        raise InputError("features and conditionals must be finite")
    return X, mv


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
        if not 0 < self.derivative_floor < math.inf:
            raise ConfigError("derivative_floor must be positive and finite")
        self.resolve_slices(dim)


@dataclass
class GisLayer:
    """One slicing step: orthonormal directions plus per-bin 1D maps.

    tables[k] holds the maps that Gaussianize slice k, one per conditional
    bin.
    """

    weights: np.ndarray
    tables: list


def _slice_block(table, y, p, log_det, block):
    """One row block of one slice: y's rows become their
    interpolated_transform minus themselves, p's rows (if p is given) the
    transform, and their log-derivative is added into log_det, if given."""
    rows, bins, t, s = block
    psi, deriv = interpolated_transform(table, bins, t, s, y[rows])
    if p is not None:
        p[rows] = psi
    np.subtract(psi, y[rows], out=y[rows])
    if log_det is not None:
        log_det[rows] += np.log(deriv, out=deriv)


def _layer_block(tables, Y, P, log_det, block):
    """One row block of one layer: _slice_block for each slice in turn,
    slice k on column k of Y and row k of P."""
    for k, table in enumerate(tables):
        _slice_block(table, Y[:, k], None if P is None else P[k], log_det, block)


def _apply_layer(layer: GisLayer, Z, blocks, log_det=None, map=map, P=None):
    """Apply one layer in place to the rows of Z, taken in the order of the
    plan cut into row blocks (InterpPlan.blocks): the one layer map of the
    fit and of forward.

    Z becomes Z + (P - Y) W^T, Y = Z W being the slice coordinates and P
    their transforms; P - Y is written over Y.  Each block has all its
    slices evaluated in turn by one task through map (the fit passes its
    pool's, with blocks of at most _BLOCK_ROWS rows), each slice's
    log-derivative being added into log_det, if given, and its transforms
    written into row k of the (K, n) array P, if given.  Every row maps on
    its own, so the blocks do not change a bit.  Both d x K products stay
    whole-array calls in the calling thread: a BLAS product's bits can
    depend on its row count.  interpolated_transform is looked up in this
    module on every call, which is where perfbench's tracer patches it.
    """
    W = layer.weights
    Y = Z @ W
    list(map(partial(_layer_block, layer.tables, Y, P, log_det), blocks))
    Z += Y @ W.T


@dataclass
class FlowModel:
    """Fitted conditional flow: standardization, binning, layers.

    forward, inverse and log_density take a batch as event_batch reads
    it, with d = dim, and always return arrays: one row or one value per
    batch row.
    """

    dim: int
    shift: np.ndarray
    scale: np.ndarray
    binning: ConditionalBinning
    layers: list
    derivative_floor: float = DEFAULT_DERIVATIVE_FLOOR

    # -- helpers ------------------------------------------------------------

    def _as_batch(self, x, m):
        X, mv = event_batch(x, m)
        if X.shape[1] != self.dim:
            raise InputError(f"expected feature vectors of dimension {self.dim}")
        return X, mv

    # -- core maps ----------------------------------------------------------

    def forward(self, x, m):
        """Map data to latent space; returns (z, log_det).

        Each row maps on its own, so the pass runs over the rows in
        plan order, as one block, and puts them back at the end.  Its n-row
        arrays are the standardised rows, which each layer updates in
        place, log_det and one layer's slice coordinates.
        """
        X, mv = self._as_batch(x, m)
        plan = InterpPlan(*self.binning.interp_weights(mv))
        Z = X[plan.order]
        Z -= self.shift
        Z /= self.scale
        blocks = plan.blocks(1)
        log_det = np.full(Z.shape[0], -float(np.sum(np.log(self.scale))))
        for layer in self.layers:
            _apply_layer(layer, Z, blocks, log_det)
        return plan.restore(Z), plan.restore(log_det)

    def inverse(self, z, m):
        """Map latent vectors back to data space."""
        X, mv = self._as_batch(z, m)
        lo, hi, t = self.binning.interp_weights(mv)
        for layer in reversed(self.layers):
            W = layer.weights
            Y_out = X @ W
            Y_in = np.empty_like(Y_out)
            for k in range(W.shape[1]):
                Y_in[:, k] = interpolated_inverse(layer.tables[k], lo, hi, t, Y_out[:, k])
            X = X + (Y_in - Y_out) @ W.T
        return X * self.scale + self.shift

    def log_density(self, x, m):
        """Conditional log density log p(x | m).

        Standard-normal base density of the latent point plus the
        accumulated log-Jacobian.  Conditionals outside the trained range
        are evaluated at the clamped edge.
        """
        Z, log_det = self.forward(x, m)  # which checks x and m
        Z *= Z
        return -0.5 * np.sum(Z, axis=1) - 0.5 * self.dim * _LOG_2PI + log_det


# -- slice selection ----------------------------------------------------------


def _axis_candidate(Xt, k, buf, quantiles):
    """Orthonormal frame of the k most non-Gaussian coordinate axes, with
    its score.

    Xt holds one coordinate per row (X transposed, contiguous), and
    quantiles are wasserstein_1d_to_gaussian's for its row length.  The
    coordinates are copied into buf, a (k, n) search buffer, k rows at a
    time, and sorted there.  A one-hot product returns each chosen
    coordinate exactly, so the sum of their distances in frame order is
    the score the frame gets as a candidate.
    """
    scores = []
    for start in range(0, Xt.shape[0], k):
        rows = buf[:min(k, Xt.shape[0] - start)]
        np.copyto(rows, Xt[start:start + k])
        scores.append(wasserstein_1d_to_gaussian(rows, axis=1, overwrite=True,
                                                 quantiles=quantiles))
    scores = np.concatenate(scores)
    order = np.argsort(-scores, kind="stable")[:k]
    W = np.zeros((Xt.shape[0], k))
    W[order, np.arange(k)] = 1.0
    return W, sum(scores[order].tolist())


def _random_orthonormal(rng, n, d, k):
    """n random d x k frames with orthonormal columns, as an (n, d, k) stack.

    One draw and one stacked QR: bit for bit the frames of n draws of
    (d, k) in turn, each QR'd and sign-fixed on its own.
    """
    Q, R = np.linalg.qr(rng.standard_normal((n, d, k)))
    sign = np.sign(np.diagonal(R, axis1=1, axis2=2))
    sign[sign == 0] = 1.0
    return Q * sign[:, None, :]


def _candidate_scores(Xt, frames, buf, quantiles):
    # projected as W^T X^T into buf, so each slice's sample is a contiguous
    # row, and sorted there; the slices' distances are summed in slice order
    return [sum(wasserstein_1d_to_gaussian(np.matmul(W.T, Xt, out=buf), axis=1,
                                           overwrite=True, quantiles=quantiles).tolist())
            for W in frames]


def _select_slice_scored(X, n_slices, n_candidates, seed, pool, buffers, quantiles):
    """Best of the axis frame and n_candidates random frames, with its score.

    The axis frame is scored from its coordinates' distances, sorted in
    the first buffer (_axis_candidate).  The random
    frames are scored in one consecutive group per (K, n) buffer on pool,
    one task per group, each frame's K projections by one
    wasserstein_1d_to_gaussian call that sorts them in the group's buffer;
    pool.map returns the groups in order, so the scores are in candidate
    order and the choice does not depend on the number of groups.
    """
    d = X.shape[1]
    rng = np.random.default_rng(seed)
    Xt = np.ascontiguousarray(X.T)
    axis_frame, axis_score = _axis_candidate(Xt, n_slices, buffers[0], quantiles)
    frames = _random_orthonormal(rng, n_candidates, d, n_slices)
    scores = [axis_score, *chain.from_iterable(pool.map(
        partial(_candidate_scores, Xt, quantiles=quantiles),
        np.array_split(frames, len(buffers)), buffers))]
    best = int(np.argmax(scores))  # ties resolve to the lowest index
    return axis_frame if best == 0 else frames[best - 1], scores[best]


def _cpu_count() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# -- fitting -------------------------------------------------------------------


def fit_gis(data, conditionals, config: FitConfig | None = None,
            on_iteration=None) -> FlowModel:
    """Fit the conditional flow on (data, conditionals).

    Per iteration: select the best slice on the current residual, fit one
    marginal's knots per (conditional bin, slice column), and apply the
    bin-interpolated update to every row.  on_iteration, if given, is
    called with (iteration, before, after): the summed slice Wasserstein
    score before and after that iteration's update; the after scores are
    computed only for it.
    Each slice's bin samples are gathered into one +inf-padded block, so
    one fit_marginal_transform call fits all its bins.  The slice search
    and the update's row blocks run on one thread pool per fit, sized to
    the CPUs the process may use; it has no setting and does not change
    the model.
    """
    if config is None:
        config = FitConfig()
    X, m = event_batch(data, conditionals)
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

    binning = build_binning(m, config.n_conditional_bins, min_occupancy=min_per_bin)
    bin_idx = binning.assign(m)
    counts = np.bincount(bin_idx, minlength=binning.n_bins)
    short = np.flatnonzero(counts < min_per_bin)
    if short.size:
        b = int(short[0])
        raise FitError(f"conditional bin {b} [{binning.edges[b]:g}, "
                       f"{binning.edges[b + 1]:g}] has {counts[b]} samples; "
                       f"needs >= {min_per_bin}")
    plan = InterpPlan(*binning.interp_weights(m))
    # the fit runs on the rows in plan order: every step below sorts its
    # sample or maps each row on its own, so the model does not change
    Z = X[plan.order]
    Z -= shift
    Z /= scale
    bin_idx = bin_idx[plan.order]
    # each bin's rows as a row of indices, padded with n: each slice's
    # projection ends in a +inf there, which sorts after every sample
    gather = np.full((binning.n_bins, counts.max()), n)
    for b in range(binning.n_bins):
        gather[b, :counts[b]] = np.flatnonzero(bin_idx == b)

    layers = []
    seeds = np.random.SeedSequence(config.rng_seed).generate_state(
        config.n_iterations, dtype=np.uint64)
    workers = _cpu_count()
    # blocks of at most _BLOCK_ROWS rows, a multiple of the worker count
    blocks = plan.blocks(workers * -(-n // (_BLOCK_ROWS * workers)))
    del plan  # the blocks hold the only copy of its bins
    # one candidate group, and one projection buffer, per busy worker
    buffers = [np.empty((k_slices, n)) for _ in range(min(workers, config.n_candidates))]
    # every sample the fit scores has n values: their plotting quantiles,
    # computed once per fit
    quantiles = _normal_levels(n)[1]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for i in range(config.n_iterations):
            W, before = _select_slice_scored(Z, k_slices, config.n_candidates,
                                             int(seeds[i]), pool, buffers, quantiles)
            # one row per slice, projected as _apply_layer does
            Yt = np.full((k_slices, n + 1), np.inf)
            Yt[:, :n] = (Z @ W).T
            tables = [KnotTable(fit_marginal_transform(y[gather], config.n_knots, counts),
                                config.derivative_floor) for y in Yt]
            del Yt  # not held through the update
            layer = GisLayer(weights=W, tables=tables)
            # the transforms go to a search buffer, free until the next search
            P = None if on_iteration is None else buffers[0]
            _apply_layer(layer, Z, blocks, map=pool.map, P=P)
            layers.append(layer)
            if on_iteration is not None:
                after = sum(wasserstein_1d_to_gaussian(P, axis=1, overwrite=True,
                                                       quantiles=quantiles).tolist())
                on_iteration(i, before, after)

    return FlowModel(dim=d, shift=shift, scale=scale, binning=binning,
                     layers=layers, derivative_floor=config.derivative_floor)


# -- serialization -------------------------------------------------------------


def _fmt(values):
    # one % call per row: the same bytes as format(v, ".17g") per value
    row = np.atleast_1d(values).tolist()
    return ("%.17g " * len(row))[:-1] % tuple(row)


def _model_lines(model: FlowModel):
    """The lines of save_model's text, without their ends, made one at a time."""
    n_slices = model.layers[0].weights.shape[1] if model.layers else 0
    yield from (MODEL_FORMAT_HEADER, f"dim {model.dim}",
                f"derivative_floor {format(model.derivative_floor, '.17g')}",
                f"shift {_fmt(model.shift)}", f"scale {_fmt(model.scale)}",
                f"edges {_fmt(model.binning.edges)}", f"centers {_fmt(model.binning.centers)}",
                f"layers {len(model.layers)} slices {n_slices}")
    for i, layer in enumerate(model.layers):
        yield f"layer {i}"
        yield from map(_fmt, layer.weights)
        # every knots_out row holds the same normal quantiles: format each
        # distinct knot row of the layer once, keyed on its bytes
        knot_lines = {}
        for b in range(model.binning.n_bins):
            for k, table in enumerate(layer.tables):
                knots_in, knots_out = table.knots(b)
                yield f"transform {b} {k} {knots_in.size}"
                for row in (knots_in, knots_out):
                    key = row.tobytes()
                    if key not in knot_lines:
                        knot_lines[key] = _fmt(row)
                    yield knot_lines[key]
    yield "end"


def save_model(model: FlowModel, path) -> None:
    """Write the model as versioned plain text (17 significant digits)."""
    with open(path, "w") as fh:
        fh.writelines(line + "\n" for line in _model_lines(model))


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

    def take_knots(parsed):
        # every knots_out line holds the same normal quantiles: parse each
        # distinct line once, and keep the values only for one layer
        line = take()
        if line not in parsed:
            parsed[line] = np.array(line.split(), dtype=float)
        return parsed[line]

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
        parsed = {}
        for b in range(n_bins):
            for k in range(n_slices):
                meta = take_field("transform")
                if int(meta[0]) != b or int(meta[1]) != k:
                    raise InputError("transform blocks out of order in model file")
                n_knots = int(meta[2])
                knots_in = take_knots(parsed)
                knots_out = take_knots(parsed)
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
