import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from knot_tables import knot_table
from overdensity import conditional
from overdensity.conditional import (
    ConditionalBinning,
    InterpPlan,
    KnotTable,
    _count_le,
    _interpolate_rows as interpolate,
    build_binning,
    eval_binned,
    interpolated_inverse,
    interpolated_transform,
)
from overdensity.errors import ConfigError, FitError, InputError
from overdensity.transforms import Marginal1DTransform, fit_marginal_transform


def _affine(scale, lo=-5.0, hi=5.0):
    knots = np.linspace(lo, hi, 9)
    return Marginal1DTransform.from_knots(knots, scale * knots)


def _apply(transforms, binning, y, m):
    """The per-bin family at conditionals m, as the flow evaluates it."""
    lo, hi, t = binning.interp_weights(np.atleast_1d(m))
    return interpolate(knot_table(transforms), lo, hi, t,
                       np.broadcast_to(y, lo.shape).astype(float))


def test_two_bin_edges_by_hand():
    # eight values, two bins: the cut separates 4 from 5, the shared edge
    # sits midway, and outer edges are the data extremes
    b = build_binning(np.arange(1.0, 9.0), n_bins=2)
    assert_allclose(b.edges, [1.0, 4.5, 8.0])
    assert_allclose(b.centers, [2.75, 6.25])
    assert list(b.assign([1.0, 4.4, 4.6, 8.0])) == [0, 0, 1, 1]


def test_interp_weights_by_hand():
    b = ConditionalBinning(edges=np.array([0.0, 4.5, 10.0]),
                           centers=np.array([2.75, 6.25]))
    m = np.array([2.75, 4.5, 6.25, 0.0, 11.0])
    lo, hi, t = b.interp_weights(m)
    assert list(lo) == [0, 0, 1, 0, 1]
    assert t[0] == 0.0  # exactly, at a bin center
    assert t[1] == pytest.approx(0.5)
    assert t[2] == 0.0
    assert t[3] == 0.0  # below the first center: edge bin, unmixed
    assert t[4] == 0.0
    assert list(b.outside(m)) == [False, False, False, False, True]


def test_build_binning_errors():
    with pytest.raises(ConfigError):
        build_binning(np.arange(100.0), n_bins=1)
    with pytest.raises(InputError):
        build_binning(np.array([1.0, np.inf, 2.0, 3.0]), n_bins=2)
    with pytest.raises(FitError):
        build_binning(np.ones(100), n_bins=2)
    with pytest.raises(FitError):
        # an atom swallows both cut points: edges collapse
        build_binning(np.concatenate([np.zeros(90), [1.0] * 10]), n_bins=4)
    with pytest.raises(FitError):
        build_binning(np.arange(10.0), n_bins=4, min_occupancy=5)


def test_interpolated_affine_pair_midway():
    # halfway between an identity bin and a x3 bin the effective map is
    # exactly 2y with derivative 2
    b = ConditionalBinning(edges=np.array([0.0, 1.0, 2.0]),
                           centers=np.array([0.5, 1.5]))
    transforms = [_affine(1.0), _affine(3.0)]
    psi, deriv = _apply(transforms, b, 0.7, 1.0)
    assert psi[0] == pytest.approx(1.4, abs=1e-14)
    assert np.log(deriv[0]) == pytest.approx(np.log(2.0), abs=1e-14)
    # at the first center the identity applies untouched
    psi0, d0 = _apply(transforms, b, 0.7, 0.5)
    assert psi0[0] == 0.7
    assert np.log(d0[0]) == 0.0


def test_interpolated_inverse_affine_pair():
    table = knot_table([_affine(1.0), _affine(3.0)])
    lo = np.array([0, 0])
    hi = np.array([1, 1])
    t = np.array([0.5, 0.5])
    z = np.array([1.4, -3.0])
    y = interpolated_inverse(table, lo, hi, t, z)
    assert_allclose(y, [0.7, -1.5], atol=1e-12)


values = st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=8,
                  max_size=200, unique=True)


@given(values, st.integers(min_value=2, max_value=8))
def test_equal_occupancy(samples, n_bins):
    m = np.asarray(samples)
    if m.size // n_bins < 2:
        n_bins = 2
    b = build_binning(m, n_bins)
    counts = np.bincount(b.assign(m), minlength=b.n_bins)
    assert counts.max() - counts.min() <= 1
    assert counts.sum() == m.size


@given(values, st.floats(min_value=-1.2e4, max_value=1.2e4))
def test_interp_weights_are_convex(samples, m):
    b = build_binning(np.asarray(samples), 4)
    lo, hi, t = b.interp_weights(m)
    assert 0.0 <= t <= 1.0
    assert lo <= hi <= lo + 1


@given(values, st.integers(min_value=2, max_value=8),
       st.lists(st.floats(min_value=-1.2e4, max_value=1.2e4), max_size=20))
def test_interp_weights_depend_on_m_only_through_the_center_clip(samples, n_bins, ms):
    # scoring dedupes its density rows on this clip
    m = np.asarray(samples)
    b = build_binning(m, 2 if m.size // n_bins < 2 else n_bins)
    c = b.centers
    m = np.concatenate([ms, c, b.edges, [c[0] - 1.0, c[-1] + 1.0, -np.inf, np.inf]])
    got = b.interp_weights(m)[:3]
    want = b.interp_weights(np.clip(m, c[0], c[-1]))[:3]
    for a, w in zip(got, want):
        assert a.tobytes() == w.tobytes()


def test_transform_is_continuous_in_m(rng):
    # crossing a bin center must not jump the output
    m_train = rng.uniform(0.0, 1.0, 4000)
    b = build_binning(m_train, 5)
    transforms = [_affine(s) for s in (0.5, 1.0, 2.0, 3.0, 4.0)]
    y = 0.37
    for c in b.centers:
        (left, at, right), _ = _apply(transforms, b, y, [c - 1e-9, c, c + 1e-9])
        assert abs(left - at) < 1e-7
        assert abs(right - at) < 1e-7


@given(st.floats(min_value=0.0, max_value=1.0),
       st.lists(st.floats(min_value=-20, max_value=20), min_size=1, max_size=6))
def test_interpolated_round_trip(t_mix, zs):
    table = knot_table([_affine(1.0, -30, 30), _affine(2.5, -30, 30)])
    z = np.asarray(zs)
    n = z.size
    lo = np.zeros(n, dtype=int)
    hi = np.ones(n, dtype=int)
    t = np.full(n, t_mix)
    y = interpolated_inverse(table, lo, hi, t, z)
    back, _ = interpolate(table, lo, hi, t, y)
    assert_allclose(back, z, rtol=1e-10, atol=1e-10)


@st.composite
def binned_family(draw):
    """A few fitted transforms plus query rows (bin, value, t) mixing bins,
    t being a blend weight in [0, 1]: exactly 0 or 1 for two rows in three.

    Rounding the samples to few decimals makes tied quantiles, which are
    merged, so knot counts differ between bins.  A large derivative floor
    lifts derivatives inside the knot range.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    floor = draw(st.sampled_from([1e-6, 0.3, 3.0]))
    transforms = []
    queries = []
    for b in range(draw(st.integers(1, 5))):
        n_knots = draw(st.integers(2, 40))
        decimals = draw(st.integers(0, 3))
        samples = np.round(rng.standard_normal(2 * n_knots + 200) * 2.0, decimals)
        tr = Marginal1DTransform.from_knots(*fit_marginal_transform(samples, n_knots),
                                            derivative_floor=floor)
        transforms.append(tr)
        x = tr.knots_in
        values = np.concatenate([
            x,                                   # exactly at every knot
            0.5 * (x[:-1] + x[1:]),              # segment midpoints
            rng.uniform(x[0], x[-1], 20),
            [x[0] - 1.0, x[0] - 1e3, np.nextafter(x[0], -np.inf), -1e300,   # lower tail
             x[-1] + 1.0, x[-1] + 1e3, np.nextafter(x[-1], np.inf), 1e300],  # upper tail
        ])
        queries.extend((b, v) for v in values)
    order = rng.permutation(len(queries))
    bins = np.array([queries[i][0] for i in order])
    ys = np.array([queries[i][1] for i in order])
    t = rng.uniform(0.0, 1.0, bins.size)
    t[::3] = 0.0  # the rows are in random order
    t[1::3] = 1.0
    return transforms, bins, ys, t


@given(binned_family())
def test_knot_table_matches_transform_bit_for_bit(family):
    transforms, bins, ys, t = family
    table = knot_table(transforms)
    psi, deriv = eval_binned(table, bins, ys)
    ref = np.array([np.concatenate(transforms[b].transform(np.array([y])))
                    for b, y in zip(bins, ys)])
    # compared as bits, so a zero of the other sign fails too
    got = np.column_stack([psi, deriv])
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))
    # blending each row's bin with the next one (the last bin with itself)
    # at t, the inverse undoes the forward map, on the tails and where the
    # derivative floor lies far above the true slope too
    hi = np.minimum(bins + 1, len(transforms) - 1)
    z, _ = interpolate(table, bins, hi, t, ys)
    back, _ = interpolate(table, bins, hi, t, interpolated_inverse(table, bins, hi, t, z))
    assert_allclose(back, z, rtol=1e-10, atol=1e-10)


@given(binned_family(), st.integers(1, 9))
def test_plan_blocks_map_as_the_whole_plan(family, parts):
    # the fit's update evaluates each slice over consecutive row blocks
    transforms, bins, ys, t = family
    table = knot_table(transforms)
    plan = InterpPlan(bins, np.minimum(bins + 1, len(transforms) - 1), t)
    y = ys[plan.order]
    whole = np.column_stack(interpolated_transform(table, plan.bins, plan.t, plan.s, y))
    for n_blocks in (parts, y.size + parts):  # more blocks than rows leaves some empty
        blocks = plan.blocks(n_blocks)
        assert len(blocks) == n_blocks
        assert [(rows.start, rows.stop) for rows, *_ in blocks] == [
            (y.size * i // n_blocks, y.size * (i + 1) // n_blocks) for i in range(n_blocks)]
        got = np.concatenate([np.column_stack(interpolated_transform(table, b, bt, bs, y[rows]))
                              for rows, b, bt, bs in blocks])
        assert np.array_equal(got.view(np.int64), whole.view(np.int64))


def _ulp_steps(start, steps):
    """start, then each next knot the given number of ulps above the last."""
    x = [float(start)]
    for k in steps:
        x.append(x[-1])
        for _ in range(k):
            x[-1] = float(np.nextafter(x[-1], np.inf))
    return np.array(x)


@st.composite
def search_tables(draw):
    """Knot tables made to stress the bucket index: mixed knot counts
    (padding), 2-knot bins, knots a few ulps apart (buckets holding
    several edges, so windows wider than one and moved left at the row's
    end), subnormal spans (a non-finite scale: one bucket) and wide
    spreads.  knots_out = knots_in keeps every slope 1."""
    knots = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(2, 12))
        kind = draw(st.sampled_from(["ulps", "clustered", "subnormal", "spread"]))
        if kind == "ulps":
            x = _ulp_steps(draw(st.floats(-1e3, 1e3)),
                           draw(st.lists(st.integers(1, 3), min_size=n - 1, max_size=n - 1)))
        elif kind == "clustered":  # a few ulps apart, then one wide gap
            x = _ulp_steps(draw(st.floats(-1e3, 1e3)),
                           draw(st.lists(st.integers(1, 2), min_size=n - 2, max_size=n - 2)))
            x = np.append(x, x[-1] + draw(st.floats(1e-3, 1e3)))
        elif kind == "subnormal":
            x = np.cumsum(draw(st.lists(st.integers(1, 1000), min_size=n, max_size=n))) * 5e-324
        else:
            x = np.unique(draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)))
            if x.size < 2:
                x = np.array([x[0], x[0] + 1.0])
        knots.append((x, x.copy()))
    return knots


def _check_search(table, knots, floor):
    """Every edge, its neighbours one ulp away, each bin's knots, +-inf
    and NaN: the windowed search finds the slot of the full-width one, and
    eval_binned matches Marginal1DTransform.transform bit for bit on every
    finite value."""
    bins, ys = [], []
    for b, (x, _) in enumerate(knots):
        row = table.edges[b * table.stride:(b + 1) * table.stride]
        row = row[~np.isnan(row)]
        v = np.concatenate([row, np.nextafter(row, -np.inf), np.nextafter(row, np.inf), x,
                            [-np.inf, np.inf, np.nan, 0.0, -1e300, 1e300]])
        bins.extend([b] * v.size)
        ys.extend(v.tolist())
    bins, ys = np.array(bins), np.array(ys)
    start = bins * table.stride
    slots = []

    def spy(*args):
        slots.append(_count_le(*args))
        return slots[-1]

    with pytest.MonkeyPatch.context() as mp, np.errstate(invalid="ignore"):
        mp.setattr(conditional, "_count_le", spy)
        psi, deriv = eval_binned(table, bins, ys)
    assert slots[0].tobytes() == _count_le(table.edges, start, table.stride, ys).tobytes()
    finite = np.isfinite(ys)
    ref = np.array([np.concatenate(Marginal1DTransform.from_knots(
        *knots[b], derivative_floor=floor).transform(np.array([y])))
        for b, y in zip(bins[finite], ys[finite])])
    got = np.column_stack([psi[finite], deriv[finite]])
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))


@given(search_tables(), st.sampled_from([1e-6, 0.3, 3.0]))
def test_bucketed_search_matches_full_search(knots, floor):
    _check_search(KnotTable(knots, floor), knots, floor)


def test_bucket_index_fixed_cases():
    spread = np.linspace(-5.0, 5.0, 12)
    # the last bin's first knots share a bucket: the window is three wide,
    # and the windows of the buckets at the end of its row start further left
    clustered = np.append(_ulp_steps(1.0, [1, 1]), np.linspace(2.0, 9.0, 9))
    # a subnormal span overflows the scale: that bin is one bucket
    subnormal = np.arange(4) * 1e-310
    two = np.array([-1.0, 3.0])
    tables = {"spread": [spread, two], "clustered": [two, spread, clustered],
              "subnormal": [spread, subnormal]}
    for name, xs in tables.items():
        knots = [(x, x.copy()) for x in xs]
        table = KnotTable(knots, 1e-6)
        _check_search(table, knots, 1e-6)
        assert table.window.dtype == np.uint8
        if name == "spread":
            assert table.width == 1
        if name == "clustered":
            assert table.width == 3
            assert table.window.max() == table.stride - table.width
        if name == "subnormal":
            assert table.scale[1] == table.offset[1] == 0.0
            assert table.width == subnormal.size
    # a stride above 256 needs two-byte window starts
    wide = np.linspace(0.0, 1.0, 300)
    assert KnotTable([(wide, wide), (two, two)], 1e-6).window.dtype == np.uint16
