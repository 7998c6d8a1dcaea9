import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from numpy.testing import assert_allclose
from scipy.interpolate import PchipInterpolator
from scipy.stats import norm

from knot_tables import knot_table
from overdensity import transforms
from overdensity.conditional import KnotTable, interpolated_inverse
from overdensity.errors import FitError, InputError
from overdensity.transforms import (
    Marginal1DTransform,
    fit_marginal_transform,
    wasserstein_1d_to_gaussian,
)

# Distance of the two-point sample {-1, +1} from a standard normal, by the
# plotting-quantile definition: both points sit |1 - inv_cdf(0.75)| away.
W1_TWO_POINT = 0.3255102498039183


def _invert(t, z):
    """The flow's inverse of one transform: its knot table, bin 0 unmixed."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    b = np.zeros(z.size, dtype=int)
    return interpolated_inverse(knot_table([t]), b, b, np.zeros(z.size), z)


def test_wasserstein_two_point_sample():
    assert wasserstein_1d_to_gaussian(np.array([-1.0, 1.0])) == pytest.approx(
        W1_TWO_POINT, abs=1e-15)
    # order must not matter
    assert wasserstein_1d_to_gaussian(np.array([1.0, -1.0])) == pytest.approx(
        W1_TWO_POINT, abs=1e-15)


def test_wasserstein_of_shifted_quantiles_is_the_shift():
    # A sample placed exactly on the comparison quantiles, shifted by 2,
    # is at distance exactly 2 from the standard normal.
    n = 101
    sample = norm.ppf((np.arange(n) + 0.5) / n) + 2.0
    assert wasserstein_1d_to_gaussian(sample) == pytest.approx(2.0, abs=1e-12)


def test_wasserstein_standard_normal_sample_is_small(rng):
    sample = rng.standard_normal(20_000)
    assert wasserstein_1d_to_gaussian(sample) < 0.03


def test_identity_knots_are_exact():
    knots = np.linspace(-2.0, 2.0, 9)
    t = Marginal1DTransform.from_knots(knots, knots.copy())
    psi, deriv = t.transform(0.7)
    assert psi == 0.7
    assert np.log(deriv) == 0.0


def test_affine_knots_are_exact():
    knots = np.linspace(-2.0, 2.0, 9)
    t = Marginal1DTransform.from_knots(knots, 2.0 * knots)
    psi, deriv = t.transform(1.0)
    assert psi == 2.0
    assert np.log(deriv) == pytest.approx(np.log(2.0), abs=1e-15)
    assert _invert(t, 3.0)[0] == pytest.approx(1.5, abs=1e-12)


def test_interior_matches_scipy_pchip():
    # same slope construction, independent evaluation path
    x = np.array([-2.0, -1.2, 0.0, 0.3, 1.1, 2.5])
    y = np.array([-3.0, -1.0, -0.2, 0.5, 2.0, 4.2])
    t = Marginal1DTransform.from_knots(x, y)
    ref = PchipInterpolator(x, y)
    # endpoint slopes stay above the positivity floor, so no adjustment here
    assert np.all(ref.derivative()(x[[0, -1]]) > 1e-5)
    v = np.linspace(-1.9, 2.4, 57)
    psi, deriv = t.transform(v)
    assert_allclose(psi, ref(v), rtol=1e-12, atol=1e-12)
    assert_allclose(deriv, ref.derivative()(v), rtol=1e-10, atol=1e-12)


def test_tails_are_linear():
    x = np.linspace(0.0, 1.0, 5)
    t = Marginal1DTransform.from_knots(x, x ** 2 + x)
    far = np.array([-10.0, -3.0])
    psi, deriv = t.transform(far)
    # constant slope below the first knot
    assert deriv[0] == deriv[1]
    slope = deriv[0]
    assert psi[1] - psi[0] == pytest.approx(slope * 7.0, rel=1e-12)


def test_derivative_floor_is_respected():
    # nearly flat data: pchip slopes collapse toward zero, the floor holds
    x = np.array([0.0, 1.0, 2.0, 3.0])
    y = np.array([0.0, 1e-12, 2e-12, 3e-12])
    t = Marginal1DTransform.from_knots(x, y, derivative_floor=1e-6)
    _, deriv = t.transform(np.linspace(-1.0, 4.0, 23))
    assert np.all(np.log(deriv) >= np.log(1e-6) - 1e-12)


def test_fit_marginal_gaussianizes_a_lognormal(rng):
    sample = np.exp(rng.standard_normal(30_000) * 0.5)
    t = Marginal1DTransform.from_knots(*fit_marginal_transform(sample, n_knots=48))
    mapped, _ = t.transform(sample)
    assert wasserstein_1d_to_gaussian(mapped) < 0.02
    assert wasserstein_1d_to_gaussian(sample) > 0.2


def test_fit_marginal_rejects_bad_input():
    with pytest.raises(InputError):
        fit_marginal_transform(np.array([1.0, np.nan, 2.0] * 50), n_knots=8)
    # -inf sorts first and +inf last, where the finiteness check looks
    for bad in (-np.inf, np.inf):
        with pytest.raises(InputError, match="finite"):
            fit_marginal_transform(np.r_[np.arange(40.0), bad], n_knots=8)
    with pytest.raises(InputError, match="n_knots"):
        fit_marginal_transform(np.arange(40.0), n_knots=1)
    with pytest.raises(FitError):
        fit_marginal_transform(np.ones(500), n_knots=8)
    with pytest.raises(FitError):
        fit_marginal_transform(np.arange(10.0), n_knots=8)  # too few samples


def test_duplicate_quantile_knots_are_collapsed():
    # heavy atom at zero: many quantile knots coincide and must be deduped
    sample = np.concatenate([np.zeros(900), np.linspace(1.0, 2.0, 300)])
    t = Marginal1DTransform.from_knots(*fit_marginal_transform(sample, n_knots=16))
    assert np.all(np.diff(t.knots_in) > 0)
    psi, deriv = t.transform(sample)
    assert np.all(np.isfinite(psi))
    assert np.all(np.isfinite(np.log(deriv)))


finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-50, max_value=50)
# knot gaps are bounded away from zero: quantile knots of standardized data
# never sit closer than float spacing, and scipy's slope formula overflows on
# denormal-sized gaps that cannot occur there
gap = st.floats(min_value=1e-6, max_value=10.0)


@st.composite
def monotone_knots(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    x0 = draw(st.floats(min_value=-50, max_value=50))
    y0 = draw(st.floats(min_value=-50, max_value=50))
    xs = x0 + np.cumsum([0.0] + draw(st.lists(gap, min_size=n - 1, max_size=n - 1)))
    ys = y0 + np.cumsum([0.0] + draw(st.lists(gap, min_size=n - 1, max_size=n - 1)))
    return np.asarray(xs), np.asarray(ys)


@given(monotone_knots(), st.lists(finite, min_size=1, max_size=8))
def test_transform_is_monotone(knots, values):
    x, y = knots
    t = Marginal1DTransform.from_knots(x, y)
    v = np.sort(np.asarray(values))
    psi, _ = t.transform(v)
    assert np.all(np.diff(psi) >= 0)
    # strict where the inputs are distinct by a sensible margin
    gaps = np.diff(v) > 1e-9
    assert np.all(np.diff(psi)[gaps] > 0)


@given(monotone_knots(), st.lists(finite, min_size=1, max_size=8))
def test_inverse_round_trip(knots, values):
    x, y = knots
    t = Marginal1DTransform.from_knots(x, y)
    v = np.asarray(values)
    psi, deriv = t.transform(v)
    back = _invert(t, psi)
    # the inverse always lands on the right output value ...
    psi_back, _ = t.transform(back)
    assert np.all(np.abs(psi_back - psi) < 1e-9 * np.maximum(1.0, np.abs(psi)))
    # ... and recovers the input itself wherever the curve is not near-flat
    healthy = deriv > 1e-3
    scale = np.maximum(1.0, np.abs(v))
    assert np.all(np.abs(back - v)[healthy] < 1e-6 * scale[healthy])


@given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=64,
                max_size=400, unique=True))
def test_fitted_transform_round_trip(samples):
    sample = np.asarray(samples)
    t = Marginal1DTransform.from_knots(*fit_marginal_transform(sample, n_knots=16))
    psi, deriv = t.transform(sample)
    back = _invert(t, psi)
    psi_back, _ = t.transform(back)
    assert_allclose(psi_back, psi, rtol=1e-9, atol=1e-9)
    healthy = deriv > 1e-3
    assert_allclose(back[healthy], sample[healthy], rtol=1e-6, atol=1e-6)


# -- bit-for-bit oracles: the in-module slopes, quantile knots and normal
# quantiles against the scipy and numpy functions they reproduce


def _assert_same_bits(actual, expected):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.int64), expected.view(np.int64)), (actual, expected)


# knot gaps spanning 6 decades
wide_gap = st.builds(lambda mantissa, exponent: mantissa * 10.0 ** exponent,
                     st.floats(min_value=1.0, max_value=9.99),
                     st.integers(min_value=-3, max_value=3))


@st.composite
def pchip_knots(draw):
    """Strictly increasing x; y rising, falling or flat between knots, so
    every sign branch of the slope rules is reached."""
    n = draw(st.one_of(st.just(2), st.just(3), st.integers(min_value=4, max_value=80)))
    x = draw(st.floats(min_value=-1e3, max_value=1e3)) + np.cumsum(
        [0.0] + draw(st.lists(wide_gap, min_size=n - 1, max_size=n - 1)))
    if draw(st.booleans()):
        # equal secants: knots on a line, evenly spaced or not
        y = draw(st.floats(min_value=-5, max_value=5)) * x + draw(finite)
    else:
        steps = draw(st.lists(st.one_of(wide_gap, wide_gap.map(lambda g: -g), st.just(0.0)),
                              min_size=n - 1, max_size=n - 1))
        y = draw(finite) + np.cumsum([0.0] + steps)
    return np.asarray(x), np.asarray(y, dtype=float)


@given(pchip_knots())
# subnormal secants: w / m overflows to -inf, and scipy's zero slopes are +0.0
@example((np.array([0.0, 1.0, 2.0]), np.array([0.0, -1e-310, -2e-310])))
@example((np.array([0.0, 1e10]), np.array([0.0, -1e-320])))
def test_pchip_slopes_match_scipy_bit_for_bit(knots):
    x, y = knots
    assert np.all(np.diff(x) > 0)
    # a flat or subnormal secant, on both sides
    with np.errstate(divide="ignore", over="ignore"):
        slopes = transforms._pchip_slopes(x, y)
        expected = PchipInterpolator(x, y).derivative()(x)
    _assert_same_bits(slopes, expected)


def test_last_slope_is_evaluated_not_copied():
    # scipy's derivative at the last knot comes from evaluating the last
    # interval's cubic, which can round away from the end slope the cubic
    # was built from; copying the end slope would miss those bits
    rng = np.random.default_rng(3)
    rounded_away = 0
    for _ in range(200):
        x = np.cumsum(rng.uniform(0.01, 2.0, 12))
        y = np.cumsum(rng.uniform(0.01, 2.0, 12))
        h = np.diff(x)
        m = np.diff(y) / h
        end = transforms._edge_slope(h[-1], h[-2], m[-1], m[-2])
        ref = PchipInterpolator(x, y).derivative()(x)
        rounded_away += ref[-1] != end
        _assert_same_bits(transforms._pchip_slopes(x, y), ref)
    assert rounded_away > 0


@given(st.data(), st.integers(min_value=2, max_value=80))
def test_quantile_knots_match_numpy_bit_for_bit(data, n_knots):
    p, _ = transforms._knot_levels(n_knots)
    # sizes with (n - 1) p on integers, the minimum size, or any size
    n = data.draw(st.one_of(
        st.integers(min_value=1, max_value=20).map(lambda r: 2 * n_knots * r + 1),
        st.just(2 * n_knots),
        st.integers(min_value=2 * n_knots, max_value=5000)))
    if data.draw(st.booleans()):
        # heavy ties, so several knots coincide
        values = data.draw(st.lists(st.integers(min_value=-3, max_value=3),
                                    min_size=n, max_size=n))
    else:
        values = data.draw(st.lists(finite, min_size=n, max_size=n))
    s = np.sort(np.asarray(values, dtype=float))
    assert np.array_equal(transforms._linear_quantiles(s, p), np.quantile(s, p))
    # bit for bit once -0.0 is made 0.0 (+ 0.0 does that): np.quantile's
    # partition and a sort may order tied zeros of opposite sign differently
    s += 0.0
    _assert_same_bits(transforms._linear_quantiles(s, p), np.quantile(s, p))


def _fit_with_scipy(samples, n_knots):
    """fit_marginal_transform as written on np.quantile, norm.ppf and
    PchipInterpolator: the oracle for the in-module fit."""
    s = np.asarray(samples, dtype=float).ravel()
    p = (np.arange(n_knots) + 0.5) / n_knots
    q = np.quantile(s, p)
    keep = np.concatenate(([True], np.diff(q) > 1e-14 * max(np.ptp(q), np.finfo(float).tiny)))
    q, z = q[keep], norm.ppf(p[keep])
    d = PchipInterpolator(q, z).derivative()(q)
    floor = transforms.DEFAULT_DERIVATIVE_FLOOR
    d[0] = max(d[0], min(floor, 3.0 * ((z[1] - z[0]) / (q[1] - q[0]))))
    d[-1] = max(d[-1], min(floor, 3.0 * ((z[-1] - z[-2]) / (q[-1] - q[-2]))))
    return q, z, d


@given(st.data(), st.sampled_from([8, 16, 64]))
def test_fitted_knots_and_slopes_match_the_scipy_fit(data, n_knots):
    n = data.draw(st.integers(min_value=2 * n_knots, max_value=3000))
    ties = data.draw(st.booleans())
    element = st.integers(min_value=0, max_value=5) if ties else finite
    # + 0.0 turns -0.0 into 0.0, as in the quantile oracle above
    sample = np.asarray(data.draw(st.lists(element, min_size=n, max_size=n)), dtype=float) + 0.0
    if np.ptp(sample) == 0.0:
        return
    try:
        q, z, d = _fit_with_scipy(sample, n_knots)
    except ValueError:  # fewer than 2 distinct knots
        with pytest.raises(FitError):
            fit_marginal_transform(sample, n_knots)
        return
    knots_in, knots_out = fit_marginal_transform(sample, n_knots)
    _assert_same_bits(knots_in, q)
    _assert_same_bits(knots_out, z)
    _assert_same_bits(Marginal1DTransform.from_knots(knots_in, knots_out).slopes, d)


@st.composite
def fitted_knot_tables(draw):
    """Knot tables as a fit writes them: tied samples merge quantile knots
    into ragged counts, continuous ones keep all n_knots, and some rows
    have 2 knots."""
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        x, y = draw(finite), draw(finite)
        return [x, x + draw(gap)], [y, y + draw(gap)]
    n_knots = draw(st.sampled_from([8, 16]))
    element = st.one_of(finite, st.integers(min_value=0, max_value=draw(
        st.integers(min_value=1, max_value=12))))
    sample = draw(st.lists(element, min_size=2 * n_knots, max_size=120))
    try:
        knots_in, knots_out = fit_marginal_transform(np.asarray(sample, dtype=float), n_knots)
    except FitError:  # fewer than 2 distinct values
        return [0.0, 1.0], [-1.0, 1.0]
    return knots_in.tolist(), knots_out.tolist()


@given(st.lists(fitted_knot_tables(), min_size=1, max_size=10),
       st.sampled_from([1e-6, 0.3, 3.0]))
def test_stacked_build_matches_from_knots_bit_for_bit(knots, floor):
    # KnotTable's build: one _checked_slopes call per knot count
    table = KnotTable(knots, floor)
    assert table.floor == floor
    _, _, _, d0, c2, c3 = table.segments
    for b, (x, y) in enumerate(knots):
        t = Marginal1DTransform.from_knots(x, y, derivative_floor=floor)
        _assert_same_bits(table.knots(b), (x, y))
        # the knot segments' slot columns, with transform's expressions on
        # from_knots' slopes, and the slopes of the low and the high tail
        lo, hi = b * table.stride, b * table.stride + len(x)
        d = t.slopes
        delta = np.diff(t.knots_out) / np.diff(t.knots_in)
        _assert_same_bits(d0[lo + 1:hi], d[:-1])
        _assert_same_bits(c2[lo + 1:hi], 3.0 * delta - 2.0 * d[:-1] - d[1:])
        _assert_same_bits(c3[lo + 1:hi], d[:-1] + d[1:] - 2.0 * delta)
        _assert_same_bits(d0[[lo, hi]], t.tail_slopes)
        # the end-slope and tail rules as Python's max and min on scipy's
        # slopes, one knot table at a time; 3 times the secant, which
        # rounds differently from (3 dy) / dx
        d = PchipInterpolator(x, y).derivative()(x)
        d[0] = max(d[0], min(floor, 3.0 * ((y[1] - y[0]) / (x[1] - x[0]))))
        d[-1] = max(d[-1], min(floor, 3.0 * ((y[-1] - y[-2]) / (x[-1] - x[-2]))))
        _assert_same_bits(t.slopes, d)
        _assert_same_bits(t.tail_slopes, (max(d[0], floor), max(d[-1], floor)))


def test_normal_quantile_tables_match_norm_ppf():
    for n in [*range(2, 130), 1000, 1001, 24576]:
        p, z = transforms._knot_levels(n)
        _assert_same_bits(p, (np.arange(n) + 0.5) / n)
        _assert_same_bits(z, norm.ppf(p))
        # wasserstein_1d_to_gaussian's plotting positions (j - 0.5) / n
        _assert_same_bits(z, norm.ppf((np.arange(1, n + 1) - 0.5) / n))


def test_knots_and_wasserstein_reject_bad_input():
    with pytest.raises(InputError, match="strictly increasing"):
        Marginal1DTransform.from_knots([0.0, 1.0, 1.0], [0.0, 1.0, 2.0])
    with pytest.raises(InputError, match="strictly increasing"):
        Marginal1DTransform.from_knots([0.0, 1.0, 2.0], [0.0, 2.0, 1.0])
    with pytest.raises(InputError, match="finite"):
        Marginal1DTransform.from_knots([0.0, np.nan, 2.0], [0.0, 1.0, 2.0])
    for bad in (np.nan, -np.inf, np.inf):
        with pytest.raises(InputError, match="finite"):
            wasserstein_1d_to_gaussian(np.array([0.0, bad, 1.0]))
