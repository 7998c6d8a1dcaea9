import importlib.util
import math
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from overdensity.errors import ConfigError, EventRejected, InputError
from overdensity.jets import (
    Particle,
    _Cluster,
    check_particle,
    cluster_antikt,
    extract_features,
    filter_jets,
    invariant_mass_pair,
    nsubjettiness,
    tau21,
    wrap_phi,
)
from reference_clustering import (
    matrix_cluster_antikt,
    matrix_extract_features,
    matrix_nsubjettiness,
    ref_cluster,
    ref_nsubjettiness,
)


def _load_dijet():
    # the benchmark's particle-event generator, by path: perfbench is no package
    path = Path(__file__).resolve().parents[1] / "perfbench" / "dijet.py"
    spec = importlib.util.spec_from_file_location("dijet", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


dijet = _load_dijet()


def _random_event(rng, n):
    return [Particle(pt=float(rng.uniform(1.0, 200.0)),
                     eta=float(rng.uniform(-3.0, 3.0)),
                     phi=float(rng.uniform(-math.pi, math.pi)),
                     mass=float(rng.choice([0.0, 0.1396])))
            for _ in range(n)]


def test_back_to_back_pair_mass_is_200():
    # two massless pt=100 particles, opposite in phi at eta=0: they are
    # farther apart than R, so each is promoted to its own jet, and the
    # pair mass is exactly sqrt((E1+E2)^2 - 0) = 200
    particles = [Particle(pt=100.0, eta=0.0, phi=0.0),
                 Particle(pt=100.0, eta=0.0, phi=math.pi)]
    jets = cluster_antikt(particles, R=1.0)
    assert len(jets) == 2
    assert invariant_mass_pair(jets[0], jets[1]) == pytest.approx(200.0, abs=1e-12)


def test_two_prong_subjettiness():
    # two equal prongs: one axis lands midway (tau1 = 0.4 by hand), two
    # axes land on the prongs (tau2 = 0), so the ratio vanishes
    prongs = [Particle(pt=100.0, eta=-0.4, phi=0.0),
              Particle(pt=100.0, eta=0.4, phi=0.0)]
    jet = cluster_antikt(prongs, R=1.0)[0]
    assert len(jet.constituents) == 2
    assert nsubjettiness(jet, 1) == pytest.approx(0.4, abs=1e-12)
    assert nsubjettiness(jet, 2) == pytest.approx(0.0, abs=1e-12)
    assert tau21(jet) == 0.0


def test_single_constituent_jet():
    jet = cluster_antikt([Particle(pt=50.0, eta=0.0, phi=1.0)], R=1.0)[0]
    assert nsubjettiness(jet, 1) == 0.0
    assert nsubjettiness(jet, 2) is None
    assert tau21(jet) is None


def test_matches_reference_clustering():
    rng = np.random.default_rng(123)
    for _ in range(60):
        particles = _random_event(rng, int(rng.integers(1, 26)))
        mine = cluster_antikt(particles, R=1.0)
        ref = ref_cluster(particles, R=1.0)
        assert len(mine) == len(ref)
        for a, b in zip(mine, ref):
            assert sorted(a.constituent_indices) == sorted(b.indices)
            for mine_c, ref_c in (("e", "e"), ("px", "px"), ("py", "py"), ("pz", "pz")):
                assert getattr(a, mine_c) == pytest.approx(
                    getattr(b, ref_c), rel=1e-12, abs=1e-12)


def test_matches_reference_with_small_radius():
    rng = np.random.default_rng(7)
    for _ in range(20):
        particles = _random_event(rng, int(rng.integers(2, 20)))
        mine = cluster_antikt(particles, R=0.4)
        ref = ref_cluster(particles, R=0.4)
        assert [sorted(j.constituent_indices) for j in mine] == \
            [sorted(j.indices) for j in ref]


def test_subjettiness_matches_reference():
    rng = np.random.default_rng(99)
    for _ in range(25):
        particles = _random_event(rng, int(rng.integers(3, 15)))
        jet = cluster_antikt(particles, R=1.5)[0]
        for n in (1, 2, 3):
            ref = ref_nsubjettiness(jet.constituents, n, R=1.5)
            mine = nsubjettiness(jet, n, R=1.5)
            if ref is None:
                assert mine is None
            else:
                assert mine == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_momentum_is_conserved(rng):
    particles = _random_event(rng, 40)
    jets = cluster_antikt(particles, R=0.7)
    total_in = np.zeros(4)
    for p in particles:
        total_in += p.four_momentum()
    total_out = np.zeros(4)
    for j in jets:
        total_out += [j.e, j.px, j.py, j.pz]
    np.testing.assert_allclose(total_out, total_in, rtol=1e-9)
    # partition: every particle lands in exactly one jet
    seen = sorted(i for j in jets for i in j.constituent_indices)
    assert seen == list(range(len(particles)))


def test_jets_are_pt_ordered(rng):
    jets = cluster_antikt(_random_event(rng, 30), R=0.6)
    pts = [j.pt for j in jets]
    assert pts == sorted(pts, reverse=True)


def test_filter_jets_is_strict():
    particles = [Particle(pt=100.0, eta=2.4999, phi=0.0),
                 Particle(pt=90.0, eta=2.5, phi=2.0),
                 Particle(pt=80.0, eta=-2.6, phi=-2.0)]
    jets = cluster_antikt(particles, R=0.4)
    kept = filter_jets(jets, eta_max=2.5)
    assert [j.pt for j in kept] == pytest.approx([100.0])


def test_particle_validation():
    with pytest.raises(InputError):
        Particle(pt=0.0, eta=0.0, phi=0.0)
    with pytest.raises(InputError):
        Particle(pt=-5.0, eta=0.0, phi=0.0)
    with pytest.raises(InputError):
        Particle(pt=10.0, eta=float("nan"), phi=0.0)
    with pytest.raises(InputError):
        Particle(pt=10.0, eta=0.0, phi=0.0, mass=-1.0)
    # pz = pt * sinh(eta) must be a finite double: math.sinh overflows
    # beyond |eta| ~ 710.5, and a huge pt overflows the product before that
    for pt, eta in ((1.0, 800.0), (1.0, -800.0), (1e300, 700.0)):
        with pytest.raises(InputError, match=r"particle \|eta\| too large"):
            Particle(pt=pt, eta=eta, phi=0.0)
    # so must the energy (at pt = 1, pz^2 overflows between eta 355 and
    # 356); a momentum bound rejects every such particle
    for pt, eta, mass, message in (
            (1.0, 356.0, 0.0, r"particle \|pz\| = \|pt \* sinh\(eta\)\| above 1e\+140$"),
            (1.0, -700.0, 0.0, r"particle \|pz\| = \|pt \* sinh\(eta\)\| above 1e\+140$"),
            (1e160, 0.0, 0.0, r"particle pt above 1e\+140$"),
            (1.0, 0.0, 1e160, r"particle mass above 1e\+140$")):
        with pytest.raises(InputError, match=message):
            Particle(pt=pt, eta=eta, phi=0.0, mass=mass)
    assert Particle(pt=10.0, eta=0.0, phi=1.5 * math.pi).phi == pytest.approx(
        -0.5 * math.pi)


def test_particle_momentum_bounds():
    # pt in [1e-150, 1e140] keeps pt^2 and pt^-2 finite normal doubles, and
    # pt, |pz| and mass up to 1e140 keep summed momenta finite when squared
    Particle(pt=1e-150, eta=0.0, phi=0.0)
    Particle(pt=1e140, eta=0.0, phi=0.0, mass=1e140)
    # at pt = 1, |pz| = sinh(eta) reaches 1e140 at eta = 323.06
    assert Particle(pt=1.0, eta=323.0, phi=0.0).four_momentum()[0] == math.sinh(323.0)
    for kwargs, message in (
            (dict(pt=math.nextafter(1e-150, 0.0)), "particle pt below 1e-150"),
            (dict(pt=1e-160), "particle pt below 1e-150"),
            (dict(pt=math.nextafter(1e140, math.inf)), "particle pt above 1e"),
            (dict(pt=1.3e154), "particle pt above 1e"),
            (dict(pt=1.0, eta=-324.0), r"particle \|pz\| = \|pt \* sinh\(eta\)\| above 1e"),
            (dict(pt=1e20, eta=300.0), r"particle \|pz\|"),
            (dict(pt=1.0, mass=math.nextafter(1e140, math.inf)), "particle mass above 1e")):
        with pytest.raises(InputError, match=message):
            Particle(**{"eta": 0.0, "phi": 0.0, **kwargs})


# magnitudes over the whole range up to 1e300, half drawn log-uniformly
_magnitudes = st.one_of(st.floats(min_value=0.0, max_value=1e300),
                        st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0 ** e))


@given(_magnitudes, st.floats(min_value=-800.0, max_value=800.0), st.floats(), _magnitudes)
# particles whose energy overflows: pt, mass or |pz| is past its bound
@example(1e160, 0.0, 0.0, 0.0)
@example(1.0, 0.0, 0.0, 1e160)
@example(1.0, -700.0, 0.0, 0.0)
def test_accepted_particles_have_a_finite_four_momentum(pt, eta, phi, mass):
    # the momentum bounds keep the energy finite without a rule of its own
    try:
        check_particle(pt, eta, phi, mass)
    except InputError:
        return
    assert all(map(math.isfinite, Particle(pt, eta, phi, mass).four_momentum()))


def test_extract_features_two_clear_jets():
    particles = [
        Particle(pt=300.0, eta=0.1, phi=0.0), Particle(pt=120.0, eta=0.5, phi=0.3),
        Particle(pt=280.0, eta=-0.2, phi=3.0), Particle(pt=110.0, eta=-0.6, phi=2.8),
    ]
    feats = extract_features(particles, R=1.0, eta_max=2.5)
    jets = filter_jets(cluster_antikt(particles, R=1.0), 2.5)
    assert feats.m_jj == pytest.approx(invariant_mass_pair(jets[0], jets[1]))
    assert feats.m_j1 == pytest.approx(jets[0].mass)
    assert feats.dm == pytest.approx(jets[0].mass - jets[1].mass)
    # the conditional first, then the model features
    assert feats.to_row() == [feats.m_jj, feats.m_j1, feats.dm,
                              feats.tau21_1, feats.tau21_2]


def test_extract_features_rejects_thin_events():
    with pytest.raises(EventRejected) as exc:
        extract_features([Particle(pt=100.0, eta=0.0, phi=0.0)])
    assert exc.value.reason == "fewer_than_two_jets"
    # two isolated single-particle jets: pair mass exists, tau21 does not
    with pytest.raises(EventRejected) as exc:
        extract_features([Particle(pt=3000.0, eta=0.3, phi=0.0),
                          Particle(pt=2900.0, eta=-0.3, phi=3.0)])
    assert exc.value.reason == "tau21_undefined"
    # forward jets fall outside the acceptance entirely
    with pytest.raises(EventRejected) as exc:
        extract_features([Particle(pt=100.0, eta=4.0, phi=0.0),
                          Particle(pt=90.0, eta=-4.0, phi=3.0)])
    assert exc.value.reason == "fewer_than_two_jets"


@pytest.mark.parametrize("R", [0.0, -1.0, math.nan, math.inf, 1e200, 1e-200])
def test_radius_whose_square_is_not_positive_and_finite_is_rejected(R):
    # the distances are divided by R * R: at 1e200 it overflows to inf and
    # every particle merges into one jet; at 1e-200 it underflows to 0 and
    # every particle is a jet of its own
    particles = [Particle(pt=300.0, eta=0.1, phi=0.0), Particle(pt=120.0, eta=0.5, phi=0.3)]
    message = "R must be positive with a positive finite square"
    with pytest.raises(ConfigError, match=message):
        cluster_antikt(particles, R=R)
    jet = cluster_antikt(particles, R=1.0)[0]
    with pytest.raises(ConfigError, match=message):
        nsubjettiness(jet, 1, R=R)
    with pytest.raises(ConfigError, match=message):
        extract_features(particles, R=R)


@pytest.mark.parametrize("R", [np.float64(1e200), np.float64(np.inf), np.float64(1e-200)])
def test_numpy_scalar_radius_is_rejected_without_a_warning(R):
    # a numpy scalar's square warns of overflow or underflow; the suite
    # makes a RuntimeWarning an error, which would replace the ConfigError
    particles = [Particle(pt=300.0, eta=0.1, phi=0.0), Particle(pt=120.0, eta=0.5, phi=0.3)]
    with pytest.raises(ConfigError) as exc:
        cluster_antikt(particles, R=R)
    assert str(exc.value) == "R must be positive with a positive finite square"


@given(st.floats(min_value=-50.0, max_value=50.0),
       st.integers(min_value=-8, max_value=8))
def test_wrap_phi_is_periodic_and_bounded(phi, k):
    wrapped = wrap_phi(phi)
    assert -math.pi <= wrapped < math.pi
    assert wrap_phi(phi + 2.0 * math.pi * k) == pytest.approx(
        wrapped, abs=1e-9) or abs(abs(wrapped) - math.pi) < 1e-9


@given(st.integers(min_value=1, max_value=18), st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_clustering_partition_property(n, seed):
    rng = np.random.default_rng(seed)
    particles = _random_event(rng, n)
    jets = cluster_antikt(particles, R=0.8)
    seen = sorted(i for j in jets for i in j.constituent_indices)
    assert seen == list(range(n))
    pts = [j.pt for j in jets]
    assert pts == sorted(pts, reverse=True)


_TIE_PTS = (40.566, 26.352)


def _jet_bits(jets):
    return [(j.e, j.px, j.py, j.pz, j.constituent_indices) for j in jets]


def _features_or_reason(extract, particles, R, eta_max=2.5):
    try:
        return extract(particles, R, eta_max).to_row()
    except EventRejected as exc:
        return exc.reason


@settings(max_examples=60)
@example(n=250, R=1.0, ties=False, seed=0)
@example(n=250, R=1.5, ties=True, seed=0)
@given(st.integers(min_value=1, max_value=250),
       st.sampled_from([0.4, 1.0, 1.5]),
       st.booleans(),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_clusterer_matches_matrix_oracle_bit_for_bit(n, R, ties, seed):
    rng = np.random.default_rng(seed)
    if ties:
        # two pt values on a dyadic eta/phi grid, so many pair distances
        # are exactly equal and the tie rules decide the merge order; for
        # both, libm pow(pt^2, -1) and numpy's 1 / pt^2 differ in the last
        # bit, so a pair that takes its row factor from the wrong one
        # breaks a tie the other way
        particles = [Particle(pt=_TIE_PTS[k], eta=a / 8.0, phi=b / 8.0)
                     for k, a, b in zip(rng.integers(0, 2, n), rng.integers(-16, 17, n),
                                        rng.integers(-25, 26, n))]
    else:
        particles = _random_event(rng, n)
    jets = cluster_antikt(particles, R)
    oracle = matrix_cluster_antikt(particles, R)
    assert _jet_bits(jets) == _jet_bits(oracle)
    for jet, ref in zip(jets, oracle):
        for k in (1, 2, 3):
            assert nsubjettiness(jet, k, R) == matrix_nsubjettiness(ref, k, R)
        # tau21 takes both axes sets from one kt declustering
        t1, t2 = nsubjettiness(jet, 1, R), nsubjettiness(jet, 2, R)
        assert tau21(jet, R) == (None if t2 is None else 0.0 if t1 == 0.0 else t2 / t1)
    assert _features_or_reason(extract_features, particles, R) == \
        _features_or_reason(matrix_extract_features, particles, R)


def _dijet_rows(seed, n, soft_scale=1.0):
    """A harness event: two hard two-prong jets (rows 0-1 and 2-3) and a
    soft spray, its pt scaled by soft_scale."""
    _, rows = dijet.make_event(np.random.default_rng(seed), n)
    rows[dijet.HARD_PARTICLES:, 0] *= soft_scale
    return rows


def _particles(rows):
    return [Particle(*map(float, row)) for row in rows]


@settings(max_examples=40)
# the stop fires early; with the soft pt x1000 it fires only near the end;
# a narrow eta_max drops one hard jet
@example(n=200, R=1.0, soft_scale=1.0, narrow=False, seed=0)
@example(n=200, R=1.0, soft_scale=1000.0, narrow=False, seed=0)
@example(n=200, R=0.4, soft_scale=1.0, narrow=True, seed=1)
@given(st.integers(min_value=4, max_value=220),
       st.sampled_from([0.4, 1.0, 1.5]),
       st.sampled_from([1.0, 5.0, 60.0, 1000.0]),
       st.booleans(),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_dijet_features_match_matrix_oracle_bit_for_bit(n, R, soft_scale, narrow, seed):
    # extract_features stops anti-kt early on such events; the oracle
    # always clusters the whole event
    rows = _dijet_rows(seed, n, soft_scale)
    eta_max = 2.5
    if narrow:
        # midway between the two hard jets' |eta|: one passes, one not
        lo, hi = sorted(abs(j.eta) for j in cluster_antikt(_particles(rows[:4]), 1.0)[:2])
        eta_max = (lo + hi) / 2 or 2.5
    particles = _particles(rows)
    assert _features_or_reason(extract_features, particles, R, eta_max) == \
        _features_or_reason(matrix_extract_features, particles, R, eta_max)


def _antikt_merges(monkeypatch, call):
    """call() and the number of anti-kt merges it made."""
    merges = 0
    merge = _Cluster.merge

    def counted(self, i, j):
        nonlocal merges
        merges += self.power < 0
        merge(self, i, j)

    monkeypatch.setattr(_Cluster, "merge", counted)
    try:
        result = call()
    finally:
        monkeypatch.undo()
    return result, merges


def test_extract_features_stops_once_the_lead_jets_are_settled(monkeypatch):
    particles = _particles(_dijet_rows(0, 200))
    row, stopped = _antikt_merges(
        monkeypatch, lambda: extract_features(particles).to_row())
    _, full = _antikt_merges(monkeypatch, lambda: cluster_antikt(particles))
    assert stopped < full
    assert row == matrix_extract_features(particles).to_row()


@pytest.mark.parametrize("soft_over_j2, fires", [
    (1.0 - 0.5e-9, False),  # below j2, yet inside the rounding margin
    (1.0 - 2e-9, True),
])
def test_stop_waits_for_the_margin_over_live_pt(monkeypatch, soft_over_j2, fires):
    # two hard two-prong jets merge and are made first; eight soft
    # particles, far from them and in four pairs 0.5 apart, are then all
    # that is live.  Their pt sums to soft_over_j2 times the second jet's,
    # and the pairs merge only if the stop does not fire on that jet
    hard = [Particle(600.0, 0.0, 0.0), Particle(400.0, 0.2, 0.0),
            Particle(500.0, 0.0, 3.0), Particle(300.0, 0.2, 3.0)]
    j2_pt = cluster_antikt(hard)[1].pt
    soft_pt = j2_pt / 8 * soft_over_j2
    particles = hard + [Particle(soft_pt, eta, phi + dphi)
                        for eta in (-2.0, 2.0) for phi in (-1.5, 1.5) for dphi in (0.0, 0.5)]
    row, stopped = _antikt_merges(
        monkeypatch, lambda: extract_features(particles).to_row())
    _, full = _antikt_merges(monkeypatch, lambda: cluster_antikt(particles))
    assert full == 6
    assert stopped == (2 if fires else full)
    assert row == matrix_extract_features(particles).to_row()


def test_eta_max_is_checked_after_radius_and_before_clustering(monkeypatch):
    particles = [Particle(pt=300.0, eta=0.1, phi=0.0), Particle(pt=120.0, eta=0.5, phi=0.3)]
    with pytest.raises(ConfigError, match="R must be positive with a positive finite square"):
        extract_features(particles, R=0.0, eta_max=0.0)

    def no_clustering(*args, **kwargs):
        raise AssertionError("clustered before the eta_max check")

    monkeypatch.setattr(_Cluster, "__init__", no_clustering)
    for eta_max in (0.0, -1.0, math.nan):
        with pytest.raises(ConfigError, match="eta_max must be positive"):
            extract_features(particles, R=1.0, eta_max=eta_max)


def test_zero_pt_pseudojet_is_promoted_once():
    # at R = 4 the back-to-back soft pair merges first; their px and py
    # cancel exactly, so the merged pseudojet has d_beam = inf while the
    # hard particle, promoted before it, leaves a dead slot below it
    particles = [Particle(pt=100.0, eta=4.5, phi=0.0),
                 Particle(pt=3.0, eta=0.0, phi=-2.456761473743528),
                 Particle(pt=3.0, eta=0.0, phi=0.684831179846265)]
    result = []
    worker = threading.Thread(target=lambda: result.append(cluster_antikt(particles, R=4.0)),
                              daemon=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        worker.start()
        worker.join(timeout=20.0)
    assert not worker.is_alive(), "cluster_antikt did not terminate"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], caught
    jets = result[0]
    assert sorted(i for j in jets for i in j.constituent_indices) == [0, 1, 2]
    assert [j.pt for j in jets] == [100.0, 0.0]


@pytest.mark.parametrize("power", [-1, 1])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_merged_column_factor_is_numpys_array_power(power, seed):
    # a slot's column factor must be numpy's array power of its pt^2 (a
    # reciprocal for power -1), never libm's scalar pow: on these pt the two
    # differ in the last bit, which the tie rules can see.  At 120 slots the
    # table is compacted on the way, so the check covers the copies too
    rng = np.random.default_rng(seed)
    n = 120
    particles = [Particle(pt=_TIE_PTS[k], eta=a / 8.0, phi=b / 8.0)
                 for k, a, b in zip(rng.integers(0, 2, n), rng.integers(-16, 17, n),
                                    rng.integers(-25, 26, n))]
    cl = _Cluster(particles, 1.0, power)
    while True:
        live = np.flatnonzero(~cl.dead)
        expected = np.array([cl.pt2[k] for k in live]) ** power
        assert (cl.pt2_pow[live].view(np.int64) == expected.view(np.int64)).all()
        if len(live) == 1:
            break
        _, i, j = cl.min_pair()
        cl.merge(i, j)
