"""Sequential-recombination jet clustering and substructure features.

Anti-kt clustering with E-scheme recombination, a kt-based exclusive
declustering for n-subjettiness axes, and the per-event reduction to the
five dijet features (m_jj, m_j1, m_j1 - m_j2, tau21 of both lead jets).

The clusterer keeps every pair distance in a symmetric n x n table, set
up in one broadcast over all pairs.  Each step takes one argmin over the
table and one over the beam distances; a merge refreshes one row and its
column through numpy calls that write into row buffers the clusterer
keeps, so a step allocates no array, and sums the momenta in Python
floats.  Once half the slots of a large table are dead, it is compacted
to its live slots, in their order.  A pair distance takes its row factor
from libm pow(pt^2, power) and its column factor from numpy's array power
(a reciprocal for anti-kt); the two can differ in the last bit.  That is
O(n^2) work per step in a handful of numpy calls - ample for events up
to several hundred particles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, EventRejected, InputError

_TWO_PI = 2.0 * math.pi
# the same doubles as 0-d arrays, which a ufunc takes without converting
_PI_0D = np.array(math.pi)
_TWO_PI_0D = np.array(_TWO_PI)
# smaller pair tables are never compacted: at 50 slots the copies cost
# more than the shorter scans save
_COMPACT_MIN_SLOTS = 64
# pseudorapidity sentinel for zero-pt pseudojets (exact momentum cancellation)
_ETA_SENTINEL = 1e10
# the particle rules' bounds: pt >= _PT_MIN keeps pt^2 and pt^-2 finite
# normal doubles, and pt, |pz|, mass <= _MOMENTUM_MAX keep an energy below
# 1.8e140, so the squares of summed momenta stay finite up to 1e13 particles
_PT_MIN = 1e-150
_MOMENTUM_MAX = 1e140


def wrap_phi(phi):
    """Wrap azimuth to [-pi, pi)."""
    return (phi + math.pi) % _TWO_PI - math.pi


def check_particle(pt, eta, phi, mass):
    """Raise InputError unless (pt, eta, phi, mass) is a particle the
    clusterer can take: every value finite, pt > 0, mass >= 0,
    pz = pt * sinh(eta) a finite double, pt in [_PT_MIN, _MOMENTUM_MAX],
    and |pz| and mass at most _MOMENTUM_MAX, so that the energy
    Particle.four_momentum computes is finite."""
    if not (math.isfinite(pt) and math.isfinite(eta)
            and math.isfinite(phi) and math.isfinite(mass)):
        raise InputError("particle kinematics must be finite")
    if pt <= 0:
        raise InputError("particle pt must be positive")
    if mass < 0:
        raise InputError("particle mass must be non-negative")
    try:
        pz = pt * math.sinh(eta)
    except OverflowError:
        pz = math.inf
    if not math.isfinite(pz):
        raise InputError("particle |eta| too large: pt * sinh(eta) overflows")
    if pt < _PT_MIN:
        raise InputError(f"particle pt below {_PT_MIN:g}: 1/pt^2 overflows")
    if pt > _MOMENTUM_MAX:
        raise InputError(f"particle pt above {_MOMENTUM_MAX:g}")
    if abs(pz) > _MOMENTUM_MAX:
        raise InputError(f"particle |pz| = |pt * sinh(eta)| above {_MOMENTUM_MAX:g}")
    if mass > _MOMENTUM_MAX:
        raise InputError(f"particle mass above {_MOMENTUM_MAX:g}")


@dataclass
class Particle:
    """Massless-by-default input particle in (pt, eta, phi[, mass]); phi
    is wrapped to [-pi, pi) on construction."""

    pt: float
    eta: float
    phi: float
    mass: float = 0.0

    def __post_init__(self):
        check_particle(self.pt, self.eta, self.phi, self.mass)
        self.phi = wrap_phi(self.phi)

    def four_momentum(self):
        px = self.pt * math.cos(self.phi)
        py = self.pt * math.sin(self.phi)
        pz = self.pt * math.sinh(self.eta)
        return math.sqrt(px * px + py * py + pz * pz + self.mass * self.mass), px, py, pz


@dataclass
class Jet:
    """Clustered jet: E-scheme four-momentum plus its constituents."""

    e: float
    px: float
    py: float
    pz: float
    constituents: list
    constituent_indices: list
    pt: float = field(init=False)
    eta: float = field(init=False)
    phi: float = field(init=False)
    mass: float = field(init=False)

    def __post_init__(self):
        pt2 = self.px * self.px + self.py * self.py
        self.pt = math.sqrt(pt2)
        if pt2 > 0:
            self.eta = math.asinh(self.pz / self.pt)
        else:
            self.eta = math.copysign(_ETA_SENTINEL, self.pz) if self.pz else 0.0
        self.phi = math.atan2(self.py, self.px)
        m2 = self.e * self.e - (pt2 + self.pz * self.pz)
        self.mass = math.sqrt(m2) if m2 > 0 else 0.0

    def four_momentum(self):
        return self.e, self.px, self.py, self.pz


def _delta_r2(eta1, phi1, eta2, phi2):
    deta = eta1 - eta2
    dphi = (phi1 - phi2 + math.pi) % _TWO_PI - math.pi
    return deta * deta + dphi * dphi


class _Cluster:
    """Mutable pseudojet soup with a symmetric pair-distance table.
    power = -1 gives anti-kt, +1 gives kt.

    d_pair holds each live pair's distance in both triangles and inf on
    the diagonal and in dead rows and columns, so the first flat argmin is
    the first minimal (lo, hi) in row-major order of the upper triangle.
    A pair's value keeps the bits of the call that set it: its row factor
    is the scalar power pt2[i] ** power (libm pow), its column factor the
    array power held in pt2_pow (numpy's reciprocal for power -1), which
    can differ from it in the last bit.  d_beam holds the array power
    from set-up and the scalar power for a merged slot.

    The per-slot bookkeeping (e, px, py, pz and pt2) lives in Python
    lists of floats: the same IEEE additions and the same libm pow as
    numpy's float64 scalars, without their overhead.  A merged pt2 is
    pow(px, 2) + pow(py, 2), which can differ from px * px + py * py.
    eta, phi and pt2_pow are arrays: a merge refreshes its slot's row of
    distances with numpy calls that write into two row buffers kept for
    the purpose, and a kept mask sends the dead slots to inf, so a step
    allocates no array.  The exception is min_pair's compaction: once half
    the slots of a table of 64 or more are dead, it copies every array and
    list down to the live slots, O(log n) times per clustering.
    """

    def __init__(self, particles, R, power):
        self.R2 = np.array(R * R)  # 0-d, as _PI_0D
        self.power = power
        n = len(particles)
        self.n = n
        # one row per particle: pt, eta, phi and the four-momentum
        cols = np.array([(p.pt, p.eta, p.phi, *p.four_momentum())
                         for p in particles]).T.copy()
        pt, self.eta, self.phi = cols[0], cols[1], cols[2]
        self.e, self.px, self.py, self.pz = cols[3:].tolist()
        pt2 = pt * pt
        self.pt2 = pt2.tolist()
        self.dead = np.zeros(n, dtype=bool)
        self.n_alive = n
        self.constituents = [[i] for i in range(n)]
        self.pt2_pow = pt2 ** power
        self.d_beam = self.pt2_pow.copy()
        row_pow = np.array([_pow(v, power) for v in self.pt2])
        d = self._distances(self.eta[:, None], self.phi[:, None], row_pow[:, None],
                            np.empty((n, n)), np.empty((n, n)))
        # each pair from its lower index: the phi wrap is not antisymmetric
        idx = np.arange(n)
        self.d_pair = np.where(idx[:, None] < idx, d, d.T)
        np.fill_diagonal(self.d_pair, np.inf)
        self._row = np.empty(n)
        self._scratch = np.empty(n)
        self._col_pow = np.empty(1)

    def _distances(self, eta, phi, row_pow, out, scratch):
        """min(row_pow, pt2_pow) * dR^2 / R^2 of (eta, phi) against every
        slot, written into out (scratch is overwritten too)."""
        np.subtract(eta, self.eta, out=out)
        np.square(out, out=out)
        np.subtract(phi, self.phi, out=scratch)
        np.add(scratch, _PI_0D, out=scratch)
        np.remainder(scratch, _TWO_PI_0D, out=scratch)
        np.subtract(scratch, _PI_0D, out=scratch)
        np.square(scratch, out=scratch)
        np.add(out, scratch, out=out)
        np.minimum(row_pow, self.pt2_pow, out=scratch)
        np.multiply(scratch, out, out=out)
        np.divide(out, self.R2, out=out)
        return out

    def min_pair(self):
        """(distance, lo, hi) of the first minimal live pair.  A table of
        _COMPACT_MIN_SLOTS or more slots, half of them dead, is compacted
        first, so slot indices from an earlier step no longer hold."""
        if self.n_alive * 2 <= self.n and self.n >= _COMPACT_MIN_SLOTS:
            self._compact()
        flat = int(self.d_pair.argmin())
        i, j = divmod(flat, self.n)
        return self.d_pair.item(flat), i, j

    def min_beam(self):
        i = int(self.d_beam.argmin())
        if self.dead[i]:
            # every live pseudojet has zero pt (d_beam = inf), and argmin
            # fell on a dead slot: promote the first live one
            i = int(self.dead.argmin())
        return self.d_beam.item(i), i

    def merge(self, i, j):
        self.e[i] += self.e[j]
        px = self.px[i] = self.px[i] + self.px[j]
        py = self.py[i] = self.py[i] + self.py[j]
        pz = self.pz[i] = self.pz[i] + self.pz[j]
        pt2 = self.pt2[i] = _pow(px, 2) + _pow(py, 2)
        if pt2 > 0:
            eta = math.asinh(pz / math.sqrt(pt2))
            row_pow = _pow(pt2, self.power)
            # the column factor is numpy's array power, as at set-up
            self._col_pow[0] = pt2
            self._col_pow **= self.power
            col_pow = self._col_pow[0]
            self.d_beam[i] = row_pow
        else:
            eta = math.copysign(_ETA_SENTINEL, pz) if pz else 0.0
            # 0 ** power, without numpy's division-by-zero warning
            row_pow = col_pow = math.inf if self.power < 0 else 0.0
            self.d_beam[i] = np.inf
        phi = math.atan2(py, px)
        self.eta[i] = eta
        self.phi[i] = phi
        self.constituents[i] = self.constituents[i] + self.constituents[j]
        self._kill(j)
        # slot i's own entry is discarded, so its column factor is set only
        # after the row: an infinite one would meet dR = 0 there (inf * 0)
        row = self._distances(eta, phi, row_pow, self._row, self._scratch)
        self.pt2_pow[i] = col_pow
        np.copyto(row, np.inf, where=self.dead)
        row[i] = np.inf
        self.d_pair[i] = row
        self.d_pair[:, i] = row

    def _compact(self):
        """Drop the dead slots and keep the live ones in their order, so
        every value keeps its bits and the first minimal pair and beam
        distance are the same pseudojets as before."""
        live = np.flatnonzero(~self.dead)
        self.d_pair = self.d_pair[np.ix_(live, live)]
        self.eta = self.eta[live]
        self.phi = self.phi[live]
        self.pt2_pow = self.pt2_pow[live]
        self.d_beam = self.d_beam[live]
        live = live.tolist()
        self.e, self.px, self.py, self.pz, self.pt2, self.constituents = (
            [values[k] for k in live] for values in
            (self.e, self.px, self.py, self.pz, self.pt2, self.constituents))
        self.n = len(live)
        self.dead = np.zeros(self.n, dtype=bool)
        self._row = self._row[:self.n]
        self._scratch = self._scratch[:self.n]

    def _kill(self, i):
        self.dead[i] = True
        self.n_alive -= 1
        self.d_beam[i] = np.inf
        self.d_pair[i, :] = np.inf
        self.d_pair[:, i] = np.inf

    def jet_from_slot(self, particles, i):
        idx = list(self.constituents[i])
        return Jet(e=self.e[i], px=self.px[i], py=self.py[i], pz=self.pz[i],
                   constituents=[particles[c] for c in idx], constituent_indices=idx)

    def axis_from_slot(self, i):
        return self.eta.item(i), self.phi.item(i)


def _pow(x, power):
    """x ** power through libm pow, as numpy's float64 scalars give it,
    with inf where the result overflows and for 0 ** -1 (no caller takes
    a negative result)."""
    try:
        return x ** power
    except (OverflowError, ZeroDivisionError):
        return math.inf


def check_radius(R, name="R"):
    """Raise ConfigError unless R > 0 and R * R is positive and finite.

    The rule is taken on float(R), whose square overflows or underflows
    without numpy's warnings."""
    R = float(R)
    if not (R > 0 and 0 < R * R < math.inf):
        raise ConfigError(f"{name} must be positive with a positive finite square")


def cluster_antikt(particles, R: float = 1.0) -> list:
    """Anti-kt clustering; returns jets sorted by descending pt.

    d_ij = min(pt_i^-2, pt_j^-2) * dR^2 / R^2 against d_iB = pt_i^-2;
    the smaller wins each step (beam on exact ties), with E-scheme
    recombination.  R must pass check_radius.
    """
    check_radius(R)
    particles = list(particles)
    if not particles:
        return []
    cl = _Cluster(particles, R, power=-1)
    jets = []
    while cl.n_alive:
        d_pair, i, j = cl.min_pair()
        d_beam, b = cl.min_beam()
        if d_beam <= d_pair:
            jets.append(cl.jet_from_slot(particles, b))
            cl._kill(b)
        else:
            cl.merge(i, j)
    return sorted(jets, key=lambda jet: -jet.pt)


def filter_jets(jets, eta_max: float = 2.5) -> list:
    """Keep jets with |eta| strictly below eta_max."""
    if not eta_max > 0:
        raise ConfigError("eta_max must be positive")
    return [j for j in jets if abs(j.eta) < eta_max]


def invariant_mass_pair(jet1: Jet, jet2: Jet) -> float:
    """Invariant mass of the summed four-momentum of two jets."""
    e = jet1.e + jet2.e
    px = jet1.px + jet2.px
    py = jet1.py + jet2.py
    pz = jet1.pz + jet2.pz
    m2 = e * e - (px * px + py * py + pz * pz)
    return math.sqrt(m2) if m2 > 0 else 0.0


def _subjettiness(jet, counts, R):
    """tau_n of the jet for each n in counts, largest first, or None when
    the jet has fewer constituents than counts[0].  The axes come from one
    exclusive-kt declustering: its run down to n - 1 subjets repeats every
    merge of the run down to n."""
    check_radius(R)
    consts = jet.constituents
    if len(consts) < counts[0]:
        return None
    total_pt = sum(p.pt for p in consts)
    cl = _Cluster(consts, R, power=1)
    taus = []
    for n_axes in counts:
        while cl.n_alive > n_axes:
            _, i, j = cl.min_pair()
            cl.merge(i, j)
        axes = [cl.axis_from_slot(i) for i in np.flatnonzero(~cl.dead)]
        acc = 0.0
        for p in consts:
            acc += p.pt * math.sqrt(min(_delta_r2(p.eta, p.phi, ae, ap) for ae, ap in axes))
        taus.append(acc / (R * total_pt))
    return taus


def nsubjettiness(jet: Jet, n: int, R: float = 1.0):
    """tau_n of a jet; None when the jet has fewer than n constituents.

    tau_n = sum_k pt_k * min_axes dR(k, axis) / (R * sum_k pt_k), with
    axes from exclusive-kt declustering to n subjets.
    """
    if n < 1:
        raise InputError("n must be at least 1")
    taus = _subjettiness(jet, (n,), R)
    return None if taus is None else taus[0]


def tau21(jet: Jet, R: float = 1.0):
    """tau_2 / tau_1 with the 0/0 -> 0 convention; None if undefined.

    Both come from one kt declustering: its run down to 2 axes, then one
    merge more.
    """
    taus = _subjettiness(jet, (2, 1), R)
    if taus is None:
        return None
    t2, t1 = taus
    if t1 == 0.0:
        return 0.0
    return t2 / t1


@dataclass
class EventFeatures:
    """The five dijet features, in their fixed column order."""

    m_jj: float
    m_j1: float
    dm: float
    tau21_1: float
    tau21_2: float

    def to_row(self):
        return [self.m_jj, self.m_j1, self.dm, self.tau21_1, self.tau21_2]


def extract_features(particles, R: float = 1.0, eta_max: float = 2.5) -> EventFeatures:
    """Reduce one event's particles to the five dijet features.

    The two lead jets are taken by descending pt after the |eta| filter;
    m_j1 belongs to the higher-pt jet (not the heavier one), so dm can be
    negative.  Raises EventRejected (with a reason code) when fewer than
    two jets survive or a lead jet has a single constituent.
    """
    jets = filter_jets(cluster_antikt(particles, R), eta_max)
    if len(jets) < 2:
        raise EventRejected("fewer_than_two_jets")
    j1, j2 = jets[0], jets[1]
    t1 = tau21(j1, R)
    t2 = tau21(j2, R)
    if t1 is None or t2 is None:
        raise EventRejected("tau21_undefined")
    return EventFeatures(m_jj=invariant_mass_pair(j1, j2), m_j1=j1.mass,
                         dm=j1.mass - j2.mass, tau21_1=t1, tau21_2=t2)
