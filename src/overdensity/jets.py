"""Sequential-recombination jet clustering and substructure features.

Anti-kt clustering with E-scheme recombination, a kt-based exclusive
declustering for n-subjettiness axes, and the per-event reduction to the
five dijet features (m_jj, m_j1, m_j1 - m_j2, tau21 of both lead jets).

The clusterer is the plain O(n^2) algorithm with an incrementally updated
distance matrix - ample for events up to several hundred particles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, EventRejected, InputError

_TWO_PI = 2.0 * math.pi
# pseudorapidity sentinel for zero-pt pseudojets (exact momentum cancellation)
_ETA_SENTINEL = 1e10


def wrap_phi(phi):
    """Wrap azimuth to [-pi, pi)."""
    return (phi + math.pi) % _TWO_PI - math.pi


@dataclass
class Particle:
    """Massless-by-default input particle in (pt, eta, phi[, mass])."""

    pt: float
    eta: float
    phi: float
    mass: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.pt) and math.isfinite(self.eta)
                and math.isfinite(self.phi) and math.isfinite(self.mass)):
            raise InputError("particle kinematics must be finite")
        if self.pt <= 0:
            raise InputError("particle pt must be positive")
        if self.mass < 0:
            raise InputError("particle mass must be non-negative")
        self.phi = wrap_phi(self.phi)

    def four_momentum(self):
        px = self.pt * math.cos(self.phi)
        py = self.pt * math.sin(self.phi)
        pz = self.pt * math.sinh(self.eta)
        e = math.sqrt(px * px + py * py + pz * pz + self.mass * self.mass)
        return e, px, py, pz


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
    """Mutable pseudojet soup with an incrementally maintained distance
    matrix.  power = -1 gives anti-kt, +1 gives kt."""

    def __init__(self, particles, R, power):
        self.R2 = R * R
        self.power = power
        n = len(particles)
        self.e = np.empty(n)
        self.px = np.empty(n)
        self.py = np.empty(n)
        self.pz = np.empty(n)
        self.pt2 = np.empty(n)
        self.eta = np.empty(n)
        self.phi = np.empty(n)
        for i, p in enumerate(particles):
            self.e[i], self.px[i], self.py[i], self.pz[i] = p.four_momentum()
            self.pt2[i] = p.pt * p.pt
            self.eta[i] = p.eta
            self.phi[i] = p.phi
        self.alive = np.ones(n, dtype=bool)
        self.constituents = [[i] for i in range(n)]
        self.d_beam = self.pt2 ** power
        self.d_pair = np.full((n, n), np.inf)
        for i in range(n - 1):
            self._refresh_pairs(i, np.arange(i + 1, n))

    def _refresh_pairs(self, i, js):
        if js.size == 0:
            return
        dr2 = (self.eta[i] - self.eta[js]) ** 2 \
            + ((self.phi[i] - self.phi[js] + math.pi) % _TWO_PI - math.pi) ** 2
        scale = np.minimum(self.pt2[i] ** self.power, self.pt2[js] ** self.power)
        lo = np.minimum(i, js)
        hi = np.maximum(i, js)
        self.d_pair[lo, hi] = scale * dr2 / self.R2

    def n_alive(self):
        return int(self.alive.sum())

    def min_pair(self):
        flat = int(np.argmin(self.d_pair))
        i, j = divmod(flat, self.d_pair.shape[1])
        return self.d_pair[i, j], i, j

    def min_beam(self):
        masked = np.where(self.alive, self.d_beam, np.inf)
        i = int(np.argmin(masked))
        return masked[i], i

    def merge(self, i, j):
        self.e[i] += self.e[j]
        self.px[i] += self.px[j]
        self.py[i] += self.py[j]
        self.pz[i] += self.pz[j]
        pt2 = self.px[i] ** 2 + self.py[i] ** 2
        self.pt2[i] = pt2
        if pt2 > 0:
            self.eta[i] = math.asinh(self.pz[i] / math.sqrt(pt2))
        else:
            self.eta[i] = math.copysign(_ETA_SENTINEL, self.pz[i]) if self.pz[i] else 0.0
        self.phi[i] = math.atan2(self.py[i], self.px[i])
        self.d_beam[i] = pt2 ** self.power if pt2 > 0 else np.inf
        self.constituents[i] = self.constituents[i] + self.constituents[j]
        self._kill(j)
        others = np.flatnonzero(self.alive)
        self._refresh_pairs(i, others[others != i])

    def _kill(self, i):
        self.alive[i] = False
        self.d_beam[i] = np.inf
        self.d_pair[i, :] = np.inf
        self.d_pair[:, i] = np.inf

    def jet_from_slot(self, particles, i):
        idx = list(self.constituents[i])
        return Jet(e=float(self.e[i]), px=float(self.px[i]), py=float(self.py[i]),
                   pz=float(self.pz[i]), constituents=[particles[c] for c in idx],
                   constituent_indices=idx)

    def axis_from_slot(self, i):
        return float(self.eta[i]), float(self.phi[i])


def cluster_antikt(particles, R: float = 1.0) -> list:
    """Anti-kt clustering; returns jets sorted by descending pt.

    d_ij = min(pt_i^-2, pt_j^-2) * dR^2 / R^2 against d_iB = pt_i^-2;
    the smaller wins each step (beam on exact ties), with E-scheme
    recombination.
    """
    if not R > 0:
        raise ConfigError("R must be positive")
    particles = list(particles)
    if not particles:
        return []
    cl = _Cluster(particles, R, power=-1)
    jets = []
    while cl.n_alive():
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


def _exclusive_kt_axes(constituents, n_axes, R):
    """(eta, phi) axes from kt-declustering the constituents to n_axes."""
    cl = _Cluster(constituents, R, power=1)
    while cl.n_alive() > n_axes:
        _, i, j = cl.min_pair()
        cl.merge(i, j)
    return [cl.axis_from_slot(i) for i in np.flatnonzero(cl.alive)]


def nsubjettiness(jet: Jet, n: int, R: float = 1.0):
    """tau_n of a jet; None when the jet has fewer than n constituents.

    tau_n = sum_k pt_k * min_axes dR(k, axis) / (R * sum_k pt_k), with
    axes from exclusive-kt declustering to n subjets.
    """
    if n < 1:
        raise InputError("n must be at least 1")
    if not R > 0:
        raise ConfigError("R must be positive")
    consts = jet.constituents
    if len(consts) < n:
        return None
    axes = _exclusive_kt_axes(consts, n, R)
    total_pt = sum(p.pt for p in consts)
    acc = 0.0
    for p in consts:
        acc += p.pt * math.sqrt(min(_delta_r2(p.eta, p.phi, ae, ap) for ae, ap in axes))
    return acc / (R * total_pt)


def tau21(jet: Jet, R: float = 1.0):
    """tau_2 / tau_1 with the 0/0 -> 0 convention; None if undefined."""
    t2 = nsubjettiness(jet, 2, R)
    if t2 is None:
        return None
    t1 = nsubjettiness(jet, 1, R)
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
