"""Slow, loop-based reference implementations used as test oracles.

Everything here is written independently of the package internals: plain
python lists, no shared helpers, distances recomputed from scratch on every
round.  The only intentional couplings are the tie-break conventions, which
are part of the clustering contract: beam promotion wins when d_beam equals
the best pair distance, and among equal pair distances the first (i, j) in
row-major order is merged.

The one exception is the matrix oracle at the end of the file
(MatrixCluster and its callers), which keeps an earlier version of the
package's clusterer to compare the current one with bit for bit.
"""

import math
from functools import cached_property

import numpy as np

from overdensity.errors import ConfigError, EventRejected
from overdensity.jets import (
    _ETA_SENTINEL,
    _TWO_PI,
    EventFeatures,
    Jet,
    _delta_r2,
    filter_jets,
    invariant_mass_pair,
)


def _phi_diff(a, b):
    d = a - b
    while d > math.pi:
        d -= 2.0 * math.pi
    while d < -math.pi:
        d += 2.0 * math.pi
    return d


class RefJet:
    # a jet never changes once made (merging makes a new one), so its
    # kinematics are computed once
    def __init__(self, e, px, py, pz, indices):
        self.e = e
        self.px = px
        self.py = py
        self.pz = pz
        self.indices = indices

    @cached_property
    def pt(self):
        return math.hypot(self.px, self.py)

    @cached_property
    def phi(self):
        return math.atan2(self.py, self.px)

    @cached_property
    def eta(self):
        p = math.sqrt(self.px ** 2 + self.py ** 2 + self.pz ** 2)
        if p == abs(self.pz):
            return math.copysign(1e10, self.pz)
        return 0.5 * math.log((p + self.pz) / (p - self.pz))

    def merged_with(self, other):
        return RefJet(self.e + other.e, self.px + other.px,
                      self.py + other.py, self.pz + other.pz,
                      self.indices + other.indices)


def _from_particle(p, index):
    px = p.pt * math.cos(p.phi)
    py = p.pt * math.sin(p.phi)
    pz = p.pt * math.sinh(p.eta)
    e = math.sqrt(px ** 2 + py ** 2 + pz ** 2 + p.mass ** 2)
    return RefJet(e, px, py, pz, [index])


def ref_cluster(particles, R=1.0, power=-1.0):
    """Generalized-kt clustering by exhaustive search each round."""
    pending = [_from_particle(p, i) for i, p in enumerate(particles)]
    jets = []
    while pending:
        best_beam = None
        for i, jet in enumerate(pending):
            d = jet.pt ** (2.0 * power)
            if best_beam is None or d < best_beam[0]:
                best_beam = (d, i)
        best_pair = None
        for i in range(len(pending)):
            for j in range(i + 1, len(pending)):
                a, b = pending[i], pending[j]
                dr2 = (a.eta - b.eta) ** 2 + _phi_diff(a.phi, b.phi) ** 2
                d = min(a.pt ** (2.0 * power), b.pt ** (2.0 * power)) * dr2 / R ** 2
                if best_pair is None or d < best_pair[0]:
                    best_pair = (d, i, j)
        if best_pair is None or best_beam[0] <= best_pair[0]:
            jets.append(pending.pop(best_beam[1]))
        else:
            _, i, j = best_pair
            merged = pending[i].merged_with(pending[j])
            pending[i] = merged
            pending.pop(j)
    jets.sort(key=lambda j: -j.pt)
    return jets


def ref_exclusive_kt_axes(jet, n_axes, R=1.0):
    """Merge with kt distances (power +1) until n_axes protojets remain."""
    pending = [RefJet(j.e, j.px, j.py, j.pz, list(j.indices))
               for j in (jet if isinstance(jet, list) else [jet])]
    # callers pass a list of single-particle RefJets
    while len(pending) > n_axes:
        best = None
        for i in range(len(pending)):
            for j in range(i + 1, len(pending)):
                a, b = pending[i], pending[j]
                dr2 = (a.eta - b.eta) ** 2 + _phi_diff(a.phi, b.phi) ** 2
                d = min(a.pt ** 2, b.pt ** 2) * dr2 / R ** 2
                if best is None or d < best[0]:
                    best = (d, i, j)
        _, i, j = best
        pending[i] = pending[i].merged_with(pending[j])
        pending.pop(j)
    return pending


def ref_nsubjettiness(constituents, n, R=1.0):
    """Brute-force subjettiness from a list of Particle-like constituents."""
    if len(constituents) < n:
        return None
    protos = [_from_particle(p, i) for i, p in enumerate(constituents)]
    axes = ref_exclusive_kt_axes(protos, n, R)
    total = sum(p.pt for p in constituents)
    if total == 0.0:
        return 0.0
    acc = 0.0
    for p in constituents:
        best = None
        for ax in axes:
            dr = math.sqrt((p.eta - ax.eta) ** 2 + _phi_diff(p.phi, ax.phi) ** 2)
            if best is None or dr < best:
                best = dr
        acc += p.pt * best
    return acc / (R * total)


# ---------------------------------------------------------------------------
# Bit-for-bit oracle: the clusterer as it was before the broadcast set-up and
# the one-row refresh per merge.  It fills the upper triangle of the pair
# table with one call per row and rescatters the pairs of a merged slot, so
# any change of rounding in the faster clusterer shows as an inequality.
# It shares Jet and the feature arithmetic with the package; only the
# clustering bookkeeping is the old one.


class MatrixCluster:
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


def matrix_cluster_antikt(particles, R: float = 1.0) -> list:
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
    cl = MatrixCluster(particles, R, power=-1)
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


# _exclusive_kt_axes, nsubjettiness, tau21 and extract_features of the
# package, on MatrixCluster


def _matrix_kt_axes(constituents, n_axes, R):
    cl = MatrixCluster(constituents, R, power=1)
    while cl.n_alive() > n_axes:
        _, i, j = cl.min_pair()
        cl.merge(i, j)
    return [cl.axis_from_slot(i) for i in np.flatnonzero(cl.alive)]


def matrix_nsubjettiness(jet, n, R=1.0):
    consts = jet.constituents
    if len(consts) < n:
        return None
    axes = _matrix_kt_axes(consts, n, R)
    total_pt = sum(p.pt for p in consts)
    acc = 0.0
    for p in consts:
        acc += p.pt * math.sqrt(min(_delta_r2(p.eta, p.phi, ae, ap) for ae, ap in axes))
    return acc / (R * total_pt)


def _matrix_tau21(jet, R):
    t2 = matrix_nsubjettiness(jet, 2, R)
    if t2 is None:
        return None
    t1 = matrix_nsubjettiness(jet, 1, R)
    if t1 == 0.0:
        return 0.0
    return t2 / t1


def matrix_extract_features(particles, R=1.0, eta_max=2.5):
    jets = filter_jets(matrix_cluster_antikt(particles, R), eta_max)
    if len(jets) < 2:
        raise EventRejected("fewer_than_two_jets")
    j1, j2 = jets[0], jets[1]
    t1 = _matrix_tau21(j1, R)
    t2 = _matrix_tau21(j2, R)
    if t1 is None or t2 is None:
        raise EventRejected("tau21_undefined")
    return EventFeatures(m_jj=invariant_mass_pair(j1, j2), m_j1=j1.mass,
                         dm=j1.mass - j2.mass, tau21_1=t1, tau21_2=t2)
