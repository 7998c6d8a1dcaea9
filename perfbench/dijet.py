"""Seeded dijet particle events for the features workload.

The package's ``synth`` module has no particle level, so the benchmark
makes its own.  Each event holds two back-to-back two-prong jets whose
pair mass is planted uniformly in MASS_RANGE, plus soft particles spread
uniformly over |eta| < ETA_MAX that fill the event up to its multiplicity
class.  Soft particles that land inside a jet cone shift its mass a
little, so the extracted m_jj matches the planted mass only within
MASS_TOLERANCE (relative).
"""

from __future__ import annotations

import csv
import math

import numpy as np

MASS_RANGE = (2300.0, 4700.0)   # planted pair mass, GeV
JET_MASS_RANGE = (30.0, 300.0)  # keeps both prongs within R = 1 of each other
SOFT_PT_RANGE = (0.5, 1.5)      # GeV
ETA_MAX = 2.5
MAX_COS_JET = 0.6               # jet polar angle in the pair frame: central jets
MAX_PAIR_RAPIDITY = 0.5
MAX_COS_PRONG = 0.5             # prong decay angle in the jet frame: both prongs hard
MASS_TOLERANCE = 0.05
HARD_PARTICLES = 4


def _boost(p4, beta):
    """Lorentz-boost four-vectors (rows E, px, py, pz) by velocity beta."""
    b2 = float(beta @ beta)
    if b2 == 0.0:
        return p4.copy()
    gamma = 1.0 / math.sqrt(1.0 - b2)
    bp = p4[:, 1:] @ beta
    e = gamma * (p4[:, 0] + bp)
    coef = (gamma - 1.0) * bp / b2 + gamma * p4[:, 0]
    return np.column_stack([e, p4[:, 1:] + np.outer(coef, beta)])


def _unit(rng, max_cos, axis=None):
    """Random unit vector within polar |cos| <= max_cos of axis (default z)."""
    cos_t = rng.uniform(-max_cos, max_cos)
    sin_t = math.sqrt(1.0 - cos_t * cos_t)
    phi = rng.uniform(-math.pi, math.pi)
    local = np.array([sin_t * math.cos(phi), sin_t * math.sin(phi), cos_t])
    if axis is None:
        return local
    z = axis / np.linalg.norm(axis)
    helper = np.array([1.0, 0.0, 0.0]) if abs(z[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    x = np.cross(helper, z)
    x /= np.linalg.norm(x)
    y = np.cross(z, x)
    return local[0] * x + local[1] * y + local[2] * z


def _two_body(mass, m_a, m_b, direction):
    """Four-vectors of a -> (a, b) at rest, a flying along direction."""
    p = math.sqrt((mass ** 2 - (m_a + m_b) ** 2) * (mass ** 2 - (m_a - m_b) ** 2)) / (2.0 * mass)
    return np.array([[math.sqrt(m_a ** 2 + p ** 2), *(p * direction)],
                     [math.sqrt(m_b ** 2 + p ** 2), *(-p * direction)]])


def make_event(rng, n_particles):
    """One event: (planted pair mass, rows of (pt, eta, phi, mass))."""
    if n_particles < HARD_PARTICLES:
        raise ValueError(f"an event needs at least {HARD_PARTICLES} particles")
    pair_mass = rng.uniform(*MASS_RANGE)
    jet_masses = rng.uniform(*JET_MASS_RANGE, size=2)
    jets = _two_body(pair_mass, jet_masses[0], jet_masses[1], _unit(rng, MAX_COS_JET))
    jets = _boost(jets, np.array([0.0, 0.0, math.tanh(rng.uniform(-MAX_PAIR_RAPIDITY,
                                                                 MAX_PAIR_RAPIDITY))]))
    prongs = []
    for jet, m_jet in zip(jets, jet_masses):
        flight = jet[1:]
        rest = _two_body(m_jet, 0.0, 0.0, _unit(rng, MAX_COS_PRONG, axis=flight))
        prongs.append(_boost(rest, flight / jet[0]))
    hard = np.vstack(prongs)
    pt = np.hypot(hard[:, 1], hard[:, 2])
    rows = np.column_stack([pt, np.arcsinh(hard[:, 3] / pt),
                            np.arctan2(hard[:, 2], hard[:, 1]), np.zeros(HARD_PARTICLES)])

    n_soft = n_particles - HARD_PARTICLES
    soft = np.column_stack([rng.uniform(*SOFT_PT_RANGE, n_soft),
                            rng.uniform(-ETA_MAX, ETA_MAX, n_soft),
                            rng.uniform(-math.pi, math.pi, n_soft),
                            np.zeros(n_soft)])
    return pair_mass, np.vstack([rows, soft])


def write_events(path, seed, multiplicities) -> dict:
    """Write a particle CSV with one event per entry of multiplicities.

    Returns {event_id: planted pair mass}.  The same seed and
    multiplicities give the same file.
    """
    rng = np.random.default_rng(seed)
    planted = {}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("event_id", "pt", "eta", "phi", "mass"))
        for i, n in enumerate(multiplicities):
            event_id = str(i)
            planted[event_id], rows = make_event(rng, int(n))
            writer.writerows([event_id, *(repr(float(v)) for v in row)] for row in rows)
    return planted

