"""CSV formats and run manifests.

Formats (all comma-separated with a header row):

* particles: event_id,pt,eta,phi[,mass] - rows of one event are
  consecutive; mass defaults to 0 when the column is absent.
* features:  event_id,<conditional>,<feature...> - first data column is
  the conditional (m_jj for dijet data), the rest are model features.
* labels:    event_id,is_signal - kept separate from features.
* scores:    event_id,m,alpha,p_signal,p_background,clamped_flag
* scan:      m_lo,m_hi,count,alpha_max,alpha_p99 - alpha fields are
  empty for empty bins.

Floats are written with shortest round-trip precision, so identical runs
produce byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

PARTICLE_COLUMNS = ("event_id", "pt", "eta", "phi")
LABEL_COLUMNS = ("event_id", "is_signal")
SCORE_COLUMNS = ("event_id", "m", "alpha", "p_signal", "p_background", "clamped_flag")
SCAN_COLUMNS = ("m_lo", "m_hi", "count", "alpha_max", "alpha_p99")


def _fnum(x) -> str:
    return repr(float(x))


def _parse_float(token, path, line_no, column):
    try:
        value = float(token)
    except ValueError:
        raise InputError(f"{path} line {line_no}, column '{column}': "
                         f"not a number: {token!r}") from None
    if not math.isfinite(value):
        raise InputError(f"{path} line {line_no}, column '{column}': "
                         f"non-finite value {token!r}")
    return value


def _csv_rows(path, kind):
    """Rows of a CSV input file.  A file that cannot be opened, or that
    holds a byte that does not decode as text, raises InputError."""
    try:
        with open(path, newline="") as fh:
            yield from csv.reader(fh)
    except OSError as exc:
        raise InputError(f"cannot read {kind} file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not a text file: {exc}") from None


@dataclass
class FeatureTable:
    """In-memory features file: ids, conditional column, feature matrix."""

    event_ids: list
    conditional_name: str
    conditionals: np.ndarray
    feature_names: list
    features: np.ndarray

    @property
    def n_events(self) -> int:
        return len(self.event_ids)

    def event_arrays(self):
        return self.features, self.conditionals


def write_features(path, event_ids, conditional_name, conditionals,
                   feature_names, features) -> int:
    features = np.asarray(features, dtype=float)
    if features.ndim == 1:
        features = features[:, None]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["event_id", conditional_name, *feature_names])
        for i, event_id in enumerate(event_ids):
            writer.writerow([event_id, _fnum(conditionals[i]),
                             *(_fnum(v) for v in features[i])])
    return len(event_ids)


def read_features(path) -> FeatureTable:
    reader = _csv_rows(path, "features")
    header = next(reader, None)
    if header is None:
        raise InputError(f"{path}: empty file, expected a header row")
    if len(header) < 3 or header[0] != "event_id":
        raise InputError(f"{path}: expected header event_id,<conditional>,<features...>")
    conditional_name = header[1]
    feature_names = header[2:]
    ids = []
    cond = []
    rows = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise InputError(f"{path} line {line_no}: expected {len(header)} "
                             f"columns, got {len(row)}")
        ids.append(row[0])
        cond.append(_parse_float(row[1], path, line_no, conditional_name))
        rows.append([_parse_float(tok, path, line_no, name)
                     for tok, name in zip(row[2:], feature_names)])
    features = np.array(rows, dtype=float) if rows else np.zeros((0, len(feature_names)))
    return FeatureTable(event_ids=ids, conditional_name=conditional_name,
                        conditionals=np.array(cond, dtype=float),
                        feature_names=feature_names, features=features)


def write_labels(path, event_ids, labels) -> int:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LABEL_COLUMNS)
        for event_id, label in zip(event_ids, labels):
            writer.writerow([event_id, int(label)])
    return len(event_ids)


def read_particle_events(path):
    """Yield (event_id, [Particle, ...]) for consecutive event_id groups."""
    from .jets import Particle

    reader = _csv_rows(path, "particles")
    header = next(reader, None)
    if header is None:
        raise InputError(f"{path}: empty file, expected a header row")
    has_mass = tuple(header) == PARTICLE_COLUMNS + ("mass",)
    if not has_mass and tuple(header) != PARTICLE_COLUMNS:
        raise InputError(f"{path}: expected header "
                         f"{','.join(PARTICLE_COLUMNS)}[,mass]")
    width = 5 if has_mass else 4
    current_id = None
    particles = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != width:
            raise InputError(f"{path} line {line_no}: expected {width} columns, "
                             f"got {len(row)}")
        event_id = row[0]
        pt = _parse_float(row[1], path, line_no, "pt")
        eta = _parse_float(row[2], path, line_no, "eta")
        phi = _parse_float(row[3], path, line_no, "phi")
        mass = _parse_float(row[4], path, line_no, "mass") if has_mass else 0.0
        try:
            particle = Particle(pt=pt, eta=eta, phi=phi, mass=mass)
        except InputError as exc:
            raise InputError(f"{path} line {line_no}: {exc}") from None
        if event_id != current_id:
            if current_id is not None:
                yield current_id, particles
            current_id = event_id
            particles = []
        particles.append(particle)
    if current_id is not None:
        yield current_id, particles


def write_scores(path, event_ids, conditionals, report) -> int:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCORE_COLUMNS)
        for i, event_id in enumerate(event_ids):
            writer.writerow([event_id, _fnum(conditionals[i]), _fnum(report.alphas[i]),
                             _fnum(report.p_signal[i]), _fnum(report.p_background[i]),
                             int(report.clamped[i])])
    return len(event_ids)


def write_scan(path, rows) -> int:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCAN_COLUMNS)
        for row in rows:
            writer.writerow([
                _fnum(row.m_lo), _fnum(row.m_hi), row.count,
                "" if row.alpha_max is None else _fnum(row.alpha_max),
                "" if row.alpha_p99 is None else _fnum(row.alpha_p99),
            ])
    return len(rows)


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(path, payload) -> None:
    """Deterministic JSON manifest (sorted keys, no timestamps)."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
