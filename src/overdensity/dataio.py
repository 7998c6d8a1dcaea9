"""CSV formats and run manifests.

Formats (all comma-separated with a header row):

* particles: event_id,pt,eta,phi[,mass] - rows of one event are
  consecutive; mass defaults to 0 when the column is absent.  An event is
  read as an (n, 4) float array of pt, eta, phi and mass, with phi as
  written, each row checked by jets.check_particle in file order.
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
from array import array
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .errors import InputError
from .jets import check_particle

PARTICLE_COLUMNS = ("event_id", "pt", "eta", "phi")
LABEL_COLUMNS = ("event_id", "is_signal")
SCORE_COLUMNS = ("event_id", "m", "alpha", "p_signal", "p_background", "clamped_flag")
SCAN_COLUMNS = ("m_lo", "m_hi", "count", "alpha_max", "alpha_p99")


# rows converted to Python numbers at a time by _number_rows
_BLOCK_ROWS = 4096
# lines of an input file parsed at a time by _parse_block
_PARSE_LINES = 1024
# characters that send a block to the row-by-row parse: a quote (csv
# quoting), NUL (refused by some Pythons' csv), and U+001C..U+001F, which
# numpy's parser takes as whitespace around a number and float() does not
_ROW_BY_ROW_CHARS = '"\x00\x1c\x1d\x1e\x1f'


def _quote(field: str) -> str:
    """A text field as csv.writer's QUOTE_MINIMAL writes it: quoted if it
    holds ',', '"', CR or LF, with the quotes inside doubled."""
    if "," in field or '"' in field or "\r" in field or "\n" in field:
        return '"' + field.replace('"', '""') + '"'
    return field


def _write_csv(path, header, rows, append=False) -> None:
    """Write the header and rows byte for byte as csv.writer's default
    dialect does, streamed through one writelines; with append, add the
    rows alone to the end of the file.  Row fields are str, quoted where
    text needs it (_number_rows quotes its text column)."""
    with open(path, "a" if append else "w", newline="") as fh:
        fh.writelines(",".join(row) + "\r\n"
                      for row in (rows if append else chain([map(_quote, header)], rows)))


def _number_rows(text, *columns):
    """Rows (quoted text[i], *cells) with each numeric column's cell the
    repr of its tolist() value: floats at shortest round-trip precision,
    ints as digits, neither ever quoted.  Columns go to Python numbers a
    block of rows at a time."""
    for start in range(0, len(text), _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        yield from zip(map(_quote, text[start:stop]),
                       *(map(repr, c[start:stop].tolist()) for c in columns))


def _float_cells(cells, columns, path, line_no) -> list:
    """A row's numeric cells as floats.  A cell that is not a finite
    number raises InputError naming the first such cell; only a row that
    fails is checked cell by cell."""
    try:
        values = list(map(float, cells))
        if all(map(math.isfinite, values)):
            return values
    except ValueError:
        pass
    for token, column in zip(cells, columns):
        where = f"{path} line {line_no}, column '{column}'"
        try:
            value = float(token)
        except ValueError:
            raise InputError(f"{where}: not a number: {token!r}") from None
        if not math.isfinite(value):
            raise InputError(f"{where}: non-finite value {token!r}")


def _text_lines(path, kind):
    """Lines of a text input file, each with its end as written.  A file
    that cannot be opened, or that holds a byte that does not decode as
    text, raises InputError."""
    try:
        with open(path, newline="") as fh:
            yield from fh
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
    _write_csv(path, ["event_id", conditional_name, *feature_names],
               _number_rows(event_ids, np.asarray(conditionals, dtype=float),
                            *np.asarray(features, dtype=float).T))
    return len(event_ids)


def _parse_block(lines, width, line_no):
    """(line numbers, ids, values) of the rows of a block of lines from
    line_no, as the row-by-row parse reads them; None where that parse is
    needed: a quote, NUL or U+001C..U+001F, a CR not followed by LF, a
    blank line, a row of other than width cells (a whitespace-only line is
    a row of one), a line past csv's field limit, or a cell that
    np.loadtxt does not take as a finite number.  np.loadtxt rounds each
    cell as float() does."""
    text = "".join(lines)
    limit = csv.field_size_limit()
    # a line holds one LF at most, at its end; one ended by a lone CR has none
    ends = text.count("\n") + (not lines[-1].endswith(("\n", "\r")))
    if (any(c in text for c in _ROW_BY_ROW_CHARS) or ends != len(lines)
            or len(text) > limit and max(map(len, lines)) > limit):
        return None
    # np.loadtxt ignores cells past usecols, so the comma count checks
    # that every row has width cells (a blank line has none)
    if text.count(",") != len(lines) * (width - 1):
        return None
    try:
        values = np.loadtxt(lines, dtype=float, delimiter=",", comments=None,
                            usecols=range(1, width), ndmin=2)
    except ValueError:
        return None
    if values.shape[0] != len(lines) or not np.isfinite(values).all():
        return None
    return range(line_no, line_no + len(lines)), [ln.partition(",")[0] for ln in lines], values


def _csv_records(lines, path, line_no):
    """(line number, row) of each csv row of lines from line_no, numbered
    by the line the row ends on (a quoted field may hold line ends); a row
    csv cannot read (a field past its limit) is an InputError naming the
    line it stopped on."""
    reader = csv.reader(lines)
    try:
        for row in reader:
            yield line_no - 1 + reader.line_num, row
    except csv.Error as exc:
        raise InputError(f"{path} line {line_no - 1 + reader.line_num}: {exc}") from None


def _checked_rows(lines, header, path, line_no):
    """(line number, id, cells) of each row of lines from line_no, or
    InputError naming the first bad row, column and cell."""
    for line_no, row in _csv_records(lines, path, line_no):
        if not row:
            continue
        if len(row) != len(header):
            raise InputError(f"{path} line {line_no}: expected {len(header)} "
                             f"columns, got {len(row)}")
        yield line_no, row[0], _float_cells(row[1:], header[1:], path, line_no)


def _row_block(rows):
    """The block (line numbers, ids, values) of _checked_rows' rows, if any."""
    if rows:
        line_nos, ids, cells = zip(*rows)
        yield line_nos, ids, np.array(cells)


def _read_rows(lines, header, path, line_no):
    """The row-by-row parse of lines from line_no, in blocks of up to
    _PARSE_LINES rows.  Its first error comes after a block of the rows
    before it, so that a reader meets the errors in file order."""
    rows = _checked_rows(lines, header, path, line_no)
    while True:
        block = []
        try:
            block.extend(islice(rows, _PARSE_LINES))
        except InputError:
            yield from _row_block(block)
            raise
        if not block:
            return
        yield from _row_block(block)


def _parsed_rows(path, kind):
    """The header row of an input file, then blocks (line numbers, ids,
    (rows, columns - 1) float array) of its rows: _PARSE_LINES lines a block
    (_parse_block) until a block needs the row-by-row parse, then blocks of
    up to _PARSE_LINES rows (_read_rows).  Either way a file reads the
    same, and its errors come in order."""
    lines = _text_lines(path, kind)
    header = next(_csv_records(lines, path, 1), (1, None))[1]
    if header is None:
        raise InputError(f"{path}: empty file, expected a header row")
    yield header
    line_no = 2
    while True:
        block = []
        try:
            block.extend(islice(lines, _PARSE_LINES))
        except InputError:  # an undecodable byte: the lines before it come first
            yield from _read_rows(block, header, path, line_no)
            raise
        parsed = block and _parse_block(block, len(header), line_no)
        if not parsed:  # the end of the file, or the row-by-row parse's turn
            yield from _read_rows(chain(block, lines), header, path, line_no)
            return
        yield parsed
        line_no += len(block)


def read_feature_blocks(path):
    """The (conditional name, feature names) of a features file, then
    blocks (ids, (rows, 1 + d) float array of each row's conditional and
    features) of its rows in file order, as _parsed_rows parses them.  An
    error names its line, column and cell, after the blocks before it."""
    rows = _parsed_rows(path, "features")
    header = next(rows)
    if len(header) < 3 or header[0] != "event_id":
        raise InputError(f"{path}: expected header event_id,<conditional>,<features...>")
    yield header[1], header[2:]
    for _, ids, values in rows:
        yield ids, values


def read_features(path) -> FeatureTable:
    """Read a features file whole (read_feature_blocks)."""
    blocks = read_feature_blocks(path)
    conditional_name, feature_names = next(blocks)
    ids = []
    values = array("d")  # each row's conditional and features, end to end
    for block_ids, block_values in blocks:
        ids.extend(block_ids)
        values.frombytes(block_values.tobytes())
    table = np.frombuffer(values, dtype=float).reshape(-1, 1 + len(feature_names))
    return FeatureTable(event_ids=ids, conditional_name=conditional_name,
                        conditionals=table[:, 0].copy(), feature_names=feature_names,
                        features=np.ascontiguousarray(table[:, 1:]))


def write_labels(path, event_ids, labels) -> int:
    _write_csv(path, LABEL_COLUMNS,
               _number_rows(event_ids, np.asarray(labels).astype(int)))
    return len(event_ids)


def read_particle_events(path):
    """Yield (event_id, rows) for consecutive event_id groups.

    rows is an (n, 4) float array of each particle's pt, eta, phi and
    mass as read: phi is not wrapped (jets.Particle wraps it), and mass
    is 0.0 when the file has no mass column.  Rows are checked in file
    order: a cell that is not a finite number, a row that breaks
    jets.check_particle, or an event_id whose rows resume after another
    event's is an InputError naming its line.
    """
    rows = _parsed_rows(path, "particles")
    header = tuple(next(rows))
    has_mass = header == PARTICLE_COLUMNS + ("mass",)
    if not has_mass and header != PARTICLE_COLUMNS:
        raise InputError(f"{path}: expected header {','.join(PARTICLE_COLUMNS)}[,mass]")
    current_id = None
    seen = set()
    event_rows = []
    for line_nos, ids, block in rows:
        for line_no, event_id, cells in zip(line_nos, ids, block.tolist()):
            if not has_mass:
                cells.append(0.0)
            try:
                check_particle(*cells)
            except InputError as exc:
                raise InputError(f"{path} line {line_no}: {exc}") from None
            if event_id != current_id:
                if event_id in seen:
                    raise InputError(f"{path} line {line_no}: event_id {event_id!r} "
                                     f"resumes after other events' rows")
                seen.add(event_id)
                if current_id is not None:
                    yield current_id, np.array(event_rows)
                current_id = event_id
                event_rows = []
            event_rows.append(cells)
    if current_id is not None:
        yield current_id, np.array(event_rows)


def write_scores(path, event_ids, conditionals, report, append=False) -> int:
    """Write the scores file of the events; with append, add their rows to
    the end of the file, without a header, as a block-wise score does."""
    _write_csv(path, SCORE_COLUMNS, _number_rows(
        event_ids, *(np.asarray(c, dtype=float) for c in (
            conditionals, report.alphas, report.p_signal, report.p_background)),
        np.asarray(report.clamped).astype(int)), append)
    return len(event_ids)


def write_scan(path, rows) -> int:
    _write_csv(path, SCAN_COLUMNS, ([
        repr(float(row.m_lo)), repr(float(row.m_hi)), str(row.count),
        "" if row.alpha_max is None else repr(float(row.alpha_max)),
        "" if row.alpha_p99 is None else repr(float(row.alpha_p99)),
    ] for row in rows))
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
