import csv
import hashlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from overdensity import dataio
from overdensity.anomaly import ScanRow, ScoreConfig, score_events
from overdensity.dataio import (
    SCORE_COLUMNS,
    file_sha256,
    read_features,
    read_particle_events,
    write_features,
    write_labels,
    write_manifest,
    write_scan,
    write_scores,
)
from overdensity.errors import InputError


def test_features_round_trip(tmp_path):
    path = str(tmp_path / "features.csv")
    ids = ["a", "b", "c"]
    m = np.array([1e-300, 2750.0, -1.5])
    X = np.array([[0.1, 1e300], [2.0, -3.0], [4.0, 5.0]])
    n = write_features(path, ids, "m_jj", m, ["f1", "f2"], X)
    assert n == 3
    table = read_features(path)
    assert table.event_ids == ids
    assert table.conditional_name == "m_jj"
    assert table.feature_names == ["f1", "f2"]
    # repr-based formatting survives the round trip bit for bit
    assert np.array_equal(table.conditionals, m)
    assert np.array_equal(table.features, X)


def test_read_features_reports_bad_cells(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("event_id,m,x\n1,2.0,fish\n")
    with pytest.raises(InputError, match=r"line 2.*'x'"):
        read_features(str(path))
    for token in ("inf", "-inf", "nan", "1e400"):
        path.write_text(f"event_id,m,x\n1,2.0,1.0\n2,2.0,{token}\n")
        with pytest.raises(InputError, match=f"line 3, column 'x': non-finite value '{token}'"):
            read_features(str(path))
        path.write_text(f"event_id,m,x\n1,{token},1.0\n")
        with pytest.raises(InputError, match=f"line 2, column 'm': non-finite value '{token}'"):
            read_features(str(path))
    path.write_text("event_id,m\n1,2.0\n")
    with pytest.raises(InputError):
        read_features(str(path))
    with pytest.raises(InputError):
        read_features(str(tmp_path / "missing.csv"))


def test_read_features_reports_the_first_bad_line(tmp_path):
    # the file is read once, top to bottom: line 3's inf is reported,
    # not line 5's fish, and the blank line 4 is skipped
    path = tmp_path / "bad.csv"
    path.write_text("event_id,m,x\n1,2.0,1.0\n2,2.0,inf\n\n4,2.0,fish\n")
    with pytest.raises(InputError, match=r"line 3, column 'x': non-finite value 'inf'$"):
        read_features(str(path))
    path.write_text("event_id,m,x\n1,2.0,1.0\n\n3,2.0,1.5\n4,fish,inf\n")
    with pytest.raises(InputError, match=r"line 5, column 'm': not a number: 'fish'$"):
        read_features(str(path))


# text that csv.writer must quote (',', '"', CR, LF), the empty string and
# non-ASCII characters; no NUL (Python 3.10's csv cannot read it back) and
# no lone surrogates (not encodable)
csv_text = st.text(st.one_of(st.sampled_from(',"\r\n a\u00e9\u03bb\u4e2d\U0001f600'),
                             st.characters(blacklist_categories=("Cs",),
                                           blacklist_characters="\x00")),
                   max_size=8)
# signed zeros, subnormals, infinities and nan among ordinary floats
any_float = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072e-308,
                                       np.inf, -np.inf, np.nan]),
                      st.floats())


def _csv_writer_bytes(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    with open(path, "rb") as fh:
        return fh.read()


@given(st.lists(st.tuples(csv_text, any_float, any_float, st.booleans()), max_size=20),
       csv_text, csv_text)
@example([("", 0.0, -0.0, False), ("a,b", 5e-324, np.nan, True),
          ('say "hi"', np.inf, -np.inf, False), ("\r\n", 1e300, -1e-300, True),
          ("a\rb", 0.1, 3823.0, False), ("a\nb", -2.0, 1.5, False),
          ("\u00e9t\u00e9", 2.5, 7.0, True)],
         "m,jj", 'x"')
def test_writers_match_csv_writer_bytes(tmp_path_factory, rows, name1, name2):
    root = tmp_path_factory.mktemp("csv")
    ids = [r[0] for r in rows]
    m = np.array([r[1] for r in rows])
    X = np.array([[r[2], r[1]] for r in rows]).reshape(-1, 2)
    labels = np.array([r[3] for r in rows])

    write_features(str(root / "f.csv"), ids, name1, m, [name2, "x"], X)
    expected = _csv_writer_bytes(
        str(root / "f_ref.csv"), ["event_id", name1, name2, "x"],
        [[i, repr(float(a)), repr(float(b)), repr(float(c))]
         for i, a, (b, c) in zip(ids, m, X)])
    assert (root / "f.csv").read_bytes() == expected

    write_labels(str(root / "l.csv"), ids, labels)
    expected = _csv_writer_bytes(str(root / "l_ref.csv"), ["event_id", "is_signal"],
                                 [[i, int(v)] for i, v in zip(ids, labels)])
    assert (root / "l.csv").read_bytes() == expected

    report = SimpleNamespace(alphas=X[:, 0], p_signal=X[:, 1], p_background=m,
                             clamped=labels)
    write_scores(str(root / "s.csv"), ids, m, report)
    expected = _csv_writer_bytes(
        str(root / "s_ref.csv"), SCORE_COLUMNS,
        [[i, *(repr(float(v)) for v in (a, b, c, a)), int(flag)]
         for i, a, (b, c), flag in zip(ids, m, X, labels)])
    assert (root / "s.csv").read_bytes() == expected


def test_labels_round_trip(tmp_path):
    path = str(tmp_path / "labels.csv")
    assert write_labels(path, ["e1", "e2", "e3"], np.array([0, 1, 0])) == 3
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["event_id", "is_signal"], ["e1", "0"], ["e2", "1"], ["e3", "0"]]


def test_particles_round_trip(tmp_path):
    # rows come back as read: phi unwrapped, mass 0.0 with no mass column
    path = tmp_path / "particles.csv"
    path.write_text("event_id,pt,eta,phi,mass\n"
                    "ev0,10.0,0.1,0.2,0.0\n"
                    "ev0,20.0,-1.0,7.5,0.5\n"
                    "ev1,30.0,2.0,-3.5,0.0\n")
    back = list(read_particle_events(str(path)))
    assert [eid for eid, _ in back] == ["ev0", "ev1"]
    assert all(rows.shape == (len(rows), 4) and rows.dtype == float for _, rows in back)
    assert back[0][1].tolist() == [[10.0, 0.1, 0.2, 0.0], [20.0, -1.0, 7.5, 0.5]]
    assert back[1][1].tolist() == [[30.0, 2.0, -3.5, 0.0]]
    path.write_text("event_id,pt,eta,phi\n"
                    "ev0,10.0,0.1,-3.1416\n"
                    "ev0,20.0,-1.0,3.141592653589793\n")
    ((event_id, rows),) = read_particle_events(str(path))
    assert event_id == "ev0"
    assert rows.tolist() == [[10.0, 0.1, -3.1416, 0.0], [20.0, -1.0, 3.141592653589793, 0.0]]


def test_particle_reader_validates(tmp_path):
    path = tmp_path / "p.csv"
    for text, message in (
            ("event_id,pt,eta,phi\n1,0.0,0.0,0.0\n", "line 2: particle pt must be positive"),
            ("event_id,pt,eta,phi\n1,-5.0,0.0,0.0\n", "line 2: particle pt must be positive"),
            ("event_id,pt,eta,phi,mass\n1,5.0,0.0,0.0,0.0\n1,5.0,0.0,0.0,-0.5\n",
             "line 3: particle mass must be non-negative"),
            ("event_id,pt,eta,phi\n1,5.0,0.0,0.0\n2,5.0,-800.0,0.0\n",
             "line 3: particle |eta| too large: pt * sinh(eta) overflows")):
        path.write_text(text)
        with pytest.raises(InputError) as info:
            list(read_particle_events(str(path)))
        assert str(info.value) == f"{path} {message}"
    path.write_text("pt,eta,phi\n1,2,3\n")
    with pytest.raises(InputError, match="header"):
        list(read_particle_events(str(path)))
    for token in ("-inf", "nan", "1e400"):
        path.write_text(f"event_id,pt,eta,phi,mass\n1,5.0,0.0,0.0,0.0\n1,5.0,{token},0.0,0.0\n")
        with pytest.raises(InputError, match=f"line 3, column 'eta': non-finite value '{token}'"):
            list(read_particle_events(str(path)))
        path.write_text(f"event_id,pt,eta,phi,mass\n1,5.0,0.0,0.0,{token}\n")
        with pytest.raises(InputError, match=f"line 2, column 'mass': non-finite value '{token}'"):
            list(read_particle_events(str(path)))
    path.write_bytes(b"event_id,pt,eta,phi\n1,5.0,0.0,\xff\n")
    with pytest.raises(InputError, match="not a text file"):
        list(read_particle_events(str(path)))


def test_readers_reject_undecodable_bytes(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"event_id,m,x\n1,0.5,\xff\n")
    with pytest.raises(InputError, match="not a text file"):
        read_features(str(path))


def _features(path):
    t = read_features(path)
    return (t.event_ids, t.conditional_name, t.feature_names,
            t.conditionals.tobytes(), t.features.tobytes(), t.features.shape)


def _particle_events(path):
    return [(event_id, rows.tobytes(), rows.shape)
            for event_id, rows in read_particle_events(path)]


def _read_both_ways(path, block_lines, reader=_features):
    """reader's result for path, or its error, through the block parse
    (block_lines lines a block) and through the row-by-row parse alone;
    and how many blocks the block parse took."""
    taken = []
    parse_block = dataio._parse_block

    def read(parse):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataio, "_PARSE_LINES", block_lines)
            mp.setattr(dataio, "_parse_block", parse)
            try:
                return reader(str(path))
            except InputError as exc:
                return f"InputError: {exc}"

    def counted(*args):
        parsed = parse_block(*args)
        taken.append(parsed is not None)
        return parsed

    return read(counted), read(lambda *args: None), sum(taken)


_ROWS = ["a,1.5,2.0,-3.25", "b,1e-300,5e-324,-0.0", "c,2750.0,0.1,1e300",
         "d,7.0,8.0,9.0", "e,-1.0,-2.0,-3.0"]
# (text, blocks of 2 lines the block parse takes): each file reads alike
# both ways, to the same values or the same error
_FEATURES_FILES = {
    "lf": ("\n".join(["event_id,m,x,y", *_ROWS]) + "\n", 3),
    "crlf": ("\r\n".join(["event_id,m,x,y", *_ROWS]) + "\r\n", 3),
    "no final newline": ("\n".join(["event_id,m,x,y", *_ROWS]), 3),
    "bare cr": ("\r".join(["event_id,m,x,y", *_ROWS]) + "\r", 0),
    "cr in the second block": ("event_id,m,x,y\n" + "\n".join(_ROWS[:3]) + "\r"
                               + "\n".join(_ROWS[3:]) + "\n", 1),
    "blank lines": ("event_id,m,x,y\n\na,1.0,2.0,3.0\r\n\r\n\n"
                    "b,4.0,5.0,6.0\n\n", 0),
    "only blank lines": ("event_id,m,x,y\n\n\r\n\n", 0),
    "whitespace-only line": ("event_id,m,x,y\na,1.0,2.0,3.0\nb,1.0,2.0,3.0\n \t\n", 1),
    "quoted ids": ('event_id,m,x,y\na,1.0,2.0,3.0\nb,1.0,2.0,3.0\n"c,1",1.0,2.0,3.0\n'
                   '"d""",4.0,5.0,6.0\n', 1),
    "quoted newline in an id": ('event_id,m,x\n"a\nb",1.0,2.0\nc,1.0,fish\n', 0),
    "quoted header": ('"event_id","m",x,"y, z"\n' + "\n".join(_ROWS) + "\n", 3),
    "cells float() reads": ("event_id,m,x,y\na,1_000,+1.5, 2.5 \nb,\u0661\u0662,\t3.0,"
                            "\u00a04.0\u3000\n", 0),
    "ids of any text": ("event_id,m,x,y\n \u00e9 x ,1.0,2.0,3.0\n,4.0,5.0,6.0\n", 1),
    "nan": ("event_id,m,x,y\na,1.0,2.0,3.0\nb,1.0,2.0,3.0\nc,1.0,nan,3.0\n", 1),
    "inf": ("event_id,m,x,y\na,1.0,2.0,3.0\nb,1.0,2.0,3.0\nc,1.0,2.0,-inf\n", 1),
    "overflow": ("event_id,m,x,y\na,1e400,2.0,3.0\n", 0),
    "too many cells": ("event_id,m,x,y\na,1.0,2.0,3.0,4.0\nb,1.0,2.0\n", 0),
    "too few cells": ("event_id,m,x,y\na,1.0,2.0,3.0\nb,1.0,2.0\n", 0),
    "empty cell": ("event_id,m,x,y\na,1.0,2.0,\n", 0),
    "not a number": ("event_id,m,x,y\na,1.0,2.0,3.0\nb,1.0,2.0,3.0\nc,1.0,fish,3.0\n", 1),
    "bad cell in the second block": ("event_id,m,x,y\n" + "\n".join(_ROWS[:2])
                                     + "\nc,1.0,0x1p3,3.0\n", 1),
    "separator numpy takes as space": ("event_id,m,x,y\na,1.0,\x1f2.0,3.0\n", 0),
    "nul in an id": ("event_id,m,x,y\na\x00,1.0,2.0,3.0\n", 0),
    "long id": ("event_id,m,x,y\n" + "a" * 140000 + ",1.0,2.0,3.0\n", 0),
    "long cell after good rows": ("event_id,m,x,y\n" + "\n".join(_ROWS[:3])
                                  + "\nd,1.0," + "1" * 140000 + ",3.0\n", 1),
    "header only": ("event_id,m,x,y\n", 0),
    "empty file": ("", 0),
}
# the errors of some of those files, after "InputError: {path} "
_FEATURES_ERRORS = {
    # a row is numbered by the line it ends on
    "quoted newline in an id": "line 4, column 'x': not a number: 'fish'",
    "bad cell in the second block": "line 4, column 'x': not a number: '0x1p3'",
    # csv raises before the row is complete: the line is the one it
    # stopped reading on
    "long id": "line 2: field larger than field limit (131072)",
    "long cell after good rows": "line 5: field larger than field limit (131072)",
}


@pytest.mark.parametrize("name", list(_FEATURES_FILES))
def test_block_parse_reads_as_row_by_row(tmp_path, name):
    text, blocks_taken = _FEATURES_FILES[name]
    path = tmp_path / "features.csv"
    path.write_bytes(text.encode())
    for block_lines in (2, 65536):
        fast, slow, taken = _read_both_ways(path, block_lines)
        assert fast == slow
        if block_lines == 2:
            assert taken == blocks_taken
    if name in _FEATURES_ERRORS:
        assert fast == f"InputError: {path} {_FEATURES_ERRORS[name]}"


_P = ["ev0,10.0,0.1,0.2", "ev0,20.0,-1.0,7.5", "ev0,30.0,2.0,-3.5",
      "ev1,40.0,0.5,1.0", "ev1,1e-3,-0.5,-1.0"]
# (text, blocks of 2 lines the block parse takes, error after
# "InputError: {path} " or None): each particle file reads alike both ways
_PARTICLE_FILES = {
    "no mass column": ("\n".join(["event_id,pt,eta,phi", *_P]) + "\n", 3, None),
    "mass column, event across a block boundary": (
        "\n".join(["event_id,pt,eta,phi,mass", *(r + ",0.5" for r in _P)]) + "\n", 3, None),
    "bad particle in the second block": (
        "\n".join(["event_id,pt,eta,phi", *_P[:2], "ev1,0.0,0.0,0.0", *_P[3:]]) + "\n",
        2, "line 4: particle pt must be positive"),
    "blank lines before a bad particle": (
        "event_id,pt,eta,phi,mass\nev0,10.0,0.1,0.2,0.0\n\n\r\nev0,10.0,0.1,0.2,-1.0\n",
        0, "line 5: particle mass must be non-negative"),
    "quoted newline in an id before a bad particle": (
        'event_id,pt,eta,phi\nev0,10.0,0.1,0.2\n"e\nv",1.0,0.0,0.0\nev1,-1.0,0.0,0.0\n',
        0, "line 5: particle pt must be positive"),
    "event_id resuming across a block boundary": (
        "\n".join(["event_id,pt,eta,phi", *_P[:3], "ev1,1.0,0.0,0.0", "ev0,1.0,0.0,0.0"])
        + "\n", 3, "line 6: event_id 'ev0' resumes after other events' rows"),
    "quoted id in the second block": (
        "\n".join(["event_id,pt,eta,phi", *_P[:2], '"ev0",30.0,2.0,-3.5', *_P[3:]])
        + "\n", 1, None),
    "eta past sinh's range, row by row": (
        "\n".join(["event_id,pt,eta,phi", *_P[:2], '"ev1",5.0,-800.0,0.0']) + "\n",
        1, "line 4: particle |eta| too large: pt * sinh(eta) overflows"),
    "not a number": ("\n".join(["event_id,pt,eta,phi", *_P[:2], "ev1,5.0,fish,0.0"])
                     + "\n", 1, "line 4, column 'eta': not a number: 'fish'"),
    "too few cells": ("\n".join(["event_id,pt,eta,phi,mass", "ev0,1.0,0.0,0.0"]) + "\n",
                      0, "line 2: expected 5 columns, got 4"),
    "long id after good rows": ("\n".join(["event_id,pt,eta,phi", *_P[:3]]) + "\n"
                                + "e" * 140000 + ",1.0,0.0,0.0\n",
                                1, "line 5: field larger than field limit (131072)"),
    "long header": ("event_id,pt,eta," + "p" * 140000 + "\n" + _P[0] + "\n", 0,
                    "line 1: field larger than field limit (131072)"),
    "header only": ("event_id,pt,eta,phi\n", 0, None),
}


@pytest.mark.parametrize("name", list(_PARTICLE_FILES))
def test_particle_block_parse_reads_as_row_by_row(tmp_path, name):
    text, blocks_taken, error = _PARTICLE_FILES[name]
    path = tmp_path / "particles.csv"
    path.write_bytes(text.encode())
    for block_lines in (2, 65536):
        fast, slow, taken = _read_both_ways(path, block_lines, _particle_events)
        assert fast == slow
        if block_lines == 2:
            assert taken == blocks_taken
    if error is None:
        assert all(rows_shape[1] == 4 for _, _, rows_shape in fast)
    else:
        assert fast == f"InputError: {path} {error}"


@given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from([repr, "{:.17g}".format, "{:.25g}".format])),
                min_size=1, max_size=30))
@example([(5e-324, -2.2250738585072014e-308, repr), (1.7976931348623157e308, -0.0, repr)])
def test_block_parse_reads_float_bits(tmp_path_factory, rows):
    # subnormals, signed zeros and the largest doubles, written at
    # shortest round trip and at other precisions
    path = tmp_path_factory.mktemp("io") / "features.csv"
    path.write_text("event_id,m,x\n" + "".join(
        f"{i},{fmt(m)},{fmt(x)}\n" for i, (m, x, fmt) in enumerate(rows)))
    fast, slow, taken = _read_both_ways(path, 8)
    assert fast == slow
    assert taken == -(-len(rows) // 8)
    values = [float(fmt(v)) for m, x, fmt in rows for v in (m, x)]
    assert fast[3] + fast[4] == b"".join(
        np.array(values[k::2]).tobytes() for k in (0, 1))


def test_undecodable_byte_after_a_bad_cell(tmp_path):
    # the row-by-row parse reports the bad cell at line 3, met before the
    # byte that does not decode: so does the block parse
    path = tmp_path / "bad.csv"
    path.write_bytes(b"event_id,m,x\n1,0.5,1.0\n2,0.5,fish\n"
                     + b"3,0.5,1.0\n" * 5000 + b"4,0.5,\xff\n")
    fast, slow, _ = _read_both_ways(path, 65536)
    assert fast == slow == f"InputError: {path} line 3, column 'x': not a number: 'fish'"
    # and so does the particle rule of a row parsed before the byte
    path.write_bytes(b"event_id,pt,eta,phi\n1,5.0,0.5,1.0\n2,-5.0,0.5,1.0\n"
                     + b"3,5.0,0.5,1.0\n" * 5000 + b"4,5.0,0.5,\xff\n")
    for block_lines in (2, 65536):
        fast, slow, _ = _read_both_ways(path, block_lines, _particle_events)
        assert fast == slow == f"InputError: {path} line 3: particle pt must be positive"


def test_scores_and_scan_files(tmp_path, toy_model, toy_dataset):
    X, m = toy_dataset.event_arrays()
    report = score_events(toy_model, (X[:6], m[:6]),
                          ScoreConfig(sigma=0.15, thresholds=(1.5,)))
    spath = tmp_path / "scores.csv"
    n = write_scores(str(spath), [str(i) for i in range(6)], m[:6], report)
    assert n == 6
    lines = spath.read_text().splitlines()
    assert lines[0] == "event_id,m,alpha,p_signal,p_background,clamped_flag"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert float(first[2]) == report.alphas[0]
    assert first[5] in ("0", "1")

    rows = [ScanRow(0.0, 0.1, 2, 1.5, 1.4), ScanRow(0.1, 0.2, 0, None, None)]
    scan_path = tmp_path / "scan.csv"
    assert write_scan(str(scan_path), rows) == 2
    scan_lines = scan_path.read_text().splitlines()
    assert scan_lines[0] == "m_lo,m_hi,count,alpha_max,alpha_p99"
    assert scan_lines[2].split(",")[2] == "0"
    assert scan_lines[2].split(",")[3] == ""  # empty bins leave alpha blank


def test_file_sha256(tmp_path):
    path = tmp_path / "blob.bin"
    payload = b"overdensity\n" * 1000
    path.write_bytes(payload)
    assert file_sha256(str(path)) == hashlib.sha256(payload).hexdigest()


def test_manifest_is_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    payload = {"command": "fit", "zeta": 1, "alpha": [3, 2], "nested": {"y": 1, "x": 2}}
    write_manifest(str(a), payload)
    write_manifest(str(b), payload)
    assert a.read_bytes() == b.read_bytes()
    assert b"timestamp" not in a.read_bytes()


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                max_size=50))
def test_float_serialization_is_exact(tmp_path_factory, values):
    path = str(tmp_path_factory.mktemp("io") / "f.csv")
    m = np.asarray(values, dtype=float)
    X = m.reshape(-1, 1) * 0.5
    write_features(path, [str(i) for i in range(m.size)], "m", m, ["x"], X)
    table = read_features(path)
    assert np.array_equal(table.conditionals, m)
    assert np.array_equal(table.features, X)
