import csv
import hashlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

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
    path = tmp_path / "particles.csv"
    path.write_text("event_id,pt,eta,phi,mass\n"
                    "ev0,10.0,0.1,0.2,0.0\n"
                    "ev0,20.0,-1.0,2.0,0.5\n"
                    "ev1,30.0,2.0,-2.0,0.0\n")
    back = list(read_particle_events(str(path)))
    assert [eid for eid, _ in back] == ["ev0", "ev1"]
    assert [len(ps) for _, ps in back] == [2, 1]
    assert back[0][1][1].mass == 0.5
    assert back[0][1][0].pt == 10.0


def test_particle_reader_validates(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("event_id,pt,eta,phi\n1,-5.0,0.0,0.0\n")
    with pytest.raises(InputError, match="line 2"):
        list(read_particle_events(str(path)))
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
