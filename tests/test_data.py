import csv
import functools
import gc
import hashlib
import os
import stat
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ebmlab import data as dt
from ebmlab import models as mz
from ebmlab import training as tr
from ebmlab.rng import stream


class TestLoadCsv:
    def test_three_row_file(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b,label\n1.0,2.0,0\n3.5,-1.0,1\n0.0,0.25,0\n")
        table = dt.load_csv(str(p), label_column="label")
        assert table.features.shape == (3, 2)
        assert np.array_equal(table.features[1], [3.5, -1.0])
        assert table.labels.tolist() == [0, 1, 0]

    def test_no_label_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n3,4\n")
        table = dt.load_csv(str(p))
        assert table.labels is None
        assert table.features.shape == (2, 2)

    def test_categorical_labels_remapped(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,label\n1,setosa\n2,virginica\n3,setosa\n")
        table = dt.load_csv(str(p), label_column="label")
        assert_sorted_name_codes(table.labels, ["setosa", "virginica", "setosa"])
        assert table.labels.tolist() == [0, 1, 0]

    def test_noncontiguous_int_labels_remapped(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,label\n1,5\n2,2\n3,5\n")
        table = dt.load_csv(str(p), label_column="label")
        assert table.labels.tolist() == [1, 0, 1]

    def test_malformed_cell_reports_line_numbers(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\nx,4\n5,6\n7,oops\n")
        with pytest.raises(dt.DataError, match=r"lines \[3, 5\]"):
            dt.load_csv(str(p))

    def test_missing_label_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(dt.DataError, match="label"):
            dt.load_csv(str(p), label_column="y")

    def test_label_column_alone_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("label\n1\n2\n")
        with pytest.raises(dt.DataError, match="no feature columns"):
            dt.load_csv(str(p), label_column="label")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("")
        with pytest.raises(dt.DataError):
            dt.load_csv(str(p))

    def test_write_read_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        table = dt.LabeledTable(rng.normal(size=(20, 3)), rng.integers(0, 3, size=20))
        p = tmp_path / "t.csv"
        dt.write_csv(str(p), table, provenance="synthetic check")
        back = dt.load_csv(str(p), label_column="label")
        assert np.array_equal(back.features, table.features)  # repr() is lossless
        assert np.array_equal(back.labels, table.labels)

    def test_inf_cell_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\ninf,4\n")
        with pytest.raises(dt.DataError, match="non-finite"):
            dt.load_csv(str(p))

    def test_bad_line_numbers_count_comment_and_blank_lines(self, tmp_path):
        p = tmp_path / "t.csv"
        dt.write_csv(str(p), dt.LabeledTable(np.ones((3, 2)), np.array([0, 1, 0])),
                     provenance="made by hand")
        lines = p.read_text().splitlines()
        assert lines[0].startswith("#")
        lines[3] = "1.0,oops,1"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(dt.DataError, match=r"lines \[4\]"):
            dt.load_csv(str(p), label_column="label")
        p.write_text("\n".join(lines[:2] + [""] + lines[2:]) + "\n")
        with pytest.raises(dt.DataError, match=r"lines \[5\]"):
            dt.load_csv(str(p), label_column="label")

    def test_quoted_categorical_labels(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text('a,label\n1,"iris, setosa"\n2,"say ""hi"""\n3,"iris, setosa"\n'
                     '4,"two\nlines"\n')
        table = dt.load_csv(str(p), label_column="label")
        assert_sorted_name_codes(table.labels,
                                 ["iris, setosa", 'say "hi"', "iris, setosa", "two\nlines"])
        assert table.labels.tolist() == [0, 1, 0, 2]
        assert table.features.ravel().tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_crlf_line_endings(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_bytes(b"# note\r\na,b,label\r\n1.5,2,0\r\n\r\n3,4.25,1\r\n")
        table = dt.load_csv(str(p), label_column="label")
        assert table.features.tolist() == [[1.5, 2.0], [3.0, 4.25]]
        assert table.labels.tolist() == [0, 1]

    def test_byte_order_mark(self, tmp_path):
        # a leading UTF-8 byte-order mark is no character of the first line:
        # the header, a comment before it and a rejected row's line number
        # read as in the file without the mark
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(b"label,a\n0,1\n1,2\n")
        marked.write_bytes(b"\xef\xbb\xbflabel,a\n0,1\n1,2\n")
        want, got = (dt.load_csv(str(p), label_column="label") for p in (plain, marked))
        assert got.features.tobytes() == want.features.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()
        marked.write_bytes(b"\xef\xbb\xbf# note\nlabel,a\n0,1\n1,x\n")
        with pytest.raises(dt.DataError, match=r"unparseable rows at lines \[4\]"):
            dt.load_csv(str(marked), label_column="label")

    @pytest.mark.parametrize("header, rows", [
        ("label,a,b", ["7,1,2", "3,3,4"]),
        ("a,label,b", ["1,7,2", "3,3,4"]),
    ])
    def test_label_column_first_and_middle(self, tmp_path, header, rows):
        p = tmp_path / "t.csv"
        p.write_text("\n".join([header] + rows) + "\n")
        table = dt.load_csv(str(p), label_column="label")
        assert table.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert table.labels.tolist() == [1, 0]
        assert np.unique(table.labels).size == 2

    def test_single_data_row(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b,label\n1,2,x\n")
        table = dt.load_csv(str(p), label_column="label")
        assert table.features.shape == (1, 2)
        assert table.labels.tolist() == [0]
        assert_sorted_name_codes(table.labels, ["x"])

    def test_ragged_rows_reported_by_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b,label\n1,2,0\n3,4,1,5\n6,7,0\n8,1\n")
        with pytest.raises(dt.DataError, match=r"lines \[3, 5\]"):
            dt.load_csv(str(p), label_column="label")

    def test_underscore_digits_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n1_000,3\n")
        with pytest.raises(dt.DataError, match=r"lines \[3\]"):
            dt.load_csv(str(p))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                             min_size=3, max_size=3), min_size=1, max_size=20))
    def test_features_match_python_float_bit_for_bit(self, tmp_path_factory, rows):
        p = tmp_path_factory.mktemp("csv") / "t.csv"
        cells = [["%.17g" % v for v in row] for row in rows]
        p.write_text("a,b,c\n" + "".join(",".join(r) + "\n" for r in cells))
        table = dt.load_csv(str(p))
        want = np.array([[float(c) for c in r] for r in cells])
        assert table.features.tobytes() == want.tobytes()

    def test_nan_features_rejected(self):
        with pytest.raises(dt.DataError):
            dt.LabeledTable(np.array([[1.0, np.nan]]))


def reference_parse_csv(path, label_column):
    """``load_csv``'s parse as one ``np.loadtxt`` call over every data row,
    all lines read at once: the reference the chunked parse must equal."""
    with open(path, "r", encoding="utf-8") as fh:  # "\r\n" and "\r" read as "\n"
        lines = fh.readlines()
    numbers = [n for n, ln in enumerate(lines, start=1)
               if ln != "\n" and not ln.startswith(("#", '"#'))]
    if not numbers:
        raise dt.DataError(f"{path}: empty file")
    header = next(csv.reader([lines[numbers[0] - 1]]))
    if label_column is not None and label_column not in header:
        raise dt.DataError(f"{path}: missing label column {label_column!r}")
    if header == [label_column]:
        raise dt.DataError(f"{path}: no feature columns")
    label_idx = header.index(label_column) if label_column is not None else None
    rows = [lines[n - 1] for n in numbers[1:]]
    if not rows:
        raise dt.DataError(f"{path}: no data rows")
    dtype = [(f"c{i}", object if i == label_idx else np.float64) for i in range(len(header))]
    parse = functools.partial(np.loadtxt, dtype=dtype, delimiter=",", quotechar='"',
                              comments=None, ndmin=1)
    try:
        table = parse(rows)
    except ValueError as exc:
        bad_lines = dt._rejected_lines(parse, rows, numbers[1:])
        raise dt.DataError(f"{path}: unparseable rows at lines {bad_lines}" if bad_lines
                           else f"{path}: {exc}") from None
    features = np.column_stack([table[f"c{i}"] for i in range(len(header)) if i != label_idx])
    labels = None
    if label_idx is not None:
        names, inverse = np.unique(table[f"c{label_idx}"].astype(str), return_inverse=True)
        try:
            names = np.array([int(name) for name in names])
        except ValueError:
            pass  # categorical labels
        labels = np.unique(names, return_inverse=True)[1][inverse]
    return dt.LabeledTable(features, labels, source=path)


# cells for a feature column: numbers, padded or quoted ones (one spanning
# lines), then cells numpy rejects, rarer
FEATURE_CELLS = ["1", "-2.5", " 3 ", "1e3", "0.1", '"4"', '"5\n"', '"6\r\n"'] * 5 + [
    '""', "", "x", "inf", "nan", "1_0", '"7', '8"', '"9"0']
# cells for a label column: integers, names, and quoted names holding a
# comma, a doubled quote, line breaks, a blank line or a leading "#"; then,
# rarer, quotes left open, which run on into the next lines
LABEL_CELLS = ["0", "1", "2", " 1", "01", "10", "a", "b", "", 'e"f', '"g"h', '"a,b"', '"x""y"',
               '"two\nlines"', '"\r\n\rb"', '"\n#c\n"', '"#d"'] * 3 + ['"c', '"', '"""']


@st.composite
def csv_texts(draw):
    """(text, label column) of a small CSV file: a header after leading
    comment and blank lines, rows of feature and label cells with the label
    anywhere, ragged rows, blank and comment lines between them, and any
    mix of line endings, the last one optional."""
    width = draw(st.integers(1, 3))
    label_at = draw(st.integers(0, width))
    names = [f"x{i}" for i in range(width)]
    names.insert(label_at, draw(st.sampled_from(["label"] * 4 + ['"label"', "y"])))
    label_column = draw(st.sampled_from(["label"] * 6 + [None, "z"]))
    cells = [st.sampled_from(LABEL_CELLS if i == label_at else FEATURE_CELLS)
             for i in range(len(names))]
    lines = draw(st.lists(st.sampled_from(["", "# note", '"# quoted note', "#"]), max_size=2))
    lines.append(",".join(names))
    kinds = ["row"] * 8 + ["ragged", "blank", "comment"]
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=12)):
        if kind == "blank":
            lines.append("")
        elif kind == "comment":
            lines.append(draw(st.sampled_from(["# note", '"# quoted note'])))
        elif kind == "row":
            lines.append(",".join(draw(cell) for cell in cells))
        else:
            lines.append(",".join(draw(st.lists(st.sampled_from(FEATURE_CELLS + LABEL_CELLS),
                                                min_size=1, max_size=len(names) + 2))))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends)), label_column


def _outcome(parse, path, label_column):
    """What ``parse`` gives: its table or its error, and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            table = parse(path, label_column)
        except Exception as exc:  # compared, not handled
            table = exc
    return table, [(w.category, str(w.message)) for w in caught]


class TestChunkedParse:
    """``_parse_csv`` reads a file in chunks of ``_CHUNK_ROWS`` rows; at
    tiny chunk sizes, a chunk boundary falls between any two rows, so a
    quoted cell spanning lines, comment and blank lines, a ragged or bad
    row may sit on either side of it."""

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3])
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(case=csv_texts())
    # a literal quote, then a quoted cell that spans two lines
    @example(case=('label,x0\ne"f,"5\n"\n1,2\n', "label"))
    # a rejected row that no half of the rows holds: the error is numpy's
    @example(case=('label,x0\n0,"7\n0,1\n', "label"))
    # every row ends in a quoted cell that spans lines, so one ends each chunk
    @example(case=('x0,label\n1,"a\nb"\n2,"c\n\nd"\n3,"e\nf"\n4,g\n', "label"))
    # a blank line and a comment after every row, so after each chunk's last
    @example(case=('label,x0\n0,1\n\n# note\n1,2\n\n"# note\n0,3\n\n#\n1,4\n', "label"))
    # 6 rows, a multiple of each chunk size, then a blank line and a comment
    @example(case=('label,x0\n0,1\n1,2\n0,3\n1,4\n0,5\n1,6\n\n# end\n', "label"))
    def test_equals_one_parse_of_all_rows(self, tmp_path_factory, chunk_rows, case):
        text, label_column = case
        path = str(tmp_path_factory.mktemp("csv") / "t.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        want, want_warnings = _outcome(reference_parse_csv, path, label_column)
        with mock.patch.object(dt, "_CHUNK_ROWS", chunk_rows):
            got, got_warnings = _outcome(dt._parse_csv, path, label_column)
        assert got_warnings == want_warnings
        if isinstance(want, Exception):
            assert (type(got), str(got)) == (type(want), str(want))
        else:
            _assert_same_table(got, want)


SIDECAR = "t.csv.ebmlab-cache.npz"


def _spring():
    raise AssertionError("the sidecar was unpickled")


def assert_sorted_name_codes(labels, names):
    """``labels`` are the rows' categorical ``names`` as codes, one per
    distinct name, numbered in sorted-name order."""
    assert labels.tolist() == [sorted(set(names)).index(name) for name in names]
    assert np.unique(labels).size == len(set(names))


class _Trap:
    def __reduce__(self):
        return _spring, ()


def _assert_same_table(got, want):
    assert got.features.dtype == want.features.dtype
    assert got.features.shape == want.features.shape
    assert got.features.tobytes() == want.features.tobytes()
    if want.labels is None:
        assert got.labels is None
    else:
        assert got.labels.dtype == want.labels.dtype
        assert got.labels.tobytes() == want.labels.tobytes()
    assert got.source == want.source


class TestCsvCache:
    @pytest.fixture
    def parses(self, monkeypatch):
        """One entry per np.loadtxt call made from here on."""
        calls, real = [], np.loadtxt

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counted)
        return calls

    @pytest.mark.parametrize("text, label_column", [
        ("a,b,label\n1.5,2,7\n3,-4.25,3\n0.1,1e300,7\n", "label"),
        ('a,label\n1,"iris, setosa"\n2,virginica\n3,"say ""hi"""\n', "label"),
        ("a,b\n1,2\n3,4\n", None),
    ], ids=["integer", "categorical", "unlabeled"])
    def test_hit_is_byte_equal_and_parses_nothing(self, tmp_path, monkeypatch, text,
                                                  label_column):
        p = tmp_path / "t.csv"
        p.write_text(text)
        parsed = dt.load_csv(str(p), label_column)
        assert sorted(os.listdir(tmp_path)) == ["t.csv", SIDECAR]

        def refuse(*args, **kwargs):
            raise AssertionError("parsed on a cache hit")

        monkeypatch.setattr(np, "loadtxt", refuse)
        _assert_same_table(dt.load_csv(str(p), label_column), parsed)

    def test_sidecar_mode_follows_the_umask(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n")
        old = os.umask(0o027)
        try:
            dt.load_csv(str(p))
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / SIDECAR).stat().st_mode) == 0o640

    def test_new_bytes_of_the_same_size_and_mtime_are_parsed(self, tmp_path, parses):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n3,4\n")
        dt.load_csv(str(p))
        before = p.stat()
        p.write_text("a,b\n1,2\n3,5\n")
        os.utime(p, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = p.stat()
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        n = len(parses)
        assert dt.load_csv(str(p)).features.tolist() == [[1.0, 2.0], [3.0, 5.0]]
        assert len(parses) > n
        n = len(parses)
        assert dt.load_csv(str(p)).features.tolist() == [[1.0, 2.0], [3.0, 5.0]]
        assert len(parses) == n

    def test_another_label_column_is_parsed(self, tmp_path, parses):
        p = tmp_path / "t.csv"
        p.write_text("a,b,label\n1,5,0\n2,6,1\n")
        dt.load_csv(str(p), "label")
        n = len(parses)
        table = dt.load_csv(str(p), "b")
        assert len(parses) > n
        assert table.features.tolist() == [[1.0, 0.0], [2.0, 1.0]]
        assert table.labels.tolist() == [0, 1]
        assert np.unique(table.labels).size == 2
        n = len(parses)
        assert dt.load_csv(str(p)).features.shape == (2, 3)
        assert len(parses) > n

    @pytest.mark.parametrize("attr", ["_CACHE_VERSION", "np.__version__"])
    def test_another_cache_or_numpy_version_is_parsed(self, tmp_path, monkeypatch, parses,
                                                      attr):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n")
        dt.load_csv(str(p))
        owner, name = (np, "__version__") if attr.startswith("np.") else (dt, attr)
        monkeypatch.setattr(owner, name, "0")
        n = len(parses)
        dt.load_csv(str(p))
        assert len(parses) > n

    def test_bytes_rewritten_after_hashing_are_not_cached(self, tmp_path, monkeypatch):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n")
        parse = dt._parse_csv

        def rewritten_first(path, label_column):
            p.write_text("a,b\n1,3\n")
            return parse(path, label_column)

        monkeypatch.setattr(dt, "_parse_csv", rewritten_first)
        assert dt.load_csv(str(p)).features.tolist() == [[1.0, 3.0]]
        assert os.listdir(tmp_path) == ["t.csv"]
        monkeypatch.undo()
        p.write_text("a,b\n1,2\n")
        assert dt.load_csv(str(p)).features.tolist() == [[1.0, 2.0]]

    def test_rows_added_during_the_parse_are_an_error(self, tmp_path, monkeypatch):
        # the parse counts the lines, then reads them again, the header first
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n")
        is_row = dt._is_row

        def appended_at_header(line):
            if line == "a,b\n":
                with open(p, "a", encoding="utf-8") as fh:
                    fh.write("3,4\n5,6\n")
            return is_row(line)

        monkeypatch.setattr(dt, "_is_row", appended_at_header)
        with pytest.raises(dt.DataError, match="t.csv: the file changed while it was read"):
            dt.load_csv(str(p))
        assert os.listdir(tmp_path) == ["t.csv"]

    @pytest.mark.parametrize("damage", ["truncated", "garbage", "object array", "npy"])
    def test_broken_sidecar_is_parsed_over_and_rewritten(self, tmp_path, parses, damage):
        p = tmp_path / "t.csv"
        p.write_text("a,label\n1,x\n2,y\n")
        want = dt.load_csv(str(p), "label")
        sidecar = tmp_path / SIDECAR
        good = sidecar.read_bytes()
        if damage == "truncated":
            sidecar.write_bytes(good[:len(good) // 2])
        elif damage == "garbage":
            sidecar.write_bytes(b"not a cache\n")
        elif damage == "object array":
            # the stored key still matches, so only refusing to unpickle
            # keeps _Trap from running
            with np.load(sidecar) as npz:
                arrays = dict(npz)
            arrays["features"] = np.array([_Trap()], dtype=object)
            np.savez(sidecar, **arrays)
        else:
            with open(sidecar, "wb") as fh:
                np.save(fh, want.features)
        n = len(parses)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            _assert_same_table(dt.load_csv(str(p), "label"), want)
            gc.collect()
        # the damaged sidecar's file is closed, not left to the collector
        assert [str(w.message) for w in caught if w.category is ResourceWarning] == []
        assert len(parses) > n
        n = len(parses)
        _assert_same_table(dt.load_csv(str(p), "label"), want)
        assert len(parses) == n

    def test_unwritable_sidecar_is_skipped(self, tmp_path, parses):
        # a directory in the sidecar's place: chmod would not stop root
        p = tmp_path / "t.csv"
        p.write_text("a,label\n1,x\n2,y\n")
        (tmp_path / SIDECAR).mkdir()
        for _ in range(2):
            n = len(parses)
            table = dt.load_csv(str(p), "label")
            assert len(parses) > n
            assert table.features.tolist() == [[1.0], [2.0]]
            assert_sorted_name_codes(table.labels, ["x", "y"])
        assert sorted(os.listdir(tmp_path)) == ["t.csv", SIDECAR]
        assert (tmp_path / SIDECAR).is_dir()

    @pytest.mark.parametrize("text, message", [
        ("a,b\n1,2\nx,4\n", "{p}: unparseable rows at lines [3]"),
        ("a,b\n1,2\ninf,4\n", "non-finite features after ingestion"),
        (b"a,b\n1,2\n3,\xe94\n", "{p}: not UTF-8 text"),  # latin-1
    ])
    def test_failed_parse_writes_no_sidecar(self, tmp_path, text, message):
        p = tmp_path / "t.csv"
        if isinstance(text, bytes):
            p.write_bytes(text)
        else:
            p.write_text(text)
        for _ in range(2):
            with pytest.raises(dt.DataError) as err:
                dt.load_csv(str(p))
            assert str(err.value) == message.format(p=p)
            assert os.listdir(tmp_path) == ["t.csv"]

    def test_missing_file_error_unchanged(self, tmp_path):
        p = str(tmp_path / "t.csv")
        with pytest.raises(FileNotFoundError) as want:
            open(p, encoding="utf-8")
        with pytest.raises(FileNotFoundError) as got:
            dt.load_csv(p)
        assert str(got.value) == str(want.value)
        assert os.listdir(tmp_path) == []


def piece_tree_sha256(data: bytes, piece: int) -> str:
    """sha256 over the sha256 digests of ``data``'s ``piece``-byte pieces, in order."""
    digests = [hashlib.sha256(data[i:i + piece]).digest() for i in range(0, len(data), piece)]
    return hashlib.sha256(b"".join(digests)).hexdigest()


class TestCacheKey:
    """``_file_sha256`` hashes a file's fixed-size pieces, on threads when
    there are several, and the sha256 of their digests keys the sidecar."""

    @pytest.mark.parametrize("piece, sizes", [
        (7, [0, 1, 6, 7, 8, 38]),
        # pieces longer than the 256 KiB read buffer, the last one shorter
        (300 << 10, [(300 << 10) - 1, 300 << 10, (300 << 10) + 1, 700 << 10]),
    ], ids=["tiny", "over-the-buffer"])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_piece_tree(self, tmp_path, monkeypatch, piece, sizes, cpus):
        monkeypatch.setattr(dt, "_HASH_PIECE", piece)
        monkeypatch.setattr(dt, "_usable_cpus", lambda: cpus)
        for size in sizes:
            data = np.random.default_rng(size).bytes(size)
            (tmp_path / "f").write_bytes(data)
            assert dt._file_sha256(str(tmp_path / "f")) == piece_tree_sha256(data, piece)

    def test_a_sidecar_written_at_one_cpu_is_read_at_three(self, tmp_path, monkeypatch):
        p = tmp_path / "t.csv"
        p.write_text("a,label\n" + "".join(f"{i},{i % 3}\n" for i in range(40)))
        monkeypatch.setattr(dt, "_HASH_PIECE", 16)
        monkeypatch.setattr(dt, "_usable_cpus", lambda: 1)
        want = dt.load_csv(str(p), "label")

        def refuse(*args, **kwargs):
            raise AssertionError("parsed on a cache hit")

        monkeypatch.setattr(np, "loadtxt", refuse)
        for cpus in (2, 3):
            monkeypatch.setattr(dt, "_usable_cpus", lambda: cpus)
            _assert_same_table(dt.load_csv(str(p), "label"), want)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_empty_file(self, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(dt, "_HASH_PIECE", 7)
        monkeypatch.setattr(dt, "_usable_cpus", lambda: cpus)
        p = tmp_path / "t.csv"
        p.write_text("")
        with pytest.raises(dt.DataError) as err:
            dt.load_csv(str(p))
        assert str(err.value) == f"{p}: empty file"
        assert os.listdir(tmp_path) == ["t.csv"]

    def test_no_thread_outlives_load_csv(self, tmp_path, monkeypatch, time_limit):
        """Pieces are hashed on threads other than the caller's, each
        joined before ``load_csv`` returns, so a suite can still fork."""
        monkeypatch.setattr(dt, "_HASH_PIECE", 8)
        monkeypatch.setattr(dt, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(tr, "_usable_cpus", lambda: 2)
        threads, sha256 = set(), hashlib.sha256

        def recording(*args):
            threads.add(threading.get_ident())
            return sha256(*args)

        monkeypatch.setattr(dt.hashlib, "sha256", recording)
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n3,4\n5,6\n")
        before = threading.active_count()
        with time_limit(60):
            assert dt.load_csv(str(p)).features.tolist() == [[1, 2], [3, 4], [5, 6]]
        # the piece digests come from pool threads; their tree, here
        assert len(threads) >= 2 and threading.get_ident() in threads
        assert threading.active_count() == before
        assert tr._worker_count(2) == 2


class TestClassRemovalSplit:
    def _table(self, n=100, n_classes=4, seed=0):
        rng = np.random.default_rng(seed)
        return dt.LabeledTable(rng.normal(size=(n, 3)), rng.integers(0, n_classes, size=n))

    def test_partition_is_exact(self):
        table = self._table(200)
        bundle = dt.class_removal_split(table, [1], seed=3)
        parts = bundle.parts()
        total = sum(p.n for p in parts.values())
        assert total == 200
        # every original row appears exactly once
        all_feats = np.concatenate([p.features for p in parts.values()])
        assert np.array_equal(np.sort(all_feats, axis=0), np.sort(table.features, axis=0))

    def test_removed_class_only_on_ood_side(self):
        table = self._table(300)
        bundle = dt.class_removal_split(table, [2], seed=1)
        for name in ("id_train", "id_val", "id_test"):
            part = bundle.parts()[name]
            assert part.labels.max() < 3  # relabeled 0..2 from kept {0,1,3}
        n_removed = int((table.labels == 2).sum())
        assert bundle.ood_val.n + bundle.ood_test.n == n_removed
        # named for what they are, not for the file they came from
        assert bundle.ood_val.source == bundle.ood_test.source == "removed-classes"

    def test_ood_val_fraction(self):
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(200, 2))
        labels = np.array([0] * 100 + [1] * 100)
        bundle = dt.class_removal_split(dt.LabeledTable(feats, labels), [1], val_frac=0.1)
        assert bundle.ood_val.n == 10
        assert bundle.ood_test.n == 90

    def test_id_fracs(self):
        table = self._table(1000, n_classes=2)
        bundle = dt.class_removal_split(table, [1], seed=0)
        n_id = 1000 - int((table.labels == 1).sum())
        assert bundle.id_train.n == round(0.7 * n_id)
        assert bundle.id_val.n == round(0.1 * n_id)

    def test_relabeling_contiguous(self):
        table = self._table(400, n_classes=5)
        bundle = dt.class_removal_split(table, [0, 3], seed=2)
        kept_labels = np.concatenate([bundle.id_train.labels, bundle.id_val.labels,
                                      bundle.id_test.labels])
        assert sorted(set(kept_labels.tolist())) == [0, 1, 2]
        ood_labels = np.concatenate([bundle.ood_val.labels, bundle.ood_test.labels])
        assert set(ood_labels.tolist()) == {0, 3}

    def test_reproducible(self):
        table = self._table(150)
        a = dt.class_removal_split(table, [1], seed=9)
        b = dt.class_removal_split(table, [1], seed=9)
        assert np.array_equal(a.id_train.features, b.id_train.features)
        c = dt.class_removal_split(table, [1], seed=10)
        assert not np.array_equal(a.id_train.features, c.id_train.features)

    def test_errors(self):
        table = self._table(50, n_classes=2)
        with pytest.raises(dt.DataError):
            dt.class_removal_split(table, [7])
        with pytest.raises(dt.DataError):
            dt.class_removal_split(table, [0, 1])
        with pytest.raises(dt.DataError):
            dt.class_removal_split(dt.LabeledTable(table.features), [0])


class TestSyntheticOodSets:
    def test_noise_halves(self):
        rng = np.random.default_rng(0)
        x = dt.make_noise(1000, 16, rng)
        assert x.shape == (1000, 16)
        in_box = np.abs(x).max(axis=1) <= 1.0
        # uniform rows always land in the box; a 16-d Gaussian row almost never does
        assert 460 <= in_box.sum() <= 545

    def test_noise_odd_count(self):
        x = dt.make_noise(7, 2, np.random.default_rng(1))
        assert x.shape == (7, 2)

    def test_noise_moments(self):
        rng = np.random.default_rng(2)
        x = dt.make_noise(10_000, 8, rng)
        gauss_like = np.abs(x).max(axis=1) > 1.0
        v = x[gauss_like].var()
        assert 0.9 <= v <= 1.2  # truncation-biased upward, still near 1

    def test_constant_rows(self):
        rng = np.random.default_rng(3)
        x = dt.make_constant(50, 6, rng)
        assert x.shape == (50, 6)
        assert np.all(x == x[:, :1])
        assert np.all((x >= -1.0) & (x <= 1.0))
        assert len(np.unique(x[:, 0])) == 50

    def test_oodomain_tabular_scaling(self):
        f = np.array([[0.5, -1.0], [2.0, 0.0]])
        assert np.array_equal(dt.make_oodomain(f), f * 255.0)

    def test_oodomain_image_rounds(self):
        f = np.array([[0.0, 0.5, 1.0]])
        out = dt.make_oodomain(f, mode="image")
        assert np.array_equal(out, [[0.0, 128.0, 255.0]])
        assert np.all(out == np.round(out))

    def test_oodomain_unknown_mode(self):
        with pytest.raises(dt.DataError):
            dt.make_oodomain(np.zeros((1, 1)), mode="audio")


class TestSmoothness:
    def test_pool_one_is_raw_noise(self):
        rng = np.random.default_rng(0)
        x = dt.make_smoothness(10, 4, 1, rng)
        assert x.shape == (10, 16)
        assert np.all((x >= 0.0) & (x <= 1.0))
        assert len(np.unique(x)) == 160  # no pooling, all pixels distinct

    def test_two_by_two_average(self):
        # one 2x2 image pooled at size 2 has all pixels equal to the mean
        rng = np.random.default_rng(1)
        x = dt.make_smoothness(5, 2, 2, rng)
        assert np.allclose(x, x[:, :1])

    def test_block_structure(self):
        rng = np.random.default_rng(2)
        x = dt.make_smoothness(3, 4, 2, rng).reshape(3, 4, 4)
        for img in x:
            for bi in range(2):
                for bj in range(2):
                    block = img[2 * bi:2 * bi + 2, 2 * bj:2 * bj + 2]
                    assert np.allclose(block, block[0, 0])

    def test_variance_decreases_with_pool_size(self):
        rng = np.random.default_rng(3)
        variances = []
        for pool in (1, 2, 4, 8):
            x = dt.make_smoothness(200, 16, pool, rng)
            variances.append(x.var())
        assert all(a > b for a, b in zip(variances, variances[1:]))
        # averaging k^2 iid uniforms divides the variance by k^2
        assert variances[1] == pytest.approx(variances[0] / 4.0, rel=0.15)

    def test_indivisible_pool_rejected(self):
        with pytest.raises(dt.DataError):
            dt.make_smoothness(1, 5, 2, np.random.default_rng(0))


class TestTwoMoons:
    def test_noiseless_geometry(self):
        rng = np.random.default_rng(0)
        table = dt.make_two_moons(400, 0.0, rng)
        f, l = table.features, table.labels
        outer = f[l == 0]
        inner = f[l == 1]
        assert np.allclose(np.linalg.norm(outer, axis=1), 1.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(inner - [1.0, 0.5], axis=1), 1.0, atol=1e-12)
        assert np.all(outer[:, 1] >= 0.0)
        assert np.all(inner[:, 1] <= 0.5)

    def test_balance_and_shuffle(self):
        table = dt.make_two_moons(501, 0.1, np.random.default_rng(1))
        assert table.n == 501
        assert abs(int((table.labels == 0).sum()) - 250) <= 1
        assert not np.all(table.labels[:250] == table.labels[0])  # shuffled

    def test_noise_magnitude(self):
        rng = np.random.default_rng(2)
        noisy = dt.make_two_moons(5000, 0.1, rng)
        radii = np.linalg.norm(noisy.features[noisy.labels == 0], axis=1)
        assert abs(radii.mean() - 1.0) < 0.05


def reference_moons_ood(n, noise_std, margin, exclusion, seed):
    """``two_moons_split``'s OOD test and validation rows, drawn as it draws
    them but filtered with the full (want, n, 2) distance tensor, and the
    number of rounds drawn."""
    rng = stream(seed, "data")
    table = dt.make_two_moons(n, noise_std, rng)
    rng.permutation(n)
    n_ood = n - round(0.7 * n) - round(0.1 * n)
    want = n_ood + max(n_ood // 5, 10)
    lo = table.features.min(axis=0) - margin
    hi = table.features.max(axis=0) + margin
    chunks = []
    while sum(map(len, chunks)) < want:
        cand = rng.uniform(lo, hi, size=(want, 2))
        if exclusion > 0:
            d2 = ((cand[:, None, :] - table.features[None, :, :]) ** 2).sum(axis=2)
            cand = cand[np.sqrt(d2.min(axis=1)) >= exclusion]
        chunks.append(cand)
    ood = np.concatenate(chunks)[:want]
    return ood[:n_ood], ood[n_ood:], len(chunks)


SPLIT_CASES = [(300, 0.0, 7, 1), (300, 0.3, 7, 3), (2000, 0.3, 5, 3), (101, 0.8, 2, 10)]


class TestTwoMoonsSplit:
    @pytest.mark.parametrize("n,radius,seed,rounds", SPLIT_CASES)
    def test_ood_rows_keep_the_exclusion_radius(self, n, radius, seed, rounds):
        self.check_ood_rows(n, radius, seed, rounds)

    # one row a block, and seven, which leaves a ragged last block at every n
    @pytest.mark.parametrize("block_rows", [1, 7])
    @pytest.mark.parametrize("n,radius,seed,rounds", SPLIT_CASES)
    def test_block_size_keeps_the_rows(self, n, radius, seed, rounds, block_rows, monkeypatch):
        monkeypatch.setattr(dt, "_DIST_BLOCK", block_rows * n)
        self.check_ood_rows(n, radius, seed, rounds)

    @staticmethod
    def check_ood_rows(n, radius, seed, rounds):
        bundle = dt.two_moons_split(n, 0.1, margin=0.5, exclusion=radius, seed=seed)
        ood_test, ood_val, drawn = reference_moons_ood(n, 0.1, 0.5, radius, seed)
        assert drawn == rounds
        assert bundle.ood_test.features.tobytes() == ood_test.tobytes()
        assert bundle.ood_val.features.tobytes() == ood_val.tobytes()
        data = np.vstack([bundle.id_train.features, bundle.id_val.features,
                          bundle.id_test.features])
        for ood in (bundle.ood_test.features, bundle.ood_val.features):
            gaps = np.linalg.norm(ood[:, None, :] - data[None, :, :], axis=2)
            assert gaps.min() >= radius

    def test_memory_stays_bounded(self):
        # the distance pass holds two blocks of rows, not two (want, n)
        # arrays (7.7 MB each at n = 2,000)
        dt.two_moons_split(2000, 0.1, 1.5, 0.3, seed=3)  # imports and caches outside the count
        tracemalloc.start()
        try:
            dt.two_moons_split(2000, 0.1, 1.5, 0.3, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20


class TestStandardize:
    def _bundle(self, seed=0):
        rng = np.random.default_rng(seed)
        feats = rng.normal(size=(200, 3)) * np.array([5.0, 0.1, 1.0]) + np.array([10.0, -2.0, 0.0])
        table = dt.LabeledTable(feats, rng.integers(0, 3, size=200))
        return dt.class_removal_split(table, [2], seed=seed)

    def test_train_moments(self):
        sb = dt.standardize(self._bundle())
        assert np.abs(sb.id_train.features.mean(axis=0)).max() < 1e-12
        assert np.allclose(sb.id_train.features.std(axis=0), 1.0, atol=1e-12)

    def test_other_parts_use_train_stats(self):
        raw = {name: part.features.copy() for name, part in self._bundle().parts().items()}
        sb = dt.standardize(self._bundle())
        mean, std = raw["id_train"].mean(axis=0), raw["id_train"].std(axis=0)
        for name, part in sb.parts().items():
            expected = (raw[name] - mean) / std
            assert part.features.tobytes() == expected.tobytes(), name

    def test_overflow_is_rejected(self):
        # a constant train column floors its std at 1e-8, and 1e301 / 1e-8
        # overflows in the OOD part
        feats = np.zeros((40, 2))
        feats[20:, 0] = 1e301
        table = dt.LabeledTable(feats, np.array([0] * 20 + [1] * 20))
        with pytest.raises(dt.DataError, match="non-finite"), np.errstate(over="ignore"):
            dt.standardize(dt.class_removal_split(table, [1], seed=0))

    def test_constant_column_floor(self):
        # column 0 is 1 on every kept row and 2 on the removed class's rows
        feats = np.ones((40, 2))
        feats[:, 1] = np.arange(40)
        feats[20:, 0] = 2.0
        table = dt.LabeledTable(feats, np.array([0] * 20 + [1] * 20))
        sb = dt.standardize(dt.class_removal_split(table, [1], seed=0))
        assert np.all(np.isfinite(sb.id_train.features))
        assert np.all(sb.ood_test.features[:, 0] == 1.0 / 1e-8)


class TestEmbedDataset:
    def test_shapes_and_determinism(self):
        bundle = TestStandardize()._bundle(1)
        spec = mz.ModelSpec(input_dim=3, hidden=[8, 6], head="logits", n_classes=2)
        params = mz.init_params(spec, 0)
        e1 = dt.embed_dataset(spec, params, bundle)
        e2 = dt.embed_dataset(spec, params, bundle)
        assert e1.id_train.dim == 6
        for name, part in e1.parts().items():
            assert part.n == bundle.parts()[name].n
            assert np.array_equal(part.features, e2.parts()[name].features)
        assert np.array_equal(e1.id_train.labels, bundle.id_train.labels)
