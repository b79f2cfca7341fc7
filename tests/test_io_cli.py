import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mcagg import cli
from mcagg import pipeline
from mcagg.core import (StochasticMatrix, make_partition,
                        stationary_distribution, validate_stochastic)
from mcagg.errors import (BadAssignment, BadBigram, BadParameter,
                          DuplicateLabel, LabelMismatch, McaggError,
                          NegativeCount, NonLetter, NonSquare, ParseError,
                          RaggedRows, RowSumViolation)
from mcagg.io import (file_sha256, ingest_bigrams, parse_matrix,
                      parse_partitions, read_report, write_matrix,
                      write_partitions, write_report)
from mcagg.klgeom import build_model
from mcagg.selection import SelectionReport

from conftest import floored_chain

DATA = Path(__file__).resolve().parents[1] / "data"


# --- parse_matrix / write_matrix ---

def test_parse_identity_csv(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,0\n0,1\n")
    m = parse_matrix(p)
    assert np.array_equal(m.rows, np.eye(2))
    assert m.labels is None


def test_parse_ragged(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,0\n1\n")
    with pytest.raises(RaggedRows):
        parse_matrix(p)


def test_parse_renormalizes_near_one(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("0.5000001,0.5\n0.25,0.7499999\n")
    m = parse_matrix(p)
    assert np.abs(m.rows.sum(axis=1) - 1.0).max() < 1e-15


def test_parse_rejects_bad_sums(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("0.6,0.5\n0.5,0.5\n")
    with pytest.raises(RowSumViolation):
        parse_matrix(p)


@pytest.mark.parametrize("name, text", [
    ("m.csv", "0.5,0.5\nnan,0.5\n"),
    ("m.json", '{"matrix": [[0.5, 0.5], [NaN, 0.5]]}'),
])
def test_parse_rejects_nan_entries(tmp_path, name, text, capsys):
    # a NaN row sum is a row-sum violation, in the library and the CLI
    p = tmp_path / name
    p.write_text(text)
    with pytest.raises(RowSumViolation):
        parse_matrix(p)
    assert cli.main(["pipeline", "--matrix", str(p)]) == 1
    assert "row 1 sums to nan" in capsys.readouterr().err


@pytest.mark.parametrize("body", [
    {"matrix": 5},
    {"matrix": [[0.5, "a"], [0.5, 0.5]]},
])
def test_parse_json_rejects_malformed_matrix(tmp_path, body, capsys):
    p = tmp_path / "m.json"
    p.write_text(json.dumps(body))
    with pytest.raises(ParseError):
        parse_matrix(p)
    assert cli.main(["pipeline", "--matrix", str(p)]) == 2
    capsys.readouterr()


def test_parse_bad_token_position(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,0\n0,oops\n")
    with pytest.raises(ParseError) as exc:
        parse_matrix(p)
    assert exc.value.line == 2
    assert exc.value.column == 2


def test_parse_label_header(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("u,v\n0.5,0.5\n0.25,0.75\n")
    m = parse_matrix(p)
    assert m.labels == ("u", "v")


def test_parse_json_variant(tmp_path):
    p = tmp_path / "m.json"
    p.write_text(json.dumps({"labels": ["x", "y"],
                             "matrix": [[0.5, 0.5], [0.1, 0.9]]}))
    m = parse_matrix(p)
    assert m.labels == ("x", "y")
    assert np.allclose(m.rows, [[0.5, 0.5], [0.1, 0.9]], atol=1e-15)
    p2 = tmp_path / "bad.json"
    p2.write_text(json.dumps({"rows": []}))
    with pytest.raises(ParseError):
        parse_matrix(p2)


# --- byte-order mark and duplicate labels ---

BOM = b"\xef\xbb\xbf"   # what Excel's "CSV UTF-8" export starts a file with


def _pair(tmp_path, name, text):
    """The same text written as name and as bom-name with a leading BOM."""
    plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
    plain.write_bytes(text.encode())
    marked.write_bytes(BOM + text.encode())
    return plain, marked


@pytest.mark.parametrize("name, text", [
    ("m.csv", "0.5,0.5\n0.25,0.75\n"),
    ("m.csv", "a,b\n0.5,0.5\n0.25,0.75\n"),
    ("m.json", '{"labels": ["a", "b"], "matrix": [[0.5, 0.5], [0.25, 0.75]]}'),
])
def test_parse_matrix_reads_a_bom_file_as_without(tmp_path, name, text):
    plain, marked = _pair(tmp_path, name, text)
    want, got = parse_matrix(plain), parse_matrix(marked)
    assert got.labels == want.labels
    assert np.array_equal(got.rows, want.rows)


def test_other_readers_read_a_bom_file_as_without(tmp_path):
    plain, marked = _pair(tmp_path, "p.json", '{"2": [["b"], ["a"]]}')
    want = parse_partitions(plain, labels=("a", "b"))
    got = parse_partitions(marked, labels=("a", "b"))
    assert np.array_equal(got[2].assign, want[2].assign)
    plain, marked = _pair(tmp_path, "b.txt", "ab 3\nba 1\n")
    assert np.array_equal(ingest_bigrams(marked).rows,
                          ingest_bigrams(plain).rows)
    rep = SelectionReport(k_t=2, t_bars={1: 0.5, 2: 0.1},
                          nus={2: float(np.log(5.0))})
    out = tmp_path / "r.json"
    write_report(rep, out)
    plain, marked = _pair(tmp_path, "r.json", out.read_text())
    assert read_report(marked) == read_report(plain)


@pytest.mark.parametrize("command, name, text", [
    # without the BOM handling: the first data row taken as a header, exit 1
    ("pipeline", "m.csv", "0.9,0.1,0\n0.1,0.9,0\n0,0.1,0.9\n"),
    # without it: "unknown label 'a'", exit 2
    ("select", "m.csv", "a,b,c\n0.9,0.1,0\n0.1,0.9,0\n0,0.1,0.9\n"),
    # without it: "Unexpected UTF-8 BOM", exit 2
    ("pipeline", "m.json", '{"matrix": [[0.9, 0.1, 0], [0.1, 0.9, 0], '
                           '[0, 0.1, 0.9]]}'),
])
def test_cli_reads_a_bom_matrix_as_without(tmp_path, capsys, command, name,
                                           text):
    parts = tmp_path / "parts.json"
    parts.write_text('{"1": [["a", "b", "c"]], "2": [["a", "b"], ["c"]], '
                     '"3": [["a"], ["b"], ["c"]]}')
    reports = []
    for path in _pair(tmp_path, name, text):
        out = tmp_path / f"report-{path.name}.json"
        argv = [command, "--matrix", str(path), "--out", str(out)]
        if command == "select":
            argv += ["--partitions", str(parts)]
        assert cli.main(argv) == 0, capsys.readouterr().err
        report = json.loads(out.read_text())
        assert report.pop("input") == file_sha256(path)
        reports.append(report)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("name, text", [
    ("m.csv", "a,a\n0.5,0.5\n0.25,0.75\n"),
    ("m.json", '{"labels": ["a", "a"], "matrix": [[0.5, 0.5], [0.25, 0.75]]}'),
])
def test_duplicate_state_labels_are_rejected(tmp_path, capsys, name, text):
    # before, the matrix was accepted and a label-set partition could never
    # address state 0; select blamed the partition file
    p = tmp_path / name
    p.write_text(text)
    with pytest.raises(DuplicateLabel, match="'a'"):
        parse_matrix(p)
    parts = tmp_path / "parts.json"
    parts.write_text('{"1": [["a"]]}')
    assert cli.main(["select", "--matrix", str(p),
                     "--partitions", str(parts)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'a'" in err
    assert "k=1" not in err and "Traceback" not in err
    with pytest.raises(DuplicateLabel):
        validate_stochastic(np.eye(2), labels=("a", "a"))


def test_parse_json_labels_must_be_strings(tmp_path):
    p = tmp_path / "m.json"
    p.write_text('{"labels": [["a"], ["b"]], "matrix": [[1, 0], [0, 1]]}')
    with pytest.raises(ParseError):
        parse_matrix(p)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_matrix_round_trip(tmp_path, fmt):
    rng = np.random.default_rng(0)
    from mcagg.core import StochasticMatrix
    m = StochasticMatrix(rows=rng.dirichlet(np.ones(5), size=5),
                         labels=tuple("abcde"))
    p = tmp_path / f"m.{fmt}"
    write_matrix(m, p)
    if fmt == "json":
        assert json.loads(p.read_text())["labels"] == list("abcde")
    back = parse_matrix(p)
    assert np.abs(back.rows - m.rows).max() < 1e-12
    assert back.labels == m.labels


@pytest.mark.parametrize("labels", [
    ("1", "2", "3"),      # every label a number: read back as a data row
    ("a,b", "c", "d"),    # a comma: read back as four labels
    (" a", "a", "b"),     # surrounding whitespace: read back as a duplicate
    ("a", "", "b"),       # empty
    ("a", "b\nc", "d"),   # a line break
])
def test_write_matrix_refuses_labels_a_csv_header_cannot_hold(tmp_path,
                                                              labels):
    # each used to write a header that parse_matrix read back as something
    # else (NonSquare, DimensionMismatch, DuplicateLabel); JSON keeps them
    m = StochasticMatrix(rows=np.full((3, 3), 1 / 3), labels=labels)
    p = tmp_path / "m.csv"
    with pytest.raises(BadParameter, match=r"\.json"):
        write_matrix(m, p)
    assert not p.exists()
    write_matrix(m, tmp_path / "m.json")
    assert parse_matrix(tmp_path / "m.json").labels == labels


def _try_float(tok):
    try:
        return float(tok)
    except ValueError:
        return None


def _float_parse_csv(path):
    """The csv branch of parse_matrix as it was before the one-call loadtxt
    conversion: one float() per token, kept verbatim as the reference."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ParseError("empty matrix file", line=1)
    labels = None
    start = 0
    head = [t.strip() for t in lines[0].split(",")]
    if any(_try_float(t) is None for t in head):
        labels = tuple(head)
        start = 1
    data = []
    width = None
    for ln_no, ln in enumerate(lines[start:], start + 1):
        toks = ln.split(",")
        if width is None:
            width = len(toks)
        elif len(toks) != width:
            raise RaggedRows(
                f"line {ln_no} has {len(toks)} fields, expected {width}")
        try:
            # float() ignores surrounding whitespace, as strip() would
            data.append(list(map(float, toks)))
        except ValueError:
            for col, tok in enumerate(toks, 1):
                if _try_float(tok) is None:
                    raise ParseError(f"bad number {tok.strip()!r}",
                                     line=ln_no, column=col)
    return validate_stochastic(np.asarray(data, dtype=float), tol=1e-6,
                               labels=labels)


def _assert_same_parse(path):
    ref, got = _float_parse_csv(path), parse_matrix(path)
    assert got.rows.dtype == ref.rows.dtype
    assert got.rows.shape == ref.rows.shape
    assert got.rows.tobytes() == ref.rows.tobytes()
    assert got.labels == ref.labels
    return got


def _raised(fn, path):
    with pytest.raises(McaggError) as exc:
        fn(path)
    e = exc.value
    return type(e), str(e), getattr(e, "line", None), getattr(e, "column",
                                                             None)


@pytest.mark.parametrize("n", [1, 2, 10, 57])
@pytest.mark.parametrize("labelled", [False, True])
def test_parse_csv_bit_identical_to_float_reference(tmp_path, n, labelled):
    rng = np.random.default_rng(n)
    rows = rng.dirichlet(np.ones(n), size=n)
    rows[rng.random((n, n)) < 0.2] = 0.0
    rows[np.arange(n), np.arange(n)] += 1e-3
    rows /= rows.sum(axis=1, keepdims=True)
    labels = tuple(f"s{i}" for i in range(n)) if labelled else None
    p = tmp_path / "m.csv"
    write_matrix(StochasticMatrix(rows=rows, labels=labels), p)
    got = _assert_same_parse(p)
    assert got.labels == labels


def test_parse_courtois_bit_identical_to_float_reference():
    assert _assert_same_parse(DATA / "courtois.csv").n == 8


@pytest.mark.parametrize("text", [
    "0.5,0.5\n\n   \n\t\n0.25,0.75\n\n",             # blank lines
    "u,v\r\n0.5,0.5\r\n0.25,0.75\r\n",                # CRLF
    " 0.5 ,\t0.5\n0.25\t, 0.75 \n",                    # spaces and tabs
    "\n  \nu,v\n0.5,0.5\n\n0.25,0.75\n",               # header after blanks
    "1e-1,9E-1,0\n.5,5.e-1,0\n0,0,1\n",                # exponent forms
])
def test_parse_csv_edge_files_match_float_reference(tmp_path, text):
    p = tmp_path / "m.csv"
    p.write_bytes(text.encode())
    _assert_same_parse(p)


@pytest.mark.parametrize("text,err,line,column", [
    ("1,0\n\n0,1\n1\n", RaggedRows, None, None),      # ragged at line 3
    ("\nu,v\n1,0\n\n0,1,0\n", RaggedRows, None, None),  # after a header
    ("1,0\n0,oops\n", ParseError, 2, 2),
    ("1,0\nx,y\n1,2,3\n", ParseError, 2, 1),           # first fault wins
    ("1,0\n0,1,2\nx,y\n", RaggedRows, None, None),
    ("u,v,w\n1,0,\n0,1,\n", ParseError, 2, 3),         # trailing comma
    ("u,v\n", NonSquare, None, None),                    # header only
])
def test_parse_csv_errors_match_float_reference(tmp_path, text, err, line,
                                                column):
    p = tmp_path / "m.csv"
    p.write_text(text)
    got = _raised(parse_matrix, p)
    assert got == _raised(_float_parse_csv, p)
    assert got[0] is err
    assert got[2:] == (line, column)


@pytest.mark.parametrize("tok", ["1_0e-1", "\u0661", "\uff11"])
def test_parse_csv_rejects_tokens_only_float_accepts(tmp_path, tok):
    # underscore digit groups and non-ASCII digits: float() takes them,
    # the loadtxt conversion does not
    p = tmp_path / "m.csv"
    p.write_text(f"0,1\n{tok},0\n")
    assert _float_parse_csv(p).n == 2
    with pytest.raises(ParseError) as exc:
        parse_matrix(p)
    assert (exc.value.line, exc.value.column) == (2, 1)


# --- ingest_bigrams ---

def test_ingest_unsmoothed_rows(tmp_path):
    p = tmp_path / "b.txt"
    p.write_text("aa 100\nab 100\nba 300\nbb 300\n")
    m = ingest_bigrams(p, smoothing=0.0)
    assert np.allclose(m.rows[0, :2], [0.5, 0.5], atol=1e-15)
    assert np.all(m.rows[0, 2:] == 0.0)
    assert np.allclose(m.rows[1, :2], [0.5, 0.5], atol=1e-15)
    # letters with no observed transitions fall back to uniform
    assert np.allclose(m.rows[2], 1 / 26, atol=1e-15)
    assert m.labels == tuple("abcdefghijklmnopqrstuvwxyz")


def test_ingest_empty_file_uniform(tmp_path):
    p = tmp_path / "b.txt"
    p.write_text("\n")
    m = ingest_bigrams(p, smoothing=1.0)
    assert np.allclose(m.rows, 1 / 26, atol=1e-15)


def test_ingest_errors(tmp_path):
    # a count is ASCII digits after an optional sign: int() alone read
    # "1_0" as 10 and the Arabic-Indic digit "\u0665" as 5
    cases = [("abc 5\n", BadBigram), ("ab x\n", BadBigram),
             ("Ab 5\n", NonLetter), ("ab -3\n", NegativeCount),
             ("ab 1_0\n", BadBigram), ("ac \u0665\n", BadBigram)]
    for text, err in cases:
        p = tmp_path / "b.txt"
        p.write_text(text)
        with pytest.raises(err):
            ingest_bigrams(p)
    p.write_text("ab +7\n")
    assert ingest_bigrams(p, smoothing=0.0).rows[0, 1] == 1.0


@pytest.mark.parametrize("eta", ["-5", "nan", "inf"])
def test_ingest_rejects_bad_smoothing(tmp_path, capsys, eta):
    # a negative eta used to write a row holding -0.25, and nan an all-NaN
    # matrix, both with exit 0
    p = tmp_path / "b.txt"
    p.write_text("ab 30\n")
    with pytest.raises(BadParameter):
        ingest_bigrams(p, smoothing=float(eta))
    out = tmp_path / "chain.csv"
    assert cli.main(["ingest-bigrams", "--counts", str(p), "--eta", eta,
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("text, where", [
    ("ab 1" + "0" * 400 + "\n", "line 1"),
    ("ab 1" + "0" * 5000 + "\n", "line 1"),
    ("aa 1" + "0" * 308 + "\nab 1" + "0" * 308 + "\n", "row 'a'"),
    ("ab 1" + "0" * 308 + "\nab 1" + "0" * 308 + "\n", "row 'a'"),
], ids=["count", "digits", "row-total", "cell-total"])
def test_ingest_rejects_counts_a_float_cannot_hold(tmp_path, capsys, text,
                                                   where):
    # a count of 10^400 raised an untyped OverflowError (a traceback), one
    # of 10^5000 has more digits than int() converts, and two counts of
    # 10^308 on one row wrote a NaN row with exit 0
    p = tmp_path / "b.txt"
    p.write_text(text)
    with pytest.raises(BadBigram, match=where):
        ingest_bigrams(p)
    out = tmp_path / "chain.csv"
    assert cli.main(["ingest-bigrams", "--counts", str(p),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and where in err
    assert "Traceback" not in err and not out.exists()


def test_ingest_rejects_a_smoothing_whose_rows_overflow(tmp_path, capsys):
    p = tmp_path / "b.txt"
    p.write_text("ab 3\n")
    with pytest.raises(BadBigram, match="row 'a'"):
        ingest_bigrams(p, smoothing=1e308)
    out = tmp_path / "chain.csv"
    assert cli.main(["ingest-bigrams", "--counts", str(p), "--eta", "1e308",
                     "--out", str(out)]) == 2
    assert not out.exists() and "Traceback" not in capsys.readouterr().err


def test_ingest_sample_strictly_positive():
    m = ingest_bigrams(DATA / "bigrams_sample.txt", smoothing=1.0)
    assert (m.rows > 0).all()
    assert np.abs(m.rows.sum(axis=1) - 1.0).max() < 1e-12


# --- partitions ---

def test_parse_partitions_trivial(tmp_path):
    p = tmp_path / "p.json"
    p.write_text('{"1": [0, 0, 0]}')
    parts = parse_partitions(p)
    assert parts[1].k == 1 and parts[1].n == 3


def test_parse_partitions_label_sets():
    m = ingest_bigrams(DATA / "bigrams_sample.txt")
    parts = parse_partitions(DATA / "table1_partitions.json",
                             labels=m.labels)
    vowels = sorted("aeiouy")
    got = [m.labels[i] for i in np.where(parts[2].assign ==
                                         parts[2].assign[0])[0]]
    assert sorted(got) == vowels


def test_parse_partitions_surjectivity(tmp_path):
    p = tmp_path / "p.json"
    p.write_text('{"2": [0, 2]}')
    with pytest.raises(BadAssignment):
        parse_partitions(p)


def test_parse_partitions_label_errors(tmp_path):
    labels = ("a", "b", "c")
    p = tmp_path / "p.json"
    p.write_text('{"2": [["a", "q"], ["b", "c"]]}')
    with pytest.raises(LabelMismatch):
        parse_partitions(p, labels=labels)
    p.write_text('{"2": [["a", "b"], ["b", "c"]]}')
    with pytest.raises(DuplicateLabel):
        parse_partitions(p, labels=labels)
    p.write_text('{"2": [["a"], ["b"]]}')
    with pytest.raises(LabelMismatch):   # c uncovered
        parse_partitions(p, labels=labels)


@pytest.mark.parametrize("body", [
    '{"1": [0, 0], "2": [0.5, 1]}',
    '{"1": [0, 0], "2": [true, false]}',
    '{"1": [0, 0], "2": [0, Infinity]}',
    '{"1": [0, 0], "2": [0, 1e300]}',
    '{"1": [0, 0], "2": ["0", " 1"]}',
])
def test_parse_partitions_rejects_non_integer_indices(tmp_path, capsys,
                                                      body):
    # 0.5 used to read as 0, true/false as 1/0 and "0"/" 1" as 0/1; inf and
    # 1e300 escaped as an untyped OverflowError
    p = tmp_path / "p.json"
    p.write_text(body)
    with pytest.raises(BadAssignment):
        parse_partitions(p)
    m = tmp_path / "m.csv"
    m.write_text("0.9,0.1\n0.2,0.8\n")
    assert cli.main(["select", "--matrix", str(m),
                     "--partitions", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_parse_partitions_rejects_a_repeated_k(tmp_path, capsys):
    # "02" used to overwrite "2" silently, so k = 2 read as [0, 1, 1]
    p = tmp_path / "p.json"
    p.write_text('{"2": [0, 0, 1], "02": [0, 1, 1]}')
    with pytest.raises(BadAssignment, match="k = 2") as e:
        parse_partitions(p)
    assert e.value.k == 2
    m = tmp_path / "m.csv"
    m.write_text("0.9,0.05,0.05\n0.1,0.8,0.1\n0.2,0.2,0.6\n")
    assert cli.main(["select", "--matrix", str(m),
                     "--partitions", str(p)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_parse_partitions_rejects_an_empty_object(tmp_path, capsys):
    # {} used to reach select_k and end in an untyped IndexError (exit 1)
    p = tmp_path / "p.json"
    p.write_text("{}")
    with pytest.raises(ParseError, match="no entries"):
        parse_partitions(p)
    m = tmp_path / "m.csv"
    m.write_text("0.9,0.1\n0.2,0.8\n")
    assert cli.main(["select", "--matrix", str(m),
                     "--partitions", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_parse_partitions_accepts_integral_floats(tmp_path):
    p = tmp_path / "p.json"
    p.write_text('{"2": [0, 1.0, 1]}')
    assert parse_partitions(p)[2].assign.tolist() == [0, 1, 1]


def test_partitions_round_trip(tmp_path):
    parts = {1: make_partition([0, 0, 0, 0]),
             2: make_partition([0, 1, 0, 1]),
             3: make_partition([0, 1, 2, 2])}
    p = tmp_path / "p.json"
    write_partitions(parts, p)
    back = parse_partitions(p)
    assert sorted(back) == [1, 2, 3]
    for k in parts:
        assert np.array_equal(back[k].assign, parts[k].assign)


# --- reports ---

def test_report_csv_formatting(tmp_path):
    rep = SelectionReport(k_t=2, t_bars={1: np.e ** 2, 2: np.e},
                          nus={2: 1.0})
    p = tmp_path / "r.csv"
    write_report(rep, p)
    lines = p.read_text().splitlines()
    assert lines[-2] == "1,7.389056098931,"
    assert lines[-1] == "2,2.718281828459,1.000000000000"
    assert "k,t_bar,nu" in lines
    assert any(ln.startswith("# k_t: 2") for ln in lines)


def test_report_json_round_trip(tmp_path):
    rep = SelectionReport(
        k_t=3, t_bars={1: 4.0, 2: 2.0, 3: 0.5}, nus={2: 0.69, 3: 1.386},
        mode="whiten",
        per_superstate={1: [4.0], 2: [2.0, 1.0], 3: [0.5, 0.2, 0.1]})
    p = tmp_path / "r.json"
    write_report(rep, p, input_hash="cafe")
    back = read_report(p)
    assert back.k_t == rep.k_t
    assert back.t_bars == rep.t_bars
    assert back.nus == rep.nus
    assert back.mode == rep.mode == "whiten"
    assert back.per_superstate == rep.per_superstate
    assert json.loads(p.read_text())["input"] == "cafe"


def test_read_report_accepts_older_options_echo(tmp_path):
    # reports once echoed membership and floor next to mode; they still
    # parse, and those keys are ignored
    p = tmp_path / "old.json"
    p.write_text(json.dumps({
        "exact_fit": False, "input": None, "k_t": 2,
        "options": {"floor": 1e-12, "membership": "normalized",
                    "mode": "whiten"},
        "rows": [
            {"k": 1, "nu": None, "per_superstate": [0.5], "t_bar": 0.5},
            {"k": 2, "nu": 1.25, "per_superstate": [0.1, 0.125],
             "t_bar": 0.125},
            {"k": 3, "nu": 0.5, "per_superstate": [0.1, 0.05, 0.0],
             "t_bar": 0.1}]}))
    back = read_report(p)
    assert back.k_t == 2 and not back.exact_fit
    assert back.t_bars == {1: 0.5, 2: 0.125, 3: 0.1}
    assert back.nus == {2: 1.25, 3: 0.5}
    assert back.mode == "whiten"
    assert back.per_superstate == {1: [0.5], 2: [0.1, 0.125],
                                   3: [0.1, 0.05, 0.0]}


def test_report_exact_fit_round_trip(tmp_path):
    rep = SelectionReport(k_t=2, t_bars={1: 1.0, 2: 0.0},
                          nus={2: np.inf}, exact_fit=True)
    p = tmp_path / "r.json"
    write_report(rep, p)
    back = read_report(p)
    assert back.exact_fit
    assert back.nus[2] == np.inf


def test_read_report_rejects_csv_and_incomplete_json(tmp_path):
    # a .csv path gets the csv report, which is not JSON; a JSON object
    # without "rows" is not a report either
    rep = SelectionReport(k_t=2, t_bars={1: 1.0, 2: 0.5}, nus={2: 0.69})
    p = tmp_path / "r.csv"
    write_report(rep, p)
    with pytest.raises(ParseError) as exc:
        read_report(p)
    assert exc.value.line == 1
    p2 = tmp_path / "r.json"
    p2.write_text(json.dumps({"k_t": 2, "exact_fit": False}))
    with pytest.raises(ParseError):
        read_report(p2)


@pytest.mark.parametrize("rows", [
    [{"k": 1, "nu": None}],          # a row without "t_bar"
    5,
])
def test_read_report_rejects_malformed_rows(tmp_path, rows):
    p = tmp_path / "r.json"
    p.write_text(json.dumps({"k_t": 1, "rows": rows}))
    with pytest.raises(ParseError):
        read_report(p)


# --- CLI ---

def _gen_matrix(tmp_path, seed=42):
    out = tmp_path / "pi.csv"
    rc = cli.main(["gen", "ncd", "--blocks", "3,3,3", "--eps", "0.05",
                   "--seed", str(seed), "--out", str(out)])
    assert rc == 0
    return out


def test_cli_gen_and_pipeline(tmp_path, capsys):
    mpath = _gen_matrix(tmp_path)
    report = tmp_path / "report.json"
    rc = cli.main(["pipeline", "--matrix", str(mpath), "--kmax", "6",
                   "--out", str(report)])
    assert rc == 0
    obj = json.loads(report.read_text())
    assert obj["k_t"] == 3
    out = capsys.readouterr().out
    assert out.startswith("config:")
    assert "k_t = 3" in out


def test_cli_select_bigrams(tmp_path, capsys):
    mpath = tmp_path / "bigram.csv"
    rc = cli.main(["ingest-bigrams", "--counts",
                   str(DATA / "bigrams_sample.txt"), "--out", str(mpath)])
    assert rc == 0
    rc = cli.main(["select", "--matrix", str(mpath), "--partitions",
                   str(DATA / "table1_partitions.json")])
    assert rc == 0
    assert "k_t = 2" in capsys.readouterr().out


def test_cli_aggregate_writes_partitions(tmp_path):
    mpath = _gen_matrix(tmp_path)
    parts = tmp_path / "parts.json"
    models = tmp_path / "models.json"
    rc = cli.main(["aggregate", "--matrix", str(mpath), "--kmax", "4",
                   "--out", str(parts), "--models", str(models)])
    assert rc == 0
    back = parse_partitions(parts)
    assert 1 in back
    mobj = json.loads(models.read_text())
    for k, rec in mobj.items():
        psi = np.asarray(rec["psi"])
        assert np.abs(psi.sum(axis=1) - 1.0).max() < 1e-9


def test_cli_aggregate_then_select_matches_pipeline(tmp_path, capsys):
    # aggregate writes the refined partition of every k in 1..kmax, so
    # select on its file gives pipeline's report bit for bit; on the
    # criterion-1 chains the sweep alone skips some k (seeds 4, 13, 18, 20)
    for seed in range(30):
        m = tmp_path / f"pi{seed}.csv"
        files = {name: tmp_path / f"{name}{seed}.json"
                 for name in ("piped", "parts", "aggregated", "selected")}
        assert cli.main(["gen", "ncd", "--blocks", "3,3,3", "--eps", "0.05",
                         "--seed", str(seed), "--out", str(m)]) == 0
        assert cli.main(["pipeline", "--matrix", str(m), "--kmax", "6",
                         "--out", str(files["piped"]),
                         "--partitions-out", str(files["parts"])]) == 0
        assert cli.main(["aggregate", "--matrix", str(m), "--kmax", "6",
                         "--out", str(files["aggregated"])]) == 0
        assert cli.main(["select", "--matrix", str(m), "--partitions",
                         str(files["aggregated"]),
                         "--out", str(files["selected"])]) == 0
        assert files["aggregated"].read_bytes() == files["parts"].read_bytes()
        assert sorted(json.loads(files["aggregated"].read_text())) == \
            [str(k) for k in range(1, 7)]
        assert files["selected"].read_bytes() == files["piped"].read_bytes()
    capsys.readouterr()


def test_cli_exit_codes(tmp_path):
    assert cli.main(["select"]) == 1                     # missing args
    assert cli.main(["pipeline", "--matrix", "nope.csv"]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\nx,y\n")
    assert cli.main(["select", "--matrix", str(bad),
                     "--partitions", str(bad)]) == 2     # parse failure
    sums = tmp_path / "sums.csv"
    sums.write_text("0.5,0.6\n0.5,0.5\n")
    assert cli.main(["pipeline", "--matrix", str(sums)]) == 1
    assert cli.main(["pipeline", "--matrix", str(sums), "--bogus"]) == 1


def test_cli_scores_a_chain_with_an_entry_below_the_floor(tmp_path, capsys):
    # selection drops the floored coordinate of the 10-state group's
    # centroid, as the annealer does, so every command reports
    rows = floored_chain()
    m, parts, out = (tmp_path / name for name in ("m.csv", "p.json",
                                                   "r.json"))
    write_matrix(rows, m)
    parts.write_text(json.dumps({"1": [0] * 11, "2": [0] * 10 + [1],
                                 "3": [0] * 9 + [1, 2]}))
    for argv in (["pipeline"], ["pipeline", "--rho", "stationary"],
                 ["pipeline", "--mode", "whiten"],
                 ["select", "--partitions", str(parts)],
                 ["select", "--partitions", str(parts), "--mode", "whiten"]):
        assert cli.main(argv + ["--matrix", str(m), "--out", str(out)]) == 0
        t_bars = list(read_report(out).t_bars.values())
        assert t_bars and np.isfinite(t_bars).all(), (argv, t_bars)
    capsys.readouterr()


@pytest.mark.parametrize("argv, token", [
    (["ncd", "--blocks", "3,3", "--eps", "-1"], "eps"),
    (["ncd", "--blocks", "3,3", "--eps", "nan"], "eps"),
    (["ncd", "--blocks", "a"], "'a'"),
    (["ncd", "--blocks", "3,,3"], "''"),
    (["rows", "--n", "6", "--kt", "2", "--eps", "1"], "eps"),
    (["rows", "--n", "6", "--kt", "2", "--counts", "3,x"], "'x'"),
    (["rows", "--n", "10", "--kt", "0"], "k_t"),
    (["rows", "--n", "10", "--kt", "-1"], "k_t"),
    (["ncd", "--blocks", "3,3", "--seed", "-1"], "seed"),
])
def test_cli_gen_rejects_bad_parameters(tmp_path, capsys, argv, token):
    # each used to end in an uncaught ValueError (or, for --kt 0,
    # ZeroDivisionError) traceback
    out = tmp_path / "m.csv"
    assert cli.main(["gen"] + argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert token in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["select", "pipeline"])
@pytest.mark.parametrize("flag", [["--floor", "0"], ["--floor", "nan"],
                                  ["--membership", "raw"]])
def test_cli_selection_takes_no_floor_or_membership(tmp_path, capsys,
                                                    command, flag):
    # selection is set by --mode alone; the floor and membership flags
    # are usage errors. On this eps = 0 chain a zero floor used to escape
    # main as LinAlgError, from select on its planted k = 1..3 partitions
    # and from pipeline
    mpath = tmp_path / "pi.csv"
    assert cli.main(["gen", "ncd", "--blocks", "3,3,3", "--eps", "0",
                     "--seed", "1", "--out", str(mpath)]) == 0
    parts = tmp_path / "parts.json"
    parts.write_text(json.dumps({"1": [0] * 9, "2": [0] * 3 + [1] * 6,
                                 "3": [0] * 3 + [1] * 3 + [2] * 3}))
    argv = [command, "--matrix", str(mpath)]
    if command == "select":
        argv += ["--partitions", str(parts)]
    assert cli.main(argv + flag) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert cli.main(argv) == 0


@pytest.mark.parametrize("command", ["select", "pipeline"])
def test_cli_selection_help_lists_mode_alone(capsys, command):
    assert cli.main([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert "--mode" in out
    assert "--membership" not in out and "--floor" not in out


@pytest.mark.parametrize("argv,rc", [
    (["pipeline", "--kmax", "0"], 1),
    (["pipeline", "--kmax", "-3"], 1),
    (["aggregate", "--kmax", "0", "--out", "parts.json"], 1),
    (["pipeline", "--fp-max-iter", "0"], 1),   # the annealer takes no flags
    (["pipeline", "--kmax", "1"], 0),
])
def test_cli_kmax_is_validated(tmp_path, monkeypatch, capsys, argv, rc):
    # the CLI resolves k_max as the library does: below 1 is a usage error,
    # never a silent default
    monkeypatch.chdir(tmp_path)
    mpath = _gen_matrix(tmp_path)
    assert cli.main(argv[:1] + ["--matrix", str(mpath)] + argv[1:]) == rc
    out, err = capsys.readouterr()
    if rc:
        assert "error:" in err
    else:
        assert '"kmax_effective": 1' in out and "k_t = 1" in out


def test_cli_takes_no_format_flag(tmp_path, monkeypatch, capsys):
    # every file's format follows its name: one flag would set both the
    # matrix and the report format, so a CSV matrix with a JSON report
    # could not be named
    monkeypatch.chdir(tmp_path)
    runs = [
        ["gen", "ncd", "--blocks", "3,3,3", "--eps", "0.05", "--out",
         "m.json"],
        ["aggregate", "--matrix", "m.json", "--kmax", "4", "--out",
         "parts.json"],
        ["select", "--matrix", "m.json", "--partitions", "parts.json",
         "--out", "r.csv"],
        ["pipeline", "--matrix", "m.json", "--kmax", "4", "--out", "r.json"],
        ["ingest-bigrams", "--counts", str(DATA / "bigrams_sample.txt"),
         "--out", "b.json"],
    ]
    for argv in runs:
        for fmt in ("csv", "json"):
            assert cli.main(argv + ["--format", fmt]) == 1
            assert "unrecognized arguments" in capsys.readouterr().err
        assert cli.main(argv) == 0
    assert json.loads((tmp_path / "m.json").read_text())
    assert json.loads((tmp_path / "r.json").read_text())["k_t"] >= 1
    assert (tmp_path / "r.csv").read_text().startswith("# input: ")
    assert parse_matrix(tmp_path / "b.json").n == 26


def test_cli_select_wrong_length_partitions(tmp_path, capsys):
    mpath = _gen_matrix(tmp_path)                      # 9 states
    parts = tmp_path / "parts.json"
    parts.write_text(json.dumps({"1": [0] * 8, "2": [0] * 4 + [1] * 4}))
    rc = cli.main(["select", "--matrix", str(mpath),
                   "--partitions", str(parts)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "k=1: n=8" in err and "k=2: n=8" in err


def _count_calls(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append((name, args, kwargs))
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)


def _assert_select_k_call(call, n):
    # the benchmark's output check reads (rows, partitions, rho) from the
    # positional arguments of the captured select_k call
    _, args, _ = call
    rows, partitions, rho = args[:3]
    assert rows.shape == (n, n)
    assert sorted(partitions) == list(range(1, len(partitions) + 1))
    assert all(p.n == n for p in partitions.values())
    assert rho.shape == (n,)


def test_cli_select_reaches_module_hooks(tmp_path, monkeypatch):
    # perfbench/tracing.py times `select` by replacing these attributes of
    # mcagg.cli; a call that bypasses them would zero its counters silently
    mpath = _gen_matrix(tmp_path)
    parts = tmp_path / "parts.json"
    write_partitions({1: make_partition([0] * 9),
                      2: make_partition([0] * 3 + [1] * 6)}, parts)
    calls = []
    _count_calls(monkeypatch, cli, "parse_matrix", calls)
    _count_calls(monkeypatch, cli, "select_k", calls)
    assert cli.main(["select", "--matrix", str(mpath), "--partitions",
                     str(parts), "--out", str(tmp_path / "r.json")]) == 0
    assert [c[0] for c in calls] == ["parse_matrix", "select_k"]
    _assert_select_k_call(calls[1], 9)


def test_cli_pipeline_reaches_module_hooks(tmp_path, monkeypatch):
    mpath = _gen_matrix(tmp_path)
    calls = []
    _count_calls(monkeypatch, cli, "parse_matrix", calls)
    _count_calls(monkeypatch, cli, "select_k", calls)
    _count_calls(monkeypatch, cli, "run_pipeline", calls)
    _count_calls(monkeypatch, pipeline, "select_k", calls)
    assert cli.main(["pipeline", "--matrix", str(mpath), "--kmax", "4",
                     "--out", str(tmp_path / "r.json")]) == 0
    # the pipeline selects through mcagg.pipeline.select_k, which the
    # benchmark wraps as well; mcagg.cli.select_k is for `select` alone
    assert [c[0] for c in calls] == ["parse_matrix", "run_pipeline",
                                     "select_k"]
    _assert_select_k_call(calls[2], 9)


def _load_perfbench(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hook_names_resolve():
    # perfbench/tracing.py wraps each (module, attribute) it lists with a
    # getattr, so a name that is gone stops every traced benchmark run
    tracing = _load_perfbench("tracing")
    hooks = tracing.SPANS + tracing.COUNTS + tracing.CAPTURES
    missing = [(mod, attr) for mod, attr, _ in hooks
               if not hasattr(importlib.import_module(mod), attr)]
    assert missing == []


def test_benchmark_reads_the_anneal_call(tmp_path):
    # perfbench/run.py:anneal_stats reads cfg.k_max from the third argument
    # of the traced anneal call and the AnnealResult fields on every traced
    # op; a change to that call shape stops every traced benchmark run
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                   "MKL_NUM_THREADS")
    saved = {var: os.environ.get(var) for var in thread_vars}
    try:
        run = _load_perfbench("run")     # sets the three at import
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value
    tracer = _load_perfbench("tracing").Tracer(timed=True)
    mpath = _gen_matrix(tmp_path)
    rows = parse_matrix(mpath).rows
    calls = [lambda: cli.main(["pipeline", "--matrix", str(mpath),
                               "--kmax", "4"]),
             lambda: pipeline.run_pipeline(rows, k_max=6)]
    records = []
    tracer.install()
    try:
        for op, call in enumerate(calls):
            tracer.begin_op(op)
            call()
            run.anneal_stats(tracer, records)
            assert len(records) == op + 1
            assert 0 < records[-1]["k_yield"] <= 1
    finally:
        tracer.uninstall()


def test_cli_deterministic_reports(tmp_path):
    mpath = _gen_matrix(tmp_path, seed=7)
    r1, r2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for r in (r1, r2):
        rc = cli.main(["pipeline", "--matrix", str(mpath), "--kmax", "5",
                       "--out", str(r)])
        assert rc == 0
    assert file_sha256(r1) == file_sha256(r2)


def test_cli_main_reuses_one_parser(tmp_path, monkeypatch, capsys):
    mpath = _gen_matrix(tmp_path)
    parts = tmp_path / "parts.json"
    write_partitions({1: make_partition([0] * 9),
                      2: make_partition([0] * 3 + [1] * 6)}, parts)
    out = tmp_path / "out.json"
    select = ["select", "--matrix", str(mpath), "--partitions", str(parts),
              "--out", str(out)]
    argvs = [select,
             ["pipeline", "--matrix", str(mpath), "--kmax", "4",
              "--rho", "stationary", "--out", str(out)],
             ["select", "--matrix", str(mpath), "--kmax", "4"],  # exit 1
             select]
    capsys.readouterr()

    def run(argv):
        out.unlink(missing_ok=True)
        rc = cli.main(argv)
        text = out.read_text() if out.exists() else None
        return rc, capsys.readouterr(), text

    fresh = []
    for argv in argvs:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(run(argv))
    assert [rc for rc, _, _ in fresh] == [0, 0, 1, 0]

    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or build())
    monkeypatch.setattr(cli, "_parser", None)
    assert [run(argv) for argv in argvs] == fresh
    assert len(built) == 1


def test_cli_stationary_rho(tmp_path, capsys):
    mpath = _gen_matrix(tmp_path)
    rc = cli.main(["pipeline", "--matrix", str(mpath), "--kmax", "4",
                   "--rho", "stationary"])
    assert rc == 0
    assert "k_t =" in capsys.readouterr().out


def _sparse_chain(seed):
    """A random chain of 2-8 states with about 70% of its entries zero."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    rows = rng.dirichlet(np.ones(n), size=n)
    rows[rng.random((n, n)) < 0.7] = 0.0
    empty = rows.sum(axis=1) == 0.0
    rows[empty, rng.integers(0, n, size=empty.sum())] = 1.0
    return rows / rows.sum(axis=1, keepdims=True)


DEGENERATE_CHAINS = {
    "identity6": np.eye(6),
    "swap": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "absorbing2": np.array([[1.0, 0.0], [0.4, 0.6]]),
    "cycle3": np.roll(np.eye(3), 1, axis=1),
    "duplicate-rows": np.array([[0.2, 0.8, 0.0, 0.0],
                                [0.2, 0.8, 0.0, 0.0],
                                [0.2, 0.8, 0.0, 0.0],
                                [0.0, 0.0, 0.5, 0.5]]),
    **{f"sparse-{s}": _sparse_chain(s) for s in range(32)},
}


@pytest.mark.parametrize("name", sorted(DEGENERATE_CHAINS))
def test_cli_stationary_degenerate_chains(tmp_path, name):
    rows = DEGENERATE_CHAINS[name]
    n = len(rows)
    mpath, report, parts = (tmp_path / "pi.csv", tmp_path / "report.json",
                            tmp_path / "parts.json")
    write_matrix(rows, mpath)
    rc = cli.main(["pipeline", "--matrix", str(mpath), "--rho", "stationary",
                   "--kmax", str(n), "--out", str(report),
                   "--partitions-out", str(parts)])
    assert rc == 0
    rows = parse_matrix(mpath).rows
    rho = stationary_distribution(rows)
    for part in parse_partitions(parts).values():
        psi = build_model(rows, part.assign, rho).psi
        assert np.abs(psi.sum(axis=1) - 1.0).max() < 1e-9
        assert (psi >= 0).all()
    t_bars = list(read_report(report).t_bars.values())
    assert all(np.isfinite(t) and t >= 0 for t in t_bars)


# --- dependencies ---

def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy may be installed alongside,
    # so an accidental import of it would go unnoticed anywhere else
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, mcagg, mcagg.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
