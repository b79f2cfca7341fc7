"""File formats: matrices (csv/json), bigram count ingestion, partition
maps, and selection reports; text is UTF-8, a leading BOM dropped."""
import hashlib
import json
import re
import string

import numpy as np

from .core import StochasticMatrix, make_partition, validate_stochastic
from .errors import (BadAssignment, BadBigram, BadParameter, DuplicateLabel,
                     LabelMismatch, NegativeCount, NonLetter, ParseError,
                     RaggedRows)
from .selection import SelectionReport

__all__ = ["parse_matrix", "write_matrix", "ingest_bigrams",
           "parse_partitions", "write_partitions", "write_report",
           "read_report", "report_csv_rows", "file_sha256"]

_LETTERS = string.ascii_lowercase

# the one conversion of every csv data line, rounding as float() does
_CSV = dict(delimiter=",", comments=None, quotechar=None, ndmin=2,
            dtype=float)


def file_sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _try_float(tok):
    try:
        return float(tok)
    except ValueError:
        return None


def _is_json(path):
    """The one format rule: a path ending in .json is JSON, any other CSV."""
    return str(path).endswith(".json")


def parse_matrix(path):
    """Load a stochastic matrix. csv rows are comma-separated reals with an
    optional leading label header; json is {"labels"?: [...], "matrix":
    [[...]]}. Rows may be off by 1e-6 and are renormalized exactly."""
    if _is_json(path):
        with open(path, encoding="utf-8-sig") as fh:
            try:
                obj = json.load(fh)
            except json.JSONDecodeError as e:
                raise ParseError(str(e), line=e.lineno, column=e.colno)
        if not isinstance(obj, dict) or "matrix" not in obj:
            raise ParseError('expected an object with a "matrix" key')
        rows = obj["matrix"]
        labels = obj.get("labels")
        if not (isinstance(rows, list)
                and all(isinstance(r, list) for r in rows)):
            raise ParseError('"matrix" must be a list of rows')
        if labels is not None and not (
                isinstance(labels, list)
                and all(isinstance(lab, str) for lab in labels)):
            raise ParseError('"labels" must be a list of strings')
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            raise RaggedRows(f"row lengths {sorted(widths)}")
        try:
            rows = np.asarray(rows, dtype=float)
        except (TypeError, ValueError) as e:
            raise ParseError(f'"matrix" holds an entry that is not a '
                             f'number: {e}')
        return validate_stochastic(rows, tol=1e-6,
                                   labels=tuple(labels) if labels else None)
    with open(path, encoding="utf-8-sig") as fh:
        lines = [ln for ln in map(str.strip, fh.read().split("\n")) if ln]
    if not lines:
        raise ParseError("empty matrix file", line=1)
    labels = None
    start = 0
    head = [t.strip() for t in lines[0].split(",")]
    if any(_try_float(t) is None for t in head):
        labels = tuple(head)
        start = 1
    body = lines[start:]
    try:
        # loadtxt warns on zero lines, so a header-only file skips it
        rows = np.loadtxt(body, **_CSV) if body else np.empty(0)
    except ValueError as e:
        _raise_fault(body, start + 1, e)
    return validate_stochastic(rows, tol=1e-6, labels=labels)


def _raise_fault(body, first_no, err):
    """Explain why loadtxt rejected the data lines body (numbered from
    first_no): RaggedRows at the first line whose field count differs from
    the first line's, or ParseError at the first token loadtxt rejects,
    whichever comes first. Converts one line, then one token, at a time."""
    width = body[0].count(",") + 1
    for ln_no, ln in enumerate(body, first_no):
        toks = ln.split(",")
        if len(toks) != width:
            raise RaggedRows(
                f"line {ln_no} has {len(toks)} fields, expected {width}")
        try:
            np.loadtxt([ln], **_CSV)
        except ValueError:
            for col, tok in enumerate(toks, 1):
                try:
                    np.loadtxt([ln], usecols=col - 1, **_CSV)
                except ValueError:
                    raise ParseError(f"bad number {tok.strip()!r}",
                                     line=ln_no, column=col)
    raise ParseError(str(err))


def write_matrix(matrix, path):
    """Full-precision dump; parse_matrix(write_matrix(m)) reproduces m."""
    rows = matrix.rows if isinstance(matrix, StochasticMatrix) else np.asarray(matrix, float)
    labels = matrix.labels if isinstance(matrix, StochasticMatrix) else None
    if _is_json(path):
        obj = {"matrix": [[float(v) for v in r] for r in rows]}
        if labels:
            obj["labels"] = list(labels)
        with open(path, "w") as fh:
            json.dump(obj, fh, sort_keys=True)
            fh.write("\n")
        return
    if labels and (all(_try_float(lab) is not None for lab in labels) or any(
            not lab or lab != lab.strip() or {",", "\r", "\n"} & set(lab)
            for lab in labels)):
        raise BadParameter("a CSV header cannot carry labels that are empty, "
                           "padded or hold a comma or line break, or that "
                           "are all numbers: use a .json path")
    with open(path, "w") as fh:
        if labels:
            fh.write(",".join(labels) + "\n")
        for r in rows:
            fh.write(",".join(f"{v:.17g}" for v in r) + "\n")


def ingest_bigrams(path, smoothing=1.0):
    """26-state chain from letter-pair counts.

    Each nonempty line is `<two lowercase letters> <count>`, the count in
    ASCII digits after an optional sign. Counts accumulate into (first
    letter -> second letter); smoothing is added to every cell before row
    normalization, so the default eta=1 guarantees strictly positive rows.
    Rows with no mass at eta=0 become uniform. A smoothing that is negative
    or not finite raises BadParameter before the file is read.
    """
    eta = float(smoothing)
    if not 0.0 <= eta < np.inf:
        raise BadParameter(f"smoothing must be finite and >= 0, got {eta}")
    C = np.zeros((26, 26))
    with open(path, encoding="utf-8-sig") as fh, np.errstate(over="ignore"):
        for ln_no, raw in enumerate(fh, 1):
            ln = raw.strip()
            if not ln:
                continue
            toks = ln.split()
            if len(toks) != 2 or len(toks[0]) != 2:
                raise BadBigram(f"line {ln_no}: expected '<pair> <count>', "
                                f"got {ln!r}")
            pair, cnt = toks
            if not all(c in _LETTERS for c in pair):
                raise NonLetter(f"line {ln_no}: pair {pair!r} is not two "
                                "lowercase letters")
            if not re.fullmatch(r"[+-]?[0-9]+", cnt):
                raise BadBigram(f"line {ln_no}: count {cnt!r} is not an "
                                "integer")
            val = float(cnt)   # correctly rounded, as int(cnt) would be
            if val < 0:
                raise NegativeCount(f"line {ln_no}: count {cnt}")
            if val == np.inf:
                raise BadBigram(f"line {ln_no}: count too large for a float")
            C[_LETTERS.index(pair[0]), _LETTERS.index(pair[1])] += val
        C = C + eta
        sums = C.sum(axis=1)
    if not np.isfinite(sums).all():   # an overflow, silenced above
        row = _LETTERS[np.argmin(np.isfinite(sums))]
        raise BadBigram(f"row {row!r}: total count too large for a float")
    dead = sums == 0.0
    C[dead] = 1.0
    sums[dead] = 26.0
    rows = C / sums[:, None]
    return StochasticMatrix(rows=rows, labels=tuple(_LETTERS))


def parse_partitions(path, labels=None):
    """k -> Partition map from json. Values are either length-n index
    arrays or lists of label sets (resolved against the matrix labels)."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as e:
            raise ParseError(str(e), line=e.lineno, column=e.colno)
    if not isinstance(obj, dict):
        raise ParseError("expected an object keyed by k")
    if not obj:
        raise ParseError("no partitions: the object has no entries")
    out = {}
    n_seen = None
    for key, val in obj.items():
        try:
            k = int(key)
        except ValueError:
            raise BadAssignment(key, f"key {key!r} is not an integer")
        if k in out:
            raise BadAssignment(k, f"key {key!r} repeats k = {k}")
        if not isinstance(val, list) or not val:
            raise BadAssignment(k, "value must be a nonempty list")
        if isinstance(val[0], list):
            assign = _resolve_label_sets(k, val, labels)
        else:
            try:
                assign = np.asarray([_index(v) for v in val], dtype=int)
            except (TypeError, ValueError, OverflowError):
                raise BadAssignment(k, "indices must be integers")
        if n_seen is None:
            n_seen = len(assign)
        elif len(assign) != n_seen:
            raise BadAssignment(k, f"length {len(assign)} != {n_seen} used "
                                "by other entries")
        try:
            out[k] = make_partition(assign, k=k)
        except Exception as e:
            raise BadAssignment(k, str(e))
    return out


def _index(v):
    """int(v) for one entry of an index array. Only a JSON number without a
    fractional part is an index: not true or false, a string, inf or nan."""
    if isinstance(v, bool) or not (isinstance(v, int) or
                                   isinstance(v, float) and v.is_integer()):
        raise ValueError(v)
    return int(v)


def _resolve_label_sets(k, sets, labels):
    if labels is None:
        raise LabelMismatch(f"k={k} uses label sets but the matrix has no "
                            "labels")
    index = {lab: i for i, lab in enumerate(labels)}
    if len(sets) != k:
        raise BadAssignment(k, f"{len(sets)} label sets for k={k}")
    assign = np.full(len(labels), -1, dtype=int)
    for j, group in enumerate(sets):
        for lab in group:
            if lab not in index:
                raise LabelMismatch(f"unknown label {lab!r} in k={k}")
            if assign[index[lab]] != -1:
                raise DuplicateLabel(f"label {lab!r} appears twice in k={k}")
            assign[index[lab]] = j
    if (assign == -1).any():
        missing = [labels[i] for i in np.where(assign == -1)[0]]
        raise LabelMismatch(f"k={k} label sets do not cover {missing}")
    return assign


def write_partitions(partitions, path):
    obj = {str(k): [int(v) for v in p.assign] for k, p in partitions.items()}
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)
        fh.write("\n")


def report_csv_rows(report):
    """The report's k,t_bar,nu lines in increasing k, without newlines:
    12 decimal places, nu blank where it is missing or not finite."""
    for k in sorted(report.t_bars):
        nu = report.nus.get(k)
        cell = "" if nu is None or not np.isfinite(nu) else f"{nu:.12f}"
        yield f"{k},{report.t_bars[k]:.12f},{cell}"


def write_report(report, path, input_hash=None):
    """Emit a selection report. csv columns are k,t_bar,nu (report_csv_rows);
    json carries the same rows plus per-superstate heterogeneity and the
    selection mode."""
    if not _is_json(path):
        with open(path, "w") as fh:
            fh.write(f"# input: {input_hash or '-'}\n")
            fh.write(f"# options: mode={report.mode}\n")
            fh.write(f"# k_t: {report.k_t}\n")
            fh.write("k,t_bar,nu\n")
            for line in report_csv_rows(report):
                fh.write(line + "\n")
        return
    rows = []
    for k in sorted(report.t_bars):
        nu = report.nus.get(k)
        rows.append({
            "k": k,
            "t_bar": float(report.t_bars[k]),
            "nu": (None if nu is None or not np.isfinite(nu) else float(nu)),
            "per_superstate": [float(v) for v in
                               report.per_superstate.get(k, [])],
        })
    obj = {
        "k_t": report.k_t,
        "exact_fit": bool(report.exact_fit),
        "input": input_hash,
        "options": {"mode": report.mode},
        "rows": rows,
    }
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def read_report(path):
    """Inverse of write_report for a JSON report. Keys of "options" other
    than "mode" (older reports also echo "membership" and "floor") are
    ignored. A file that is not JSON, has no "k_t" or "rows", or whose
    "rows" is not a list of objects with "k", "t_bar" and "nu", raises
    ParseError."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as e:
            raise ParseError(str(e), line=e.lineno, column=e.colno)
    if not isinstance(obj, dict) or "k_t" not in obj or "rows" not in obj:
        raise ParseError('expected an object with "k_t" and "rows" keys')
    if not (isinstance(obj["rows"], list) and all(
            isinstance(r, dict) and {"k", "t_bar", "nu"} <= r.keys()
            for r in obj["rows"])):
        raise ParseError('"rows" must be a list of objects with "k", '
                         '"t_bar" and "nu" keys')
    t_bars = {r["k"]: r["t_bar"] for r in obj["rows"]}
    nus = {}
    for r in obj["rows"]:
        if r["nu"] is not None:
            nus[r["k"]] = r["nu"]
        elif obj.get("exact_fit") and r["k"] > min(t_bars):
            nus[r["k"]] = float("inf")
    per = {r["k"]: r.get("per_superstate", []) for r in obj["rows"]}
    return SelectionReport(
        k_t=obj["k_t"], t_bars=t_bars, nus=nus,
        mode=obj.get("options", {}).get("mode", "plain"),
        exact_fit=bool(obj.get("exact_fit", False)),
        per_superstate={k: v for k, v in per.items() if v})
