"""File formats: input CSV, the JSON analysis report, and a flat pairs CSV.

Input CSV: header ``time,<name1>,...,<named>``; one row per time point with
a label in the first column and one numeric value per variate.  Outputs are
written atomically (temp file in the target directory, then rename).
"""

from __future__ import annotations

import csv
import json
import os
import stat
import tempfile
from pathlib import Path

import numpy as np

from .core import InputDataError, SegmentationResult, TimeSeriesMatrix


def read_csv(path: str | os.PathLike) -> TimeSeriesMatrix:
    """Load a matrix from CSV, reporting the exact cell on parse failures.

    The body is parsed in one numpy pass; the cell-by-cell parser runs only
    when that pass declines the file, so that its error names the bad cell.
    """
    path = Path(path)
    try:
        handle = path.open(newline="")
    except OSError as exc:
        raise InputDataError(f"cannot open {path}: {exc}") from exc
    with handle:
        try:
            parsed = _parse_fast(handle)
        except ValueError:  # the cell parser decides, naming any bad cell
            handle.seek(0)
            try:
                parsed = _parse_cells(handle, path)
            except UnicodeDecodeError as exc:
                raise InputDataError(f"{path}: not {exc.encoding} text ({exc.reason})") from None
    names, labels, values = parsed
    return TimeSeriesMatrix(values=values, variate_names=names, time_labels=labels)


def _parse_fast(handle):
    """(names, labels, values) of a plain file, streamed line by line into
    one ``loadtxt`` call.  Raises ValueError when the cell parser must
    decide: on a quote, a bad header, fewer than 2 rows, a row (a
    whitespace-only one too) whose field count differs from the header's,
    since ``loadtxt`` would drop extra fields, an undecodable byte, or a
    cell ``loadtxt`` rejects.  A ``newline=""`` handle ends lines at \r\n,
    \r or \n, as ``csv`` does."""
    first = handle.readline().rstrip("\r\n")
    header = first.split(",")
    names = tuple(h.strip() for h in header[1:])
    if '"' in first or len(header) < 2 or len(set(names)) != len(names):
        raise ValueError("header left to the cell parser")
    labels = []

    def rows():
        for line in handle:
            line = line.rstrip("\r\n")
            if not line:
                continue
            if '"' in line or line.count(",") != len(names):
                raise ValueError("row left to the cell parser")
            labels.append(line[: line.index(",")].strip())
            yield line
        if len(labels) < 2:  # before loadtxt warns about an empty input
            raise ValueError("too few rows")

    values = np.loadtxt(
        rows(), delimiter=",", comments=None, usecols=range(1, len(header)), ndmin=2
    )
    return names, tuple(labels), values.T


def _parse_cells(handle, path: Path):
    reader = csv.reader(handle)
    try:
        header = next(reader)
    except StopIteration:
        raise InputDataError(f"{path}: file is empty") from None
    if len(header) < 2:
        raise InputDataError(f"{path}: header needs a time column and at least one variate")
    names = [h.strip() for h in header[1:]]
    if len(set(names)) != len(names):
        dupes = sorted({x for x in names if names.count(x) > 1})
        raise InputDataError(f"{path}: duplicate variate names {dupes}")
    labels: list[str] = []
    columns: list[list[float]] = [[] for _ in names]
    for row_num, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise InputDataError(
                f"{path}: row {row_num} has {len(row)} fields, expected {len(header)}"
            )
        labels.append(row[0].strip())
        for col, cell in enumerate(row[1:]):
            try:
                columns[col].append(float(cell))
            except ValueError:
                raise InputDataError(
                    f"{path}: row {row_num}, column {names[col]!r}: "
                    f"cannot parse {cell!r} as a number"
                ) from None
    if len(labels) < 2:
        raise InputDataError(f"{path}: need at least 2 data rows, got {len(labels)}")
    return tuple(names), tuple(labels), np.array(columns, dtype=float)


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write ``text`` to ``path`` through a renamed temp file, with the mode
    a plain write would leave: an existing file's own permission bits, or
    0o666 less the umask for a new file."""
    path = Path(path)
    try:
        try:
            mode = stat.S_IMODE(os.stat(path).st_mode)
        except FileNotFoundError:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.chmod(tmp, mode)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise InputDataError(f"cannot write {path}: {exc.strerror or exc}") from exc


# --- the analysis report ----------------------------------------------------


def build_report(
    matrix: TimeSeriesMatrix,
    result: SegmentationResult,
    model_name: str,
    seed: int,
    intervals: int,
    mean_residual_correlation: float,
) -> dict:
    """The detect report, as the dict that ``write_report`` writes as JSON.

    Detections name their affected variates (in column order) and carry the
    time label of tau, or None when the input has no labels.
    """
    pen = result.penalties
    labels = matrix.time_labels
    return {
        "n": matrix.n,
        "d": matrix.d,
        "model": model_name,
        "penalties": {"alpha": pen.alpha, "beta": pen.beta, "K": pen.K, "source": pen.source},
        "seed": seed,
        "intervals": intervals,
        "detections": [
            {
                "tau": det.tau,
                "time_label": labels[det.tau - 1] if labels else None,
                "kind": det.kind,
                "affected": [matrix.variate_names[i - 1] for i in sorted(det.affected)],
                "statistic": det.statistic,
            }
            for det in result.detections
        ],
        "diagnostics": {"mean_residual_correlation": mean_residual_correlation},
    }


def write_report(report: dict, path: str | os.PathLike) -> None:
    atomic_write_text(path, json.dumps(report, indent=2) + "\n")


def write_pairs_csv(report: dict, path: str | os.PathLike) -> None:
    """Flat (tau, variate) rows, one per changepoint-variate assignment."""
    lines = ["tau,variate"]
    for det in report["detections"]:
        lines.extend(f"{det['tau']},{name}" for name in det["affected"])
    atomic_write_text(path, "\n".join(lines) + "\n")
