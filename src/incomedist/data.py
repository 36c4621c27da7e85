"""Income microdata ingestion, empirical CCDFs, and the package's text output.

CSV survey data (column ``income``, optional ``weight``; a path or an
open text stream) becomes an immutable sorted :class:`Dataset`, read in
chunks of lines, so the memory a loader needs beyond its result is bounded
by the chunk, not the file.  A clean chunk (unquoted numbers, each valid)
is parsed whole by numpy's C reader; any other goes through Python's csv
reader, which alone writes the per-row diagnostics.  A billionaire
wealth array can be converted to effective incomes and merged in, since
surveys top-code or never reach the extreme tail.
Empirical complementary CDFs use the Weibull plotting position
1 - i/(n+1), generalized to weighted samples in a way that reduces
exactly to the unweighted formula when all weights are equal.  Each file
read or written is opened by ``_open`` (a path as UTF-8, read past a
byte-order mark, written with none; a text stream in place, left open),
outputs as :func:`open_output`; :func:`csv_rows` formats every CSV number.
"""

from __future__ import annotations

import csv
import io
import itertools
import operator
import os
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DataFormatError, DomainError, EmptyDatasetError, _nonnegative_array, _real

__all__ = [
    "Dataset",
    "EmpiricalCcdf",
    "load_incomes",
    "load_billionaires",
    "billionaire_effective_income",
    "merge_datasets",
    "empirical_ccdf",
    "open_output",
    "csv_rows",
]


@dataclass(frozen=True, eq=False)
class Dataset:
    """Sorted income sample with per-record weights."""

    values: np.ndarray
    weights: Optional[np.ndarray] = None
    label: str = ""

    def __post_init__(self):
        values = _nonnegative_array(self.values, "incomes", DomainError).ravel()
        if values.size == 0:
            raise EmptyDatasetError("dataset has no records")
        if self.weights is None:
            zeros = values[values == 0.0]  # in input order, as a stable sort leaves -0.0 and 0.0
            values = np.sort(values)
            values[:zeros.size] = zeros
            weights = np.ones(values.size)
        else:
            weights = _nonnegative_array(self.weights, "weights", DomainError).ravel()
            if weights.shape != values.shape:
                raise DomainError(f"{weights.size} weights for {values.size} values")
            if not weights.sum() > 0.0:
                raise DomainError("total weight must be positive")
            order = np.argsort(values, kind="stable")
            values, weights = values[order], weights[order]
        values.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True, eq=False)
class EmpiricalCcdf:
    """Plot-ready CCDF points: m strictly increasing, p strictly decreasing."""

    m: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        m = _nonnegative_array(self.m, "CCDF incomes", DomainError).ravel()
        p = _nonnegative_array(self.p, "CCDF probabilities", DomainError).ravel()
        if m.size == 0 or m.shape != p.shape:
            raise DomainError("CCDF needs matching non-empty coordinate arrays")
        if np.any(p <= 0.0) or np.any(p >= 1.0):
            raise DomainError("CCDF probabilities must lie strictly in (0, 1)")
        if np.any(np.diff(m) <= 0.0) or np.any(np.diff(p) >= 0.0):
            raise DomainError("CCDF points must be strictly monotone")
        m.flags.writeable = False
        p.flags.writeable = False
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "p", p)


_INCOME_COLUMN = "income"
_WEIGHT_COLUMN = "weight"
_WEALTH_COLUMN = "wealth_usd"
_CHUNK = 2048  # raw lines (so at most as many CSV rows) a loader holds at a time; 8192 raised a fit's peak RSS by 3 MB


def _open(target, mode: str):
    """The one opener: a path (``str`` or ``os.PathLike``) as UTF-8 with ``newline=""``, read (``mode``
    "r") past a byte-order mark if any or written ("w") with none; an open text stream in place, left open."""
    if isinstance(target, io.TextIOBase):
        return nullcontext(target)
    if isinstance(target, (str, os.PathLike)):
        return open(target, mode, encoding="utf-8-sig" if mode == "r" else "utf-8", newline="")
    raise DataFormatError(f"expected a path or an open text stream, got {type(target).__name__}")


def open_output(dest):
    """``dest`` opened for writing by the one opener, :func:`_open`: a path as UTF-8 with no byte-order
    mark, an open text stream in place and left open; anything else is a DataFormatError."""
    return _open(dest, "w")


def csv_rows(*columns, label: str = "") -> str:
    """``%.12g`` CSV lines, one per entry of the array columns (of one length; one line if none).

    A scalar column repeats on every line; ``label``, if given, opens each line as a text field."""
    arrays = [np.ravel(c) for c in columns if np.ndim(c)]
    fields = ["%.12g" % c if np.ndim(c) == 0 else "%.12g" for c in columns]
    line = ",".join([label.replace("%", "%%")] + fields if label else fields) + "\n"
    if not arrays:
        return line % ()
    return (line * arrays[0].size) % tuple(np.column_stack(arrays).ravel().tolist())


def _floats(rows, i: int):
    """Field ``i`` of each row as a float, NaN where missing or unreadable, and the mask of those."""
    n = len(rows)
    try:
        return np.fromiter(map(float, map(operator.itemgetter(i), rows)), float, n), np.zeros(n, bool)
    except (IndexError, ValueError):
        pass
    values, unreadable = np.full(n, np.nan), np.zeros(n, bool)
    for k, row in enumerate(rows):
        try:
            values[k] = float(row[i])
        except (IndexError, ValueError):
            unreadable[k] = True
    return values, unreadable


def _valid(values, positive: bool) -> np.ndarray:
    """Which values are finite and >= 0, or > 0 if ``positive``."""
    return np.isfinite(values) & (values > 0.0 if positive else values >= 0.0)


def _clean_columns(lines, fields):
    """The wanted columns of a chunk of raw lines, from numpy's C reader, or None if the csv reader must read it.

    A chunk is clean when it holds no quote, no NUL and no ASCII separator (``\\x1c``-``\\x1f``, which
    numpy strips as whitespace and ``float`` refuses), no line is over the csv field size limit, and
    numpy parses the wanted fields of every non-blank line, each within its rule.  numpy's number syntax
    is otherwise a subset of ``float``'s (no ``_`` separators, no non-ASCII digits) and gives the same
    values, so a clean chunk reads as the csv reader would read it, with no diagnostic.
    """
    text, limit = "".join(lines), csv.field_size_limit()
    if any(c in text for c in '"\0\x1c\x1d\x1e\x1f') or (len(text) > limit and max(map(len, lines)) > limit):
        return None
    if not text.strip("\r\n"):  # blank lines only, on which numpy warns of no data
        return np.empty((len(fields), 0))
    try:
        values = np.loadtxt(lines, delimiter=",", usecols=[i for i, _, _ in fields], comments=None, ndmin=2).T
    except ValueError:
        return None
    # numpy skips blank lines and refuses a line break inside a line, so a row per line means none was skipped
    n = values.shape[1]
    if n != len(lines) and n != len(lines) - lines.count("\n") - lines.count("\r\n") - lines.count("\r"):
        return None
    if not all(np.all(_valid(column, positive)) for column, (_, _, positive) in zip(values, fields)):
        return None
    return values


def _read_columns(source, fields) -> tuple[list[np.ndarray], list[str]]:
    """The valid rows' values of CSV columns, one array per ``(column, what, positive)`` field, and diagnostics.

    The first field's column is required and an absent later one gives no array; a repeated name means
    its last column.  Blank rows are skipped silently.  A row is skipped at its first field that is
    missing, unreadable, not finite, negative (or zero if ``positive``), with a diagnostic citing the
    line it ends on.  An unreadable line (a field over the csv size limit) or non-UTF-8 text raises
    DataFormatError.  Lines are read ``_CHUNK`` at a time.  A clean chunk (see :func:`_clean_columns`)
    is parsed whole by numpy.  From any other the csv reader, which alone writes diagnostics, reads as
    many rows as the chunk has lines, running past its last line when quoted fields span lines, and
    each row's line is the reader's line count once the row is read.
    """
    with _open(source, "r") as fh:
        reader, done = csv.reader(fh), 0  # ``done``: the file lines read before ``reader``'s first
        try:
            header = next(reader, None)
            if header is None or fields[0][0] not in header:
                raise DataFormatError(f"missing required column {fields[0][0]!r} in header {header!r}")
            index = {name: i for i, name in enumerate(header)}
            fields = [(index[name], what, positive) for name, what, positive in fields if name in index]
            kept, diagnostics, done = [np.empty((len(fields), 0))], [], reader.line_num
            while lines := list(itertools.islice(fh, _CHUNK)):
                clean = _clean_columns(lines, fields)
                if clean is not None:
                    kept.append(clean)
                    done += len(lines)
                    continue
                reader, rows, ends = csv.reader(itertools.chain(lines, fh)), [], []
                for row in itertools.islice(reader, len(lines)):  # a quoted field may run past the chunk
                    rows.append(row)
                    ends.append(done + reader.line_num)
                done += reader.line_num
                columns = [_floats(rows, i) for i, _, _ in fields]
                skip, notes = np.zeros(len(rows), bool), {}
                for (i, what, positive), (values, unreadable) in zip(fields, columns):
                    bad = unreadable | ~_valid(values, positive)
                    for k in np.flatnonzero(bad & ~skip):
                        if rows[k]:  # a blank row, unreadable in the first field, is skipped silently
                            raw = rows[k][i] if len(rows[k]) > i else None
                            rule = "positive" if positive else "finite and >= 0"
                            why = f"unreadable {what} {raw!r}" if unreadable[k] else f"{what} must be {rule}, got {raw}"
                            notes[k] = f"row {ends[k]}: {why}, skipped"
                    skip |= bad
                diagnostics += [notes[k] for k in sorted(notes)]
                kept.append(np.array([values for values, _ in columns])[:, ~skip])
        except csv.Error as exc:
            raise DataFormatError(f"line {done + reader.line_num}: unreadable CSV ({exc})") from None
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{getattr(fh, 'name', source)}: not UTF-8 text ({exc})") from None
    return list(np.concatenate(kept, axis=1)), diagnostics


def load_incomes(source, label: str = "") -> tuple[Dataset, list[str]]:
    """Parse an income CSV into a Dataset plus per-row rejection diagnostics.

    ``source`` is a path or an open text stream; the header is file row
    1.  The header must contain ``income``; ``weight`` is honored when
    present and defaults to weight 1 otherwise.  A row is skipped when its
    income, or else its weight, is missing, non-numeric, non-finite or
    negative; each skip gives one diagnostic string citing the file line
    the row ends on (a quoted field may span lines).

    Raises
    ------
    DataFormatError
        If the header lacks ``income``, a line is unreadable, or the text is not UTF-8.
    EmptyDatasetError
        If no valid rows remain.
    """
    columns, diagnostics = _read_columns(source, [(_INCOME_COLUMN, "income", False), (_WEIGHT_COLUMN, "weight", False)])
    if not columns[0].size:
        raise EmptyDatasetError("no valid income rows" + (f"; first issue: {diagnostics[0]}" if diagnostics else ""))
    return Dataset(values=columns[0], weights=columns[1] if len(columns) > 1 else None, label=label), diagnostics


def load_billionaires(source) -> tuple[np.ndarray, list[str]]:
    """Positive wealth values of a billionaire CSV (column ``wealth_usd``) plus file-row diagnostics."""
    (wealth,), diagnostics = _read_columns(source, [(_WEALTH_COLUMN, "wealth", True)])
    return wealth, diagnostics


def billionaire_effective_income(
    wealth_usd, usd_eur_rate: float, return_rate: float
) -> np.ndarray:
    """Impute annual incomes as wealth * exchange rate * return on wealth.

    Both rates must be positive (else :class:`ConfigError`) and the wealth
    values finite and >= 0 (else :class:`DomainError`); wealth values whose
    imputed income fails to come out positive are dropped.
    """
    usd_eur_rate = _real(usd_eur_rate, "usd_eur_rate", ConfigError, 0.0)
    return_rate = _real(return_rate, "return_rate", ConfigError, 0.0)
    incomes = _nonnegative_array(wealth_usd, "wealth", DomainError).ravel() * usd_eur_rate * return_rate
    return incomes[incomes > 0.0]


def merge_datasets(survey: Dataset, top_incomes: Sequence[float], top_weight: float) -> Dataset:
    """Extend a survey with top incomes, each carrying ``top_weight``."""
    top_weight = _real(top_weight, "top_weight", ConfigError, 0.0)
    top = _nonnegative_array(top_incomes, "top incomes", DomainError).ravel()
    if top.size == 0:
        return survey
    values = np.concatenate([survey.values, top])
    weights = np.concatenate([survey.weights, np.full(top.size, top_weight)])
    label = f"{survey.label} (+{top.size} top incomes)" if survey.label else f"+{top.size} top incomes"
    return Dataset(values=values, weights=weights, label=label)


def empirical_ccdf(ds: Dataset) -> EmpiricalCcdf:
    """Weibull-rank CCDF of a dataset.

    Unweighted samples get the classic plotting position
    p_i = 1 - i/(n+1) for ascending rank i, which never touches 0 or 1.
    Weighted samples use p_i = 1 - W_i/(W_total + w_mean) with W_i the
    cumulative weight through rank i; for equal weights this reproduces
    the classic positions exactly (detected and dispatched as such).
    Zero-weight records are ignored and duplicate values collapse to a
    single point at their largest rank, i.e. the smallest p.
    """
    keep = ds.weights > 0.0
    values = ds.values[keep]
    weights = ds.weights[keep]
    n = values.size
    if np.all(weights == weights[0]):
        positions = 1.0 - np.arange(1, n + 1) / (n + 1.0)
    else:
        cum = np.cumsum(weights)
        positions = 1.0 - cum / (cum[-1] + cum[-1] / n)
    last_of_run = np.flatnonzero(np.append(np.diff(values) != 0.0, True))
    return EmpiricalCcdf(m=values[last_of_run], p=positions[last_of_run])
