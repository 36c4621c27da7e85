"""Income microdata ingestion and empirical CCDFs.

CSV survey data (column ``income``, optional ``weight``; a path or an
open text stream) becomes an immutable sorted :class:`Dataset`; a
billionaire wealth array can be converted to effective incomes and
merged in, since surveys top-code or never reach the extreme tail.
Empirical complementary CDFs use the Weibull plotting position
1 - i/(n+1), generalized to weighted samples in a way that reduces
exactly to the unweighted formula when all weights are equal.
"""

from __future__ import annotations

import csv
import io
import math
import os
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DataFormatError,
    DomainError,
    EmptyDatasetError,
)

__all__ = [
    "Dataset",
    "EmpiricalCcdf",
    "load_incomes",
    "load_billionaires",
    "billionaire_effective_income",
    "merge_datasets",
    "empirical_ccdf",
]


@dataclass(frozen=True, eq=False)
class Dataset:
    """Sorted income sample with per-record weights."""

    values: np.ndarray
    weights: Optional[np.ndarray] = None
    label: str = ""

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).ravel()
        if values.size == 0:
            raise EmptyDatasetError("dataset has no records")
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            raise DomainError("incomes must be finite and >= 0")
        if self.weights is None:
            weights = np.ones(values.size)
        else:
            weights = np.asarray(self.weights, dtype=float).ravel()
            if weights.shape != values.shape:
                raise DomainError(
                    f"{weights.size} weights for {values.size} values"
                )
            if not np.all(np.isfinite(weights)) or np.any(weights < 0.0):
                raise DomainError("weights must be finite and >= 0")
            if not weights.sum() > 0.0:
                raise DomainError("total weight must be positive")
        order = np.argsort(values, kind="stable")
        values = values[order]
        values.flags.writeable = False
        weights = weights[order]
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
        m = np.asarray(self.m, dtype=float).ravel()
        p = np.asarray(self.p, dtype=float).ravel()
        if m.size == 0 or m.shape != p.shape:
            raise DomainError("CCDF needs matching non-empty coordinate arrays")
        if not (np.all(np.isfinite(m)) and np.all(m >= 0.0)):
            raise DomainError("CCDF incomes must be finite and >= 0")
        if np.any(p <= 0.0) or np.any(p >= 1.0):
            raise DomainError("CCDF probabilities must lie strictly in (0, 1)")
        if np.any(np.diff(m) <= 0.0) or np.any(np.diff(p) >= 0.0):
            raise DomainError("CCDF points must be strictly monotone")
        m.flags.writeable = False
        p.flags.writeable = False
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "p", p)

    def __len__(self) -> int:
        return int(self.m.size)


_INCOME_COLUMN = "income"
_WEIGHT_COLUMN = "weight"
_WEALTH_COLUMN = "wealth_usd"


def _open_text(source):
    """A path (``str`` or ``os.PathLike``) is opened; an open text stream is left open."""
    if isinstance(source, io.TextIOBase):
        return nullcontext(source)
    if isinstance(source, (str, os.PathLike)):
        return open(source, "r", encoding="utf-8", newline="")
    raise DataFormatError(f"expected a path or an open text stream, got {type(source).__name__}")


def _numbered_rows(fh, column: str):
    """Yield the column indices of a CSV header that names ``column``, then (file line, fields) per row.

    A name the header repeats maps to its last column.  Blank lines are skipped; a row's file line
    is the reader's ``line_num``, the line it ends on.  A short row's missing fields read as None.
    A line the csv module cannot read (a field over its size limit) raises DataFormatError.
    """
    reader = csv.reader(fh)
    try:
        header = next(reader, None)
        if header is None or column not in header:
            raise DataFormatError(f"missing required column {column!r} in header {header!r}")
        yield {name: i for i, name in enumerate(header)}
        for row in reader:
            if row:
                row += [None] * (len(header) - len(row))
                yield reader.line_num, row
    except csv.Error as exc:
        raise DataFormatError(f"line {reader.line_num}: unreadable CSV ({exc})") from None


def _number(row_no: int, raw, what: str, diagnostics: list, positive: bool = False):
    """``raw`` as a finite float >= 0 (> 0 if ``positive``), or None after noting the skip."""
    try:
        value = float(raw)
    except (TypeError, ValueError):
        diagnostics.append(f"row {row_no}: unreadable {what} {raw!r}, skipped")
        return None
    if not math.isfinite(value) or value < 0.0 or (positive and value == 0.0):
        rule = "positive" if positive else "finite and >= 0"
        diagnostics.append(f"row {row_no}: {what} must be {rule}, got {raw}, skipped")
        return None
    return value


def load_incomes(source, label: str = "") -> tuple[Dataset, list[str]]:
    """Parse an income CSV into a Dataset plus per-row rejection diagnostics.

    ``source`` is a path or an open text stream; the header is file row
    1.  The header must contain ``income``; ``weight`` is honored when
    present and defaults to weight 1 otherwise.  Rows whose income is
    missing, non-numeric, non-finite, or negative are skipped, each
    contributing one diagnostic string citing its file row (the line it ends on).

    Raises
    ------
    DataFormatError
        If the income column is absent from the header.
    EmptyDatasetError
        If no valid rows remain.
    """
    with _open_text(source) as fh:
        rows = _numbered_rows(fh, _INCOME_COLUMN)
        columns = next(rows)
        i_income, i_weight = columns[_INCOME_COLUMN], columns.get(_WEIGHT_COLUMN)
        values: list[float] = []
        weights: list[float] = []
        diagnostics: list[str] = []
        for row_no, row in rows:
            value = _number(row_no, row[i_income], "income", diagnostics)
            if value is None:
                continue
            weight = 1.0
            if i_weight is not None:
                weight = _number(row_no, row[i_weight], "weight", diagnostics)
                if weight is None:
                    continue
            values.append(value)
            weights.append(weight)
    if not values:
        raise EmptyDatasetError("no valid income rows" + (f"; first issue: {diagnostics[0]}" if diagnostics else ""))
    ds = Dataset(values=np.array(values), weights=np.array(weights), label=label)
    return ds, diagnostics


def load_billionaires(source) -> tuple[np.ndarray, list[str]]:
    """Positive wealth values of a billionaire CSV (column ``wealth_usd``) plus file-row diagnostics."""
    with _open_text(source) as fh:
        rows = _numbered_rows(fh, _WEALTH_COLUMN)
        i_wealth = next(rows)[_WEALTH_COLUMN]
        wealth: list[float] = []
        diagnostics: list[str] = []
        for row_no, row in rows:
            value = _number(row_no, row[i_wealth], "wealth", diagnostics, positive=True)
            if value is not None:
                wealth.append(value)
    return np.array(wealth), diagnostics


def billionaire_effective_income(
    wealth_usd, usd_eur_rate: float, return_rate: float
) -> np.ndarray:
    """Impute annual incomes as wealth * exchange rate * return on wealth.

    Both rates must be positive; wealth values whose imputed income fails
    to come out positive are dropped.
    """
    if not (usd_eur_rate > 0.0 and math.isfinite(usd_eur_rate)):
        raise ConfigError(f"usd_eur_rate must be positive, got {usd_eur_rate!r}")
    if not (return_rate > 0.0 and math.isfinite(return_rate)):
        raise ConfigError(f"return_rate must be positive, got {return_rate!r}")
    incomes = np.asarray(wealth_usd, dtype=float).ravel() * usd_eur_rate * return_rate
    return incomes[incomes > 0.0]


def merge_datasets(survey: Dataset, top_incomes: Sequence[float], top_weight: float) -> Dataset:
    """Extend a survey with top incomes, each carrying ``top_weight``."""
    if not (top_weight > 0.0 and math.isfinite(top_weight)):
        raise ConfigError(f"top_weight must be positive, got {top_weight!r}")
    top = np.asarray(top_incomes, dtype=float).ravel()
    if top.size == 0:
        return survey
    values = np.concatenate([survey.values, top])
    weights = np.concatenate([survey.weights, np.full(top.size, float(top_weight))])
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
