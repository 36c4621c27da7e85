import csv
import io
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import incomedist as idist
from incomedist import data as data_mod
from incomedist.data import (
    Dataset,
    EmpiricalCcdf,
    billionaire_effective_income,
    csv_rows,
    empirical_ccdf,
    load_billionaires,
    load_incomes,
    merge_datasets,
    open_output,
)


class TestDataset:
    def test_sorts_and_freezes(self):
        ds = Dataset(values=[30.0, 10.0, 20.0])
        assert list(ds.values) == [10.0, 20.0, 30.0]
        assert len(ds) == 3
        with pytest.raises(ValueError):
            ds.values[0] = 99.0

    def test_weights_follow_their_values(self):
        ds = Dataset(values=[30.0, 10.0], weights=[3.0, 1.0])
        assert list(ds.values) == [10.0, 30.0]
        assert list(ds.weights) == [1.0, 3.0]

    def test_empty_rejected(self):
        with pytest.raises(idist.EmptyDatasetError):
            Dataset(values=[])

    def test_signed_zeros_keep_input_order_unweighted(self):
        # numpy's plain sort may swap -0.0 and 0.0; the dataset's bytes must not depend on which sort ran.
        rng = np.random.default_rng(3)
        values = rng.choice([0.0, -0.0, 1.0, 2.5], size=1000)
        ds = Dataset(values=values)
        assert ds.values.tobytes() == values[np.argsort(values, kind="stable")].tobytes()

    def test_invalid_records_rejected(self):
        with pytest.raises(idist.DomainError):
            Dataset(values=[1.0, -2.0])
        with pytest.raises(idist.DomainError):
            Dataset(values=[1.0, np.inf])
        with pytest.raises(idist.DomainError):
            Dataset(values=[1.0, 2.0], weights=[1.0])
        with pytest.raises(idist.DomainError):
            Dataset(values=[1.0], weights=[-1.0])
        with pytest.raises(idist.DomainError):
            Dataset(values=[1.0, 2.0], weights=[0.0, 0.0])


class TestLoadIncomes:
    def test_plain_column(self):
        ds, diags = load_incomes(io.StringIO("income\n10\n30\n20\n"))
        assert list(ds.values) == [10.0, 20.0, 30.0]
        assert diags == []

    def test_weight_column_honored(self):
        ds, diags = load_incomes(io.StringIO("income,weight\n10,1\n20,3\n"))
        assert list(ds.weights) == [1.0, 3.0]
        assert diags == []

    def test_bad_rows_cited_by_file_line(self):
        text = "income\noops\n25\n-4\n"
        ds, diags = load_incomes(io.StringIO(text))
        assert list(ds.values) == [25.0]
        assert len(diags) == 2
        assert diags[0].startswith("row 2:")
        assert diags[1].startswith("row 4:")

    def test_rows_cited_by_file_line_past_blank_lines(self):
        ds, diags = load_incomes(io.StringIO("income\n100\n\n\nabc\n200\n"))
        assert list(ds.values) == [100.0, 200.0]
        assert diags == ["row 5: unreadable income 'abc', skipped"]

    def test_repeated_column_reads_last_and_short_row_reads_missing(self):
        ds, diags = load_incomes(io.StringIO("income,weight,income\n1,2,30\n5,1\n"))
        assert list(ds.values) == [30.0] and list(ds.weights) == [2.0]
        assert diags == ["row 3: unreadable income None, skipped"]

    def test_bad_weight_skips_row(self):
        ds, diags = load_incomes(io.StringIO("income,weight\n10,x\n20,2\n"))
        assert list(ds.values) == [20.0]
        assert len(diags) == 1 and "row 2" in diags[0]

    def test_missing_column_rejected(self):
        with pytest.raises(idist.DataFormatError):
            load_incomes(io.StringIO("salary\n10\n"))

    def test_no_valid_rows_rejected(self):
        with pytest.raises(idist.EmptyDatasetError):
            load_incomes(io.StringIO("income\nbad\n"))

    def test_custom_format(self):
        ds, _ = load_incomes(io.StringIO("income,weight\n5,2\n"), label="survey")
        assert ds.label == "survey"
        assert list(ds.weights) == [2.0]

    def test_pathlib_source(self, tmp_path):
        path = tmp_path / "incomes.csv"
        path.write_text("income\n42\n", encoding="utf-8")
        for source in (path, str(path)):
            ds, _ = load_incomes(source)
            assert list(ds.values) == [42.0]

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfincome\n10\n20\n")
        ds, _ = load_incomes(path)
        assert list(ds.values) == [10.0, 20.0]

    def test_field_over_csv_limit_is_format_error(self):
        # The csv module refuses fields over 131,072 characters with its own csv.Error.
        text = "income\n10\n" + "9" * 200_000 + "\n20\n"
        with pytest.raises(idist.DataFormatError, match="line 3"):
            load_incomes(io.StringIO(text))

    def test_quoted_line_break_cited_at_its_last_line_with_cr_line_ends(self, tmp_path):
        path = tmp_path / "cr.csv"
        path.write_bytes(b'income,weight\r"1\r\n2",1\r-3,1\r\r"12\r\n",3\r5,\r7,"2"\r')
        ds, diags = load_incomes(path)
        assert list(ds.values) == [7.0, 12.0] and list(ds.weights) == [2.0, 3.0]
        assert diags == [
            "row 3: unreadable income '1\\r\\n2', skipped",
            "row 4: income must be finite and >= 0, got -3, skipped",
            "row 8: unreadable weight '', skipped",
        ]

    def test_non_utf8_file_is_format_error_naming_it(self, tmp_path):
        path = tmp_path / "utf16.csv"
        path.write_bytes(b"\xff\xfei\x00n\x00c\x00")
        with pytest.raises(idist.DataFormatError, match="utf16.csv"):
            load_incomes(path)
        with pytest.raises(idist.DataFormatError, match="utf16.csv"):
            load_billionaires(path)

    def test_memory_is_bounded_by_the_chunk(self, tmp_path):
        # The row-by-row reader peaked at 20.9 MB on this file; the result itself (values, weights and
        # the Dataset's sorted copies) is 8 MB.
        rng = np.random.default_rng(0)
        n = 200_000
        path = tmp_path / "big.csv"
        path.write_text("income,weight\n" + csv_rows(rng.exponential(2e4, n).round(6), rng.uniform(0.5, 3, n).round(4)))
        tracemalloc.start()
        try:
            ds, _ = load_incomes(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ds) == n
        assert peak <= 10e6

    def test_source_must_be_path_or_text_stream(self):
        with pytest.raises(idist.DataFormatError):
            load_incomes(b"income\n42\n")
        with pytest.raises(idist.DataFormatError):
            load_incomes(io.BytesIO(b"income\n42\n"))


class TestOutput:
    def test_csv_rows(self):
        assert csv_rows([1.0, 2.5e-13]) == "1\n2.5e-13\n"
        assert csv_rows(0.1, np.array([3.0, 1 / 3]), label="t") == "t,0.1,3\nt,0.1,0.333333333333\n"
        assert csv_rows(1e20, 0.5, label="marker") == "marker,1e+20,0.5\n"
        assert csv_rows(np.array([]), label="empty") == ""
        # a label is written as given, '%' too
        assert csv_rows(np.array([1.0, 2.0]), label="50%") == "50%,1\n50%,2\n"
        assert csv_rows(np.array([3.0]), label="%s") == "%s,3\n"
        assert csv_rows(0.25, np.array([1.0, 2.0]), label="p%d") == "p%d,0.25,1\np%d,0.25,2\n"

    def test_open_output_writes_paths_and_leaves_streams_open(self, tmp_path):
        with open_output(tmp_path / "out.csv") as fh:
            fh.write("a\n")
        assert (tmp_path / "out.csv").read_bytes() == b"a\n"
        stream = io.StringIO()
        with open_output(stream) as fh:
            fh.write("b\n")
        assert not stream.closed and stream.getvalue() == "b\n"


def _points(curve):
    return list(zip(curve.m.tolist(), curve.p.tolist()))


class TestEmpiricalCcdf:
    def test_classic_positions(self):
        curve = empirical_ccdf(Dataset(values=[10.0, 20.0, 30.0]))
        assert _points(curve) == [(10.0, 0.75), (20.0, 0.5), (30.0, 0.25)]

    def test_single_point(self):
        curve = empirical_ccdf(Dataset(values=[7.0]))
        assert _points(curve) == [(7.0, 0.5)]

    def test_equal_weights_reduce_to_classic_exactly(self):
        plain = empirical_ccdf(Dataset(values=[10.0, 20.0, 30.0]))
        weighted = empirical_ccdf(Dataset(values=[10.0, 20.0, 30.0], weights=[7.0, 7.0, 7.0]))
        assert np.array_equal(plain.p, weighted.p)

    def test_duplicates_collapse_to_largest_rank(self):
        curve = empirical_ccdf(Dataset(values=[10.0, 20.0, 20.0, 30.0]))
        assert list(curve.m) == [10.0, 20.0, 30.0]
        assert list(curve.p) == [1.0 - 1.0 / 5.0, 1.0 - 3.0 / 5.0, 1.0 - 4.0 / 5.0]

    def test_zero_weight_records_ignored(self):
        curve = empirical_ccdf(Dataset(values=[10.0, 20.0, 30.0], weights=[1.0, 0.0, 1.0]))
        assert _points(curve) == [(10.0, 1.0 - 1.0 / 3.0), (30.0, 1.0 - 2.0 / 3.0)]

    def test_weight_rescaling_changes_nothing(self):
        base = Dataset(values=[5.0, 11.0, 13.0], weights=[1.5, 2.5, 4.0])
        doubled = Dataset(values=[5.0, 11.0, 13.0], weights=[3.0, 5.0, 8.0])
        assert np.array_equal(empirical_ccdf(base).p, empirical_ccdf(doubled).p)

    def test_probabilities_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(0)
        ds = Dataset(values=rng.integers(1, 50, 200).astype(float),
                     weights=rng.uniform(0.5, 3.0, 200))
        curve = empirical_ccdf(ds)
        assert np.all(curve.p > 0.0) and np.all(curve.p < 1.0)
        assert np.all(np.diff(curve.m) > 0.0)
        assert np.all(np.diff(curve.p) < 0.0)

    def test_validation(self):
        with pytest.raises(idist.DomainError):
            EmpiricalCcdf(m=[1.0, 2.0], p=[0.5, 0.5])
        with pytest.raises(idist.DomainError):
            EmpiricalCcdf(m=[1.0], p=[1.0])
        with pytest.raises(idist.DomainError):
            EmpiricalCcdf(m=[1.0, 2.0], p=[0.5])


class TestMergeDatasets:
    def test_example_merge(self):
        survey = Dataset(values=[10.0, 20.0])
        merged = merge_datasets(survey, [100.0], top_weight=1.0)
        curve = empirical_ccdf(merged)
        assert _points(curve) == [(10.0, 0.75), (20.0, 0.5), (100.0, 0.25)]

    def test_empty_top_returns_survey_unchanged(self):
        survey = Dataset(values=[10.0, 20.0])
        assert merge_datasets(survey, [], top_weight=2.0) is survey

    def test_label_records_provenance(self):
        survey = Dataset(values=[10.0], label="survey")
        merged = merge_datasets(survey, [50.0, 60.0], top_weight=1.0)
        assert merged.label == "survey (+2 top incomes)"

    def test_bad_weight_rejected(self):
        survey = Dataset(values=[10.0])
        with pytest.raises(idist.ConfigError):
            merge_datasets(survey, [50.0], top_weight=0.0)

    @given(
        base=st.lists(st.integers(min_value=1, max_value=1000), min_size=2, max_size=40),
        extra=st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=10),
    )
    @settings(max_examples=60)
    def test_appending_above_the_maximum_raises_every_position(self, base, extra):
        """Equal-weight merge with all new incomes above the survey
        maximum keeps every rank and grows n, so each pre-existing
        value's exceedance probability strictly increases.  (With
        interleaved values or unequal weights the rank positions can
        move either way; see the companion test.)"""
        survey = Dataset(values=[float(v) for v in base])
        tops = [float(max(base) + k) for k in extra]
        before = dict(_points(empirical_ccdf(survey)))
        after = dict(_points(empirical_ccdf(merge_datasets(survey, tops, 1.0))))
        for m, p in before.items():
            assert after[m] > p

    def test_interleaved_income_can_lower_a_position(self):
        # Adding a record below an existing value pushes that value's
        # rank up faster than n grows: p(20) drops from 1/3 to 1/4.
        survey = Dataset(values=[10.0, 20.0])
        before = dict(_points(empirical_ccdf(survey)))[20.0]
        merged = merge_datasets(survey, [15.0], top_weight=1.0)
        after = dict(_points(empirical_ccdf(merged)))[20.0]
        assert after < before


class TestBillionaires:
    def test_parse_and_hash(self):
        wealth, diags = load_billionaires(
            io.StringIO("name,wealth_usd\nAlice Example,1e9\n,2e9\n")
        )
        assert diags == []
        assert wealth.tolist() == [1e9, 2e9]
        assert "Alice" not in repr(wealth)

    def test_bad_rows_cited(self):
        wealth, diags = load_billionaires(
            io.StringIO("name,wealth_usd\nA,abc\nB,-5\nC,3e9\n")
        )
        assert wealth.tolist() == [3e9]
        assert diags[0].startswith("row 2:") and diags[1].startswith("row 3:")

    def test_rows_cited_by_file_line_past_blank_lines(self):
        wealth, diags = load_billionaires(io.StringIO("name,wealth_usd\n\nA,abc\n\nB,2e9\nC,-1\n"))
        assert wealth.tolist() == [2e9]
        assert [d.split(":")[0] for d in diags] == ["row 3", "row 6"]

    def test_missing_column_rejected(self):
        with pytest.raises(idist.DataFormatError):
            load_billionaires(io.StringIO("name,net_worth\nA,1\n"))

    def test_field_over_csv_limit_is_format_error(self):
        text = "name,wealth_usd\nA,1e9\n" + "B" * 200_000 + ",2e9\n"
        with pytest.raises(idist.DataFormatError, match="line 3"):
            load_billionaires(io.StringIO(text))

    def test_pathlib_source(self, tmp_path):
        path = tmp_path / "billionaires.csv"
        path.write_text("name,wealth_usd\nA,4e9\n", encoding="utf-8")
        wealth, diags = load_billionaires(path)
        assert wealth.tolist() == [4e9] and diags == []

    def test_effective_income_arithmetic(self):
        incomes = billionaire_effective_income(np.array([1e9]), usd_eur_rate=0.9, return_rate=0.05)
        assert incomes.tolist() == [1e9 * 0.9 * 0.05]

    def test_bad_rates_rejected(self):
        with pytest.raises(idist.ConfigError):
            billionaire_effective_income([], usd_eur_rate=0.0, return_rate=0.05)
        with pytest.raises(idist.ConfigError):
            billionaire_effective_income([], usd_eur_rate=0.9, return_rate=-0.1)

    def test_empty_records_give_empty_incomes(self):
        assert billionaire_effective_income(np.array([]), 0.9, 0.05).size == 0


def _reference_number(row_no, raw, what, notes, positive):
    try:
        value = float(raw)
    except (TypeError, ValueError):
        notes.append(f"row {row_no}: unreadable {what} {raw!r}, skipped")
        return None
    if not math.isfinite(value) or value < 0.0 or (positive and value == 0.0):
        rule = "positive" if positive else "finite and >= 0"
        notes.append(f"row {row_no}: {what} must be {rule}, got {raw}, skipped")
        return None
    return value


def _reference_read(fh, fields):
    """The row-by-row reader the chunked one replaced: kept rows' values per field, and diagnostics."""
    reader = csv.reader(fh)
    try:
        header = next(reader, None)
        if header is None or fields[0][0] not in header:
            raise idist.DataFormatError(f"missing required column {fields[0][0]!r} in header {header!r}")
        index = {name: i for i, name in enumerate(header)}
        wanted = [(index[name], what, positive) for name, what, positive in fields if name in index]
        kept, notes = [[] for _ in wanted], []
        for row in reader:
            if not row:
                continue
            row += [None] * (len(header) - len(row))
            values = []
            for i, what, positive in wanted:
                values.append(_reference_number(reader.line_num, row[i], what, notes, positive))
                if values[-1] is None:
                    break
            else:
                for out, value in zip(kept, values):
                    out.append(value)
    except csv.Error as exc:
        raise idist.DataFormatError(f"line {reader.line_num}: unreadable CSV ({exc})") from None
    return [np.array(out) for out in kept], notes


def _reference_incomes(fh):
    columns, notes = _reference_read(fh, [("income", "income", False), ("weight", "weight", False)])
    if not columns[0].size:
        raise idist.EmptyDatasetError("no valid income rows" + (f"; first issue: {notes[0]}" if notes else ""))
    ds = Dataset(values=columns[0], weights=columns[1] if len(columns) > 1 else None)
    return ds.values.tobytes(), ds.weights.tobytes(), notes


def _reference_billionaires(fh):
    (wealth,), notes = _reference_read(fh, [("wealth_usd", "wealth", True)])
    return wealth.tobytes(), notes


def _incomes_bits(source):
    ds, notes = load_incomes(source)
    return ds.values.tobytes(), ds.weights.tobytes(), notes


def _billionaires_bits(source):
    wealth, notes = load_billionaires(source)
    return wealth.tobytes(), notes


def _outcome(load, source):
    try:
        return load(source)
    except idist.IncomeDistError as exc:
        return type(exc).__name__, str(exc)


# Numbers: fields numpy's number parser and ``float`` read alike, then ones they may read differently.
_NUMBER_FIELDS = ["1", "2.5", "0", "-0", " 7 ", "1e-400", "\xa07", "\t7", "1_000", "\u0661\u0662", "0x1p3", "7\x1c"]
# An unquoted "\r" stays inside a line of a stream that splits lines on "\n" alone.
_CSV_FIELDS = _NUMBER_FIELDS + ["-3", "nan", "-inf", "inf", "1e999", "x", "", "  ", "\x00", "\r", '"4"',
                                '"5\n6"', '"7\r\n"', '"a\rb"', '"8,9"', '"\n"']


class TestChunkedReader:
    """The chunked column reader against the row-by-row reader it replaced, with chunks of 1-3 lines."""

    @settings(max_examples=300)
    @given(
        header=st.lists(st.sampled_from(["income", "weight", "wealth_usd", "name"]), min_size=1, max_size=4),
        rows=st.lists(st.one_of(st.lists(st.sampled_from(_NUMBER_FIELDS), min_size=4, max_size=5),
                                st.lists(st.sampled_from(_CSV_FIELDS), max_size=5)), max_size=40),
        eol=st.sampled_from(["\n", "\r\n", "\r"]),
        last_eol=st.booleans(),
        chunk=st.integers(1, 3),
    )
    # A quoted field runs past a one-line chunk, and the rejected row after it must cite line 4.
    @example(header=["income"], rows=[['"5\n6"'], ["-3"]], eol="\n", last_eol=True, chunk=1)
    def test_matches_row_by_row_reference(self, tmp_path_factory, header, rows, eol, last_eol, chunk):
        text = eol.join([",".join(header)] + [",".join(row) for row in rows]) + (eol if last_eol else "")
        path = tmp_path_factory.getbasetemp() / "chunked.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with mock.patch.object(data_mod, "_CHUNK", chunk):
            for reference, load in [(_reference_incomes, _incomes_bits), (_reference_billionaires, _billionaires_bits)]:
                with open(path, encoding="utf-8-sig", newline="") as fh:
                    expected = _outcome(reference, fh)
                assert _outcome(load, path) == expected
                assert _outcome(load, io.StringIO(text)) == _outcome(reference, io.StringIO(text))


class TestRecordDuplication:
    """Doubling every record reshapes the plotting positions.

    The positions are rank-based, so they are not invariant under
    duplication: the deepest one halves (1/(n+1) becomes 1/(2n+1)) and
    every shared value shifts by i/((2n+1)(n+1)), always below that new
    deepest position.
    """

    def test_positions_shift_by_less_than_new_floor(self):
        rng = np.random.default_rng(3)
        values = np.unique(rng.uniform(10.0, 500.0, 25))
        n = values.size
        single = empirical_ccdf(Dataset(values=values))
        doubled = empirical_ccdf(Dataset(values=np.concatenate([values, values])))
        assert np.array_equal(doubled.m, single.m)
        assert doubled.p[-1] == 1.0 - (2.0 * n) / (2.0 * n + 1.0)
        floor = 1.0 / (2.0 * n + 1.0)
        assert np.max(np.abs(doubled.p - single.p)) < floor
