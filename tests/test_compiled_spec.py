"""Generated row readers against the interpreted column loop they replace.

Each record type's reader is generated from its column spec, with the clean
cells (plain non-negative decimals, ``YYYY-MM-DD`` dates, non-empty ids,
non-negative int counts) built inline. ``reference_read`` below is the
interpreted loop, kept as the oracle: for every row, coin precision and set of
keys already seen, the generated reader must return the same record (same
repr) or raise the same ``RowProblem`` (column, reason, code) or error.
"""

import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carbon_ledger import ingestion
from carbon_ledger.ingestion import RowProblem

SPECS = {
    "day": ingestion._DAY,
    "holding": ingestion._HOLDING,
    "transaction": ingestion._TRANSACTION,
    "app": ingestion._APP,
    "token_holding": ingestion._TOKEN_HOLDING,
    "l2": ingestion._L2,
}


def reference_read(spec, row, coin_decimals, seen=None):
    """The interpreted row loop: per column, its lookup, parser, absence, default and bound."""
    if not isinstance(row, dict):
        raise RowProblem(None, f"{spec.noun} must be an object")
    values = {}
    for index, column in enumerate(spec.columns):
        if index == spec.key and seen and (key := tuple(values.values())) in seen:
            reason = f"duplicate {spec.duplicate} {' '.join(map(str, key))}"
            raise RowProblem("date", reason, "duplicate_date")
        value = column.kind.parse(row.get(column.name), column.name, coin_decimals)
        if value is None:
            if column.required:
                raise RowProblem(column.name, "value required")
            value = column.default
        elif column.bound is not None and not column.bound[0](value):
            raise RowProblem(column.name, column.bound[1])
        values[column.attr] = value
    return spec.build(**values)


def outcome(read, *args):
    try:
        return "record", repr(read(*args))
    except RowProblem as problem:
        return "problem", problem.column, problem.reason, problem.code
    except ValueError as exc:  # a count too long for int(), from the parser on both sides
        return "error", str(exc)


def agree(spec, row, coin_decimals, seen=None):
    generated = outcome(spec.reader, row, coin_decimals, seen)
    assert generated == outcome(reference_read, spec, row, coin_decimals, seen), row
    return generated


DATES = ("2021-01-01", "2021-01-02")
IDS = ("a", "b")

# Cells every column kind must treat exactly as its parser does.
ODD_CELLS = [
    "", None, True, False, 1.5, 0.0, float("nan"), [], {}, ("1",),
    0, 1, 7, -1, -(10**30), 10**30,
    "0", "-0", "-0.0", "+5", "-1.5", "1e5", " 1", "1 ", "1.0\n", "1.", ".5", "1,5", "٣", "²", "1_000",
    "0.5", "1", "1.5", "1.000", "1.0000000000000000001", "0.123456789", "00012.3400",
    "9" * 700, "1" * 5000, "0." + "1" * 700,
    "2021-01-01", "2021-13-01", "2021-02-30", "20210101", "2021-W01-5", "2021-1-01", "２０２１-01-01",
    "a", "entity-1", "x" * 70,
]


def valid_cell(kind):
    if kind is ingestion._DATE:
        return DATES[0]
    if kind is ingestion._ID:
        return IDS[0]
    if kind is ingestion._COUNT:
        return 3
    return "0.5"


@pytest.mark.parametrize("name", SPECS)
@pytest.mark.parametrize("coin_decimals", [-1, 0, 2, 18])
def test_each_odd_cell_in_each_column(name, coin_decimals):
    spec = SPECS[name]
    base = {column.name: valid_cell(column.kind) for column in spec.columns}
    assert agree(spec, base, coin_decimals if coin_decimals >= 1 else 18)[0] == "record"
    for column in spec.columns:
        missing = {key: value for key, value in base.items() if key != column.name}
        agree(spec, missing, coin_decimals)
        for cell in ODD_CELLS:
            agree(spec, {**base, column.name: cell}, coin_decimals)


def test_rows_that_are_not_objects():
    for spec in SPECS.values():
        for row in (None, [], "row", 5, (("date", DATES[0]),)):
            assert agree(spec, row, 18)[0] == "problem"


def decimal_tokens(max_whole=10**12, max_places=24):
    whole = st.integers(0, max_whole).map(str)
    places = st.text("0123456789", min_size=1, max_size=max_places)
    sign = st.sampled_from(["", "", "", "+", "-"])
    return st.builds(
        lambda s, w, f: s + w + ("" if f is None else "." + f), sign, whole, st.none() | places
    )


def kind_cells(kind):
    if kind is ingestion._DATE:
        valid = st.sampled_from(DATES) | st.dates(dt.date(1990, 1, 1), dt.date(2040, 12, 31)).map(str)
    elif kind is ingestion._ID:
        valid = st.sampled_from(IDS) | st.text(max_size=4)
    elif kind is ingestion._COUNT:
        valid = st.integers(-3, 10**6) | st.integers(0, 10**6).map(str) | st.integers(-(2**70), 2**70)
    elif kind is ingestion._SHARE:
        valid = decimal_tokens(max_whole=2)
    else:
        valid = decimal_tokens()
    return st.one_of(valid, valid, valid, st.sampled_from(ODD_CELLS))


@st.composite
def rows(draw, spec):
    row = {}
    for column in spec.columns:
        if draw(st.integers(0, 3)):  # a cell is absent one time in four
            row[column.name] = draw(kind_cells(column.kind))
    return row


@st.composite
def seen_keys(draw, spec):
    if spec.key is None:
        return draw(st.none() | st.just(set()))
    dates = st.sampled_from(DATES).map(ingestion.parse_date)
    parts = [st.sampled_from(IDS)] * (spec.key - 1) + [dates]
    return draw(st.none() | st.sets(st.tuples(*parts), max_size=3))


@pytest.mark.parametrize("name", SPECS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_generated_reader_agrees_with_interpreted_loop(name, data):
    spec = SPECS[name]
    row = data.draw(rows(spec) | st.sampled_from([None, [], "row"]), label="row")
    coin_decimals = data.draw(st.sampled_from([-1, 0, 2, 8, 18]), label="coin_decimals")
    agree(spec, row, coin_decimals, data.draw(seen_keys(spec), label="seen"))
