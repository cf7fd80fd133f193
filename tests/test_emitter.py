"""Result emitters: the JSON template against json.dumps, CSV quoting, one rounding for Wh and kWh."""

import csv
import datetime as dt
import io
import json
import random
from dataclasses import replace
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from carbon_ledger import engine, report
from carbon_ledger.model import CoinAmount, Energy, HoldingRecord, Method, Portfolio, TransactionRecord
from carbon_ledger.numeric import format_sig, format_sig_shifted
from conftest import POS, POW, random_pos_day, random_pow_day

START = dt.date(2021, 1, 1)


def oracle_json(network_id, allocation, sig_digits, with_carbon) -> str:
    """The document as the emitter wrote it before the template: a dict per row, then json.dumps."""
    rows = []
    for cells in report._result_rows(allocation.results, sig_digits, with_carbon):
        entry = dict(zip(report._RESULT_COLUMNS, cells))
        entry["carbon_g"] = entry["carbon_g"] or None
        entry["weight_source"] = entry["weight_source"] or None
        entry["filled_forward"] = entry["filled_forward"] == "true"
        rows.append(entry)
    obj = {
        "schema_version": "1",
        "network_id": network_id,
        "method": allocation.method.value,
        "results": rows,
        "summary": report.summary_to_obj(allocation.summary, sig_digits, with_carbon),
    }
    return json.dumps(obj, indent=2) + "\n"


def _allocation(seed, kind, entity_ids, activities, method, with_factor, gap, network_id="net"):
    """A few days (the middle one filled forward when ``gap``) and records for every entity.

    The network id lands in every result's scope cell.
    """
    rng = random.Random(seed)
    dates = [START + dt.timedelta(days=i) for i in range(3)]
    make = random_pow_day if kind == "pow" else random_pos_day
    days = [make(rng, date) for date in dates]
    if with_factor:
        days = [replace(day, emission_factor=Fraction(rng.randint(1, 10**9), 10**6)) for day in days]
    if gap:
        days = list(engine.fill_forward([days[0], days[2]], {dates[1]}))
    params = POW if kind == "pow" else POS
    holdings = tuple(
        HoldingRecord(e, d, CoinAmount(Fraction(rng.randint(0, 10**6), 100)))
        for e in entity_ids
        for d in dates
        if "holding" in activities
    )
    txs = tuple(
        TransactionRecord(e, d, tx_count=1)
        for e in entity_ids
        for d in dates
        if "transaction" in activities
    )
    portfolio = Portfolio(network_id, holdings, txs)
    return engine.allocate_portfolio(days, params, portfolio, method)


entity_ids = st.lists(
    st.text(alphabet=st.characters(), min_size=1, max_size=8)
    | st.sampled_from(['x,"y"\nz', "é", "\\", " ", "\x00\x1f", "%s", "a\rb", "\u2028"]),
    min_size=0,
    max_size=3,
    unique=True,
)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    kind=st.sampled_from(["pow", "pos"]),
    ids=entity_ids,
    activities=st.sampled_from([("holding",), ("transaction",), ("holding", "transaction")]),
    method=st.sampled_from(list(Method)),
    with_factor=st.booleans(),
    gap=st.booleans(),
    sig_digits=st.integers(1, 12),
    with_carbon=st.booleans(),
    network_id=st.text(max_size=6),
)
def test_template_matches_json_dumps(
    seed, kind, ids, activities, method, with_factor, gap, sig_digits, with_carbon, network_id
):
    allocation = _allocation(seed, kind, ids, activities, method, with_factor, gap, network_id)
    expected = oracle_json(network_id, allocation, sig_digits, with_carbon)
    assert report.allocation_to_json(network_id, allocation, sig_digits, with_carbon) == expected
    assert report.allocation_to_json_obj(network_id, allocation, sig_digits, with_carbon) == json.loads(
        expected
    )


def test_template_covers_null_summary_sides_and_empty_results():
    holding_only = _allocation(1, "pow", ["a"], ("holding",), Method.HYBRID, True, True)
    assert holding_only.summary.transaction is None
    assert any(r.audit.filled_forward for r in holding_only.results)
    empty = _allocation(1, "pow", [], ("holding",), Method.HYBRID, False, False)
    assert empty.results == ()
    text = report.allocation_to_json("net", empty, 6, True)
    assert '  "results": [],\n' in text
    assert text == oracle_json("net", empty, 6, True)


def _csv_rows(text):
    return list(csv.reader(io.StringIO(text, newline="")))


def test_results_csv_quotes_text_cells():
    hostile = 'x,"y"\nz'
    allocation = _allocation(5, "pow", [hostile, "plain"], ("holding",), Method.HOLDING_BASED, False, False)
    text = report.results_to_csv(allocation.results, 6, True)
    rows = _csv_rows(text)
    assert all(len(row) == 15 for row in rows)
    assert [row[1] for row in rows[1:]] == [r.entity_id for r in allocation.results]
    assert '"x,""y""\nz"' in text
    # ids without separators, quotes or line breaks keep their bytes
    assert any(line.startswith("2021-01-01,plain,") for line in text.splitlines())


def test_comparison_csv_quotes_network_id():
    row = report.ComparisonRow(
        network_id='a,"b"', days_covered=1, holding_based_holding=Energy(Fraction(1)),
        transaction_based_tx=None, hybrid_holding=Energy(Fraction(2)), hybrid_tx=None,
    )
    rows = _csv_rows(report.comparison_to_csv([row]))
    assert rows[1][0] == 'a,"b"'
    assert len(rows[1]) == len(rows[0]) == 7


values = (
    st.fractions()
    | st.builds(lambda n, p: Fraction(n, 10**p), st.integers(-(10**15), 10**15), st.integers(0, 12))
    | st.builds(lambda n, p: Fraction(n * 10 + 5, 10**p), st.integers(-(10**6), 10**6), st.integers(0, 9))
)


@given(values, st.integers(1, 12))
def test_shifted_rendering_is_the_kwh_cell(value, sig_digits):
    wh, kwh = format_sig_shifted(value, sig_digits, 3)
    assert wh == format_sig(value, sig_digits)
    assert kwh == format_sig(value / 1000, sig_digits)
