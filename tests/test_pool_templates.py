"""Per-pool result templates: each result renders its own date, method and activity, and hostile text stays text.

The oracle renders every cell from the reduced values a library caller reads
(``energy``, ``audit``, ``carbon``) and writes the documents with
``json.dumps`` and ``csv.writer``, so it shares no code with the templates.
"""

import csv
import datetime as dt
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carbon_ledger import engine, report
from carbon_ledger.model import Activity, AllocationResult, Method, Pool
from carbon_ledger.numeric import format_sig

DAY1, DAY2 = dt.date(2021, 1, 1), dt.date(2021, 1, 2)


def _pool(network_id="net", weight_source="fees", filled_forward=False, carbon_per_wh=Fraction(3, 7)):
    base = Fraction(123456789, 1000)
    factors = (("transaction_weight", Fraction(2, 9)),)
    return Pool(
        (f"network:{network_id}",), base, factors, base * Fraction(2, 9), weight_source, filled_forward, carbon_per_wh
    )


def _oracle_cells(result, sig_digits, with_carbon) -> dict:
    audit, energy, carbon = result.audit, result.energy, result.carbon if with_carbon else None
    return {
        "date": result.date.isoformat(),
        "entity_id": result.entity_id,
        "method": result.method.value,
        "activity": result.activity.value,
        "energy_wh": format_sig(energy.wh, sig_digits),
        "energy_kwh": format_sig(energy.value_in("kWh"), sig_digits),
        "carbon_g": format_sig(carbon.grams, sig_digits) if carbon is not None else None,
        "base_wh": format_sig(audit.base_wh, sig_digits),
        "method_weight": format_sig(audit.pool_weight, sig_digits),
        "pool_wh": format_sig(audit.pool_wh, sig_digits),
        "entity_share": format_sig(audit.entity_share, sig_digits),
        "basis": audit.entity_basis,
        "weight_source": audit.weight_source or None,  # an empty source is written as none, as ever
        "scope": "/".join(audit.scope),
        "filled_forward": audit.filled_forward,
    }


def _oracle_json(network_id, allocation, sig_digits, with_carbon) -> str:
    obj = {
        "schema_version": "1",
        "network_id": network_id,
        "method": allocation.method.value,
        "results": [_oracle_cells(r, sig_digits, with_carbon) for r in allocation.results],
        "summary": report.summary_to_obj(allocation.summary, sig_digits, with_carbon),
    }
    return json.dumps(obj, indent=2) + "\n"


def _oracle_csv(results, sig_digits, with_carbon) -> str:
    def line(cells):
        buffer = io.StringIO()
        csv.writer(buffer).writerow(cells)  # "\r\n" ends the row, so a CR in a cell is quoted too
        return buffer.getvalue().removesuffix("\r\n") + "\n"

    def text(value):
        return "" if value is None else ("true" if value else "false") if isinstance(value, bool) else value

    rows = [[text(v) for v in _oracle_cells(r, sig_digits, with_carbon).values()] for r in results]
    return "".join(map(line, [list(report._RESULT_COLUMNS), *rows]))


def _check(results, method=Method.HYBRID, network_id="net", sig_digits=6, with_carbon=True):
    results = tuple(results)
    allocation = engine.PortfolioAllocation(method, results, engine.summarize(method, results))
    assert report.allocation_to_json(network_id, allocation, sig_digits, with_carbon) == _oracle_json(
        network_id, allocation, sig_digits, with_carbon
    )
    assert report.results_to_csv(results, sig_digits, with_carbon) == _oracle_csv(results, sig_digits, with_carbon)


@pytest.mark.parametrize("with_carbon", [True, False])
def test_results_sharing_one_pool_render_their_own_date_method_and_activity(with_carbon):
    pool = _pool()
    results = [
        AllocationResult.share_of(f"e{i}", date, method, activity, pool, 1 + i, 9, "coin_amount")
        for i, (date, method, activity) in enumerate(
            (date, method, activity)
            for date in (DAY1, DAY2)
            for method in (Method.HYBRID, Method.HOLDING_BASED)
            for activity in (Activity.HOLDING, Activity.TRANSACTION)
        )
    ]
    # each key twice, and every key met again after another one
    results += results
    _check(results, with_carbon=with_carbon)
    rows = list(report._result_rows(results, 6, with_carbon))
    assert [(row[0], row[2], row[3]) for row in rows] == [
        (r.date.isoformat(), r.method.value, r.activity.value) for r in results
    ]


hostile = st.sampled_from(["%", "%s", "%%s", '"', "\\", 'a,"b"\nc', "a\rb", " ", "é", ""])
texts = hostile | st.text(max_size=6)


@settings(max_examples=80, deadline=None)
@given(
    network_id=texts,
    entity_id=texts,
    basis=texts,
    weight_source=st.none() | texts,
    filled_forward=st.booleans(),
    with_factor=st.booleans(),
    with_carbon=st.booleans(),
    sig_digits=st.integers(1, 12),
)
def test_hostile_text_in_fixed_and_per_result_cells(
    network_id, entity_id, basis, weight_source, filled_forward, with_factor, with_carbon, sig_digits
):
    pool = _pool(network_id, weight_source, filled_forward, Fraction(5, 3) if with_factor else None)
    results = [
        AllocationResult.share_of(entity_id, DAY1, Method.HYBRID, Activity.HOLDING, pool, 2, 3, basis),
        AllocationResult.share_of(entity_id + "%", DAY1, Method.HYBRID, Activity.HOLDING, pool, 1, 3, basis + "%s"),
    ]
    _check(results, network_id=network_id, sig_digits=sig_digits, with_carbon=with_carbon)


def test_a_percent_in_the_network_id_is_text_not_a_slot():
    pool = _pool("100%s%d%%", weight_source=None)
    result = AllocationResult.share_of("a", DAY1, Method.HYBRID, Activity.HOLDING, pool, 1, 2, "coin_amount")
    _check([result], network_id="100%s%d%%")
    line = report.results_to_csv([result], 6, True).splitlines()[1]
    assert ",network:100%s%d%%," in line
    assert '"weight_source": null' in report.allocation_to_json("n", engine.PortfolioAllocation(
        Method.HYBRID, (result,), engine.summarize(Method.HYBRID, (result,))
    ))


@pytest.mark.parametrize("with_carbon", [True, False])
@pytest.mark.parametrize("carbon_per_wh", [Fraction(3, 7), None])
def test_zero_quantity_renders_zero_energy(with_carbon, carbon_per_wh):
    pool = _pool(carbon_per_wh=carbon_per_wh)
    results = [
        AllocationResult.share_of("none", DAY1, Method.HYBRID, Activity.HOLDING, pool, 0, 5, "coin_amount"),
        AllocationResult.share_of("some", DAY1, Method.HYBRID, Activity.HOLDING, pool, 5, 5, "coin_amount"),
    ]
    _check(results, with_carbon=with_carbon)
    zero = next(report._result_rows(results, 6, with_carbon))
    cells = dict(zip(report._RESULT_COLUMNS, zero))
    assert cells["energy_wh"] == cells["energy_kwh"] == cells["entity_share"] == "0"
    assert cells["carbon_g"] == ("0" if with_carbon and carbon_per_wh is not None else "")
