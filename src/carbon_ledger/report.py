"""Report construction: methodology comparison tables, weight series, result files.

The comparison table mirrors the shape of a methodology-comparison report:
per network, the daily average energy of holding one coin for one day and of
performing one average transaction, under each methodology. Cells where a
methodology does not account for an activity are structurally N/A. The
average transaction is defined as a share of 1/tx_count on each day, then
averaged over days, which makes the transaction-based cell exactly
energy/tx_count on constant data.
"""

from __future__ import annotations

import datetime as _dt
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from typing import Iterable, Iterator

from . import engine
from .ingestion import Dataset
from .model import (
    Activity,
    AllocationResult,
    AuditTrail,
    Carbon,
    CoinAmount,
    Energy,
    HoldingRecord,
    Method,
    NetworkDay,
    TransactionRecord,
)
from .numeric import DEFAULT_SIG_DIGITS, format_sig, format_sig_shifted

TEXT_TABLE_SIG_DIGITS = 4

_DISPLAY_UNITS = ("TWh", "GWh", "MWh", "kWh", "Wh")


@dataclass(frozen=True)
class ComparisonRow:
    """Daily-average energy (and optional carbon) cells for one network.

    Transaction cells are None when no day in the range had transactions;
    carbon cells are None unless every contributing day carried an emission
    factor and carbon output was requested.
    """

    network_id: str
    days_covered: int
    holding_based_holding: Energy
    transaction_based_tx: Energy | None
    hybrid_holding: Energy
    hybrid_tx: Energy | None
    holding_based_holding_carbon: Carbon | None = None
    transaction_based_tx_carbon: Carbon | None = None
    hybrid_holding_carbon: Carbon | None = None
    hybrid_tx_carbon: Carbon | None = None


def _select_days(
    dataset: Dataset, start: _dt.date | None, end: _dt.date | None
) -> list[NetworkDay]:
    days = [
        d
        for d in dataset.days
        if (start is None or d.date >= start) and (end is None or d.date <= end)
    ]
    if not days:
        raise ValueError(f"{dataset.network_id}: no days in the requested range")
    return days


class _CellAccumulator:
    """Mean energy/carbon over contributing days."""

    def __init__(self):
        self.energy_wh = Fraction(0)
        self.carbon_g: Fraction | None = Fraction(0)
        self.days = 0

    def add(self, result: AllocationResult) -> None:
        self.energy_wh += result.energy.wh
        self.days += 1
        if self.carbon_g is not None and result.carbon is not None:
            self.carbon_g += result.carbon.grams
        else:
            self.carbon_g = None

    def mean_energy(self) -> Energy | None:
        if self.days == 0:
            return None
        return Energy(self.energy_wh / self.days)

    def mean_carbon(self) -> Carbon | None:
        if self.days == 0 or self.carbon_g is None:
            return None
        return Carbon(self.carbon_g / self.days)


def build_comparison_row(
    dataset: Dataset,
    start: _dt.date | None = None,
    end: _dt.date | None = None,
    with_carbon: bool = False,
) -> ComparisonRow:
    """Average the one-coin and one-transaction cells over the day range.

    Days reporting zero transactions contribute to the holding cells only;
    the average transaction is undefined there.
    """
    days = _select_days(dataset, start, end)
    cells = {
        (Method.HOLDING_BASED, Activity.HOLDING): _CellAccumulator(),
        (Method.TRANSACTION_BASED, Activity.TRANSACTION): _CellAccumulator(),
        (Method.HYBRID, Activity.HOLDING): _CellAccumulator(),
        (Method.HYBRID, Activity.TRANSACTION): _CellAccumulator(),
    }
    for day in days:
        weights = engine.method_weights(day, dataset.consensus)
        one_coin = HoldingRecord(entity_id="one-coin", date=day.date, amount=CoinAmount(1))
        for method in (Method.HOLDING_BASED, Method.HYBRID):
            cells[(method, Activity.HOLDING)].add(
                engine.allocate_holding(day, weights, one_coin, method)
            )
        if day.tx_count > 0:
            one_tx = TransactionRecord(entity_id="one-transaction", date=day.date, tx_count=1)
            for method in (Method.TRANSACTION_BASED, Method.HYBRID):
                cells[(method, Activity.TRANSACTION)].add(
                    engine.allocate_transaction(day, weights, one_tx, method, dataset.consensus)
                )

    def cell(method: Method, activity: Activity) -> Energy | None:
        return cells[(method, activity)].mean_energy()

    def carbon_cell(method: Method, activity: Activity) -> Carbon | None:
        if not with_carbon:
            return None
        return cells[(method, activity)].mean_carbon()

    holding_pure = cell(Method.HOLDING_BASED, Activity.HOLDING)
    hybrid_holding = cell(Method.HYBRID, Activity.HOLDING)
    assert holding_pure is not None and hybrid_holding is not None
    return ComparisonRow(
        network_id=dataset.network_id,
        days_covered=len(days),
        holding_based_holding=holding_pure,
        transaction_based_tx=cell(Method.TRANSACTION_BASED, Activity.TRANSACTION),
        hybrid_holding=hybrid_holding,
        hybrid_tx=cell(Method.HYBRID, Activity.TRANSACTION),
        holding_based_holding_carbon=carbon_cell(Method.HOLDING_BASED, Activity.HOLDING),
        transaction_based_tx_carbon=carbon_cell(Method.TRANSACTION_BASED, Activity.TRANSACTION),
        hybrid_holding_carbon=carbon_cell(Method.HYBRID, Activity.HOLDING),
        hybrid_tx_carbon=carbon_cell(Method.HYBRID, Activity.TRANSACTION),
    )


_COMPARISON_ENERGY_COLUMNS = (
    "holding_based_holding_kwh",
    "holding_based_tx_kwh",
    "transaction_based_holding_kwh",
    "transaction_based_tx_kwh",
    "hybrid_holding_kwh",
    "hybrid_tx_kwh",
)
_COMPARISON_CARBON_COLUMNS = (
    "holding_based_holding_g",
    "holding_based_tx_g",
    "transaction_based_holding_g",
    "transaction_based_tx_g",
    "hybrid_holding_g",
    "hybrid_tx_g",
)


def _energy_cells(row: ComparisonRow) -> tuple[Energy | None, ...]:
    # Table order: per method, holding then transaction; None marks N/A.
    return (
        row.holding_based_holding,
        None,
        None,
        row.transaction_based_tx,
        row.hybrid_holding,
        row.hybrid_tx,
    )


def _carbon_cells(row: ComparisonRow) -> tuple[Carbon | None, ...]:
    return (
        row.holding_based_holding_carbon,
        None,
        None,
        row.transaction_based_tx_carbon,
        row.hybrid_holding_carbon,
        row.hybrid_tx_carbon,
    )


_CSV_SPECIAL = re.compile(r'[",\r\n]')


def _csv_line(cells: list[str]) -> str:
    """One CSV record, quoted per RFC 4180 as ``csv.QUOTE_MINIMAL`` does.

    A cell is quoted only if it holds a comma, quote, CR or LF, with inner
    quotes doubled; a line whose commas are all separators and that holds no
    quote or line break needs none of it.
    """
    line = ",".join(cells)
    if line.count(",") == len(cells) - 1 and _CSV_SPECIAL.search(line) is None:
        return line
    return ",".join(
        '"' + cell.replace('"', '""') + '"' if _CSV_SPECIAL.search(cell) else cell for cell in cells
    )


def comparison_to_csv(
    rows: list[ComparisonRow],
    with_carbon: bool = False,
    sig_digits: int = DEFAULT_SIG_DIGITS,
) -> str:
    header = ("network_id",) + _COMPARISON_ENERGY_COLUMNS
    if with_carbon:
        header += _COMPARISON_CARBON_COLUMNS
    lines = [",".join(header)]
    for row in rows:
        cells = [row.network_id]
        for energy in _energy_cells(row):
            cells.append(format_sig(energy.value_in("kWh"), sig_digits) if energy else "")
        if with_carbon:
            for carbon in _carbon_cells(row):
                cells.append(format_sig(carbon.grams, sig_digits) if carbon else "")
        lines.append(_csv_line(cells))
    return "\n".join(lines) + "\n"


def _display_unit(row: ComparisonRow) -> str:
    """Largest unit keeping the smallest nonzero cell at or above 0.05."""
    values = [e.wh for e in _energy_cells(row) if e is not None and e.wh > 0]
    if not values:
        return "Wh"
    smallest = min(values)
    for unit in _DISPLAY_UNITS:
        if Energy(smallest).value_in(unit) >= Fraction(5, 100):
            return unit
    return "Wh"


def comparison_to_text(rows: list[ComparisonRow]) -> str:
    """Aligned text table, four significant digits, '-' where N/A."""
    headers = (
        "network",
        "holding-based/holding",
        "holding-based/tx",
        "transaction-based/holding",
        "transaction-based/tx",
        "hybrid/holding",
        "hybrid/tx",
    )
    table = [list(headers)]
    for row in rows:
        unit = _display_unit(row)
        rendered = [row.network_id]
        for energy in _energy_cells(row):
            if energy is None:
                rendered.append("-")
            else:
                rendered.append(
                    f"{format_sig(energy.value_in(unit), TEXT_TABLE_SIG_DIGITS)} {unit}"
                )
        table.append(rendered)
    widths = [max(len(line[i]) for line in table) for i in range(len(headers))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)).rstrip() for line in table]
    return "\n".join(lines) + "\n"


def series_rows(
    dataset: Dataset, start: _dt.date | None = None, end: _dt.date | None = None
) -> list[tuple[_dt.date, Fraction]]:
    """Per-day transaction weight of the hybrid split, for external plotting."""
    return [
        (day.date, engine.method_weights(day, dataset.consensus).transaction_weight.value)
        for day in _select_days(dataset, start, end)
    ]


def series_to_csv(rows: list[tuple[_dt.date, Fraction]], sig_digits: int = DEFAULT_SIG_DIGITS) -> str:
    lines = ["date,transaction_weight"]
    for date, weight in rows:
        lines.append(f"{date.isoformat()},{format_sig(weight, sig_digits)}")
    return "\n".join(lines) + "\n"


def series_to_json(rows: list[tuple[_dt.date, Fraction]], sig_digits: int = DEFAULT_SIG_DIGITS) -> dict:
    return {
        "schema_version": "1",
        "series": [
            {"date": date.isoformat(), "transaction_weight": format_sig(weight, sig_digits)}
            for date, weight in rows
        ],
    }


_RESULT_COLUMNS = (
    "date",
    "entity_id",
    "method",
    "activity",
    "energy_wh",
    "energy_kwh",
    "carbon_g",
    "base_wh",
    "method_weight",
    "pool_wh",
    "entity_share",
    "basis",
    "weight_source",
    "scope",
    "filled_forward",
)


def _result_rows(
    results: Iterable[AllocationResult], sig_digits: int, with_carbon: bool
) -> Iterator[list[str]]:
    """Each result's cells as text, in ``_RESULT_COLUMNS`` order: the one source of cell text.

    The Wh and kWh cells come from one rounding. The three per-pool cells are
    rendered once per pool: results of one pool share its base and factor
    objects, so those cells are memoized by identity (a value key would cost a
    Fraction hash per row); the memo keeps the audit it was built from, so the
    ids stay valid. ``format_sig`` is looked up at call time, so a wrapper
    installed on this module sees every call.
    """
    pool_cells: dict[tuple[int, int], tuple[AuditTrail, list[str]]] = {}
    for result in results:
        audit = result.audit
        carbon = result.carbon if with_carbon else None
        key = (id(audit.base_wh), id(audit.pool_factors))
        if key not in pool_cells:
            pool_weight = audit.pool_weight
            pool_cells[key] = audit, [
                format_sig(audit.base_wh, sig_digits),
                format_sig(pool_weight, sig_digits),
                format_sig(audit.base_wh * pool_weight, sig_digits),
            ]
        yield [
            result.date.isoformat(),
            result.entity_id,
            result.method.value,
            result.activity.value,
            *format_sig_shifted(result.energy.wh, sig_digits, 3),
            format_sig(carbon.grams, sig_digits) if carbon is not None else "",
            *pool_cells[key][1],
            format_sig(audit.entity_share, sig_digits),
            audit.entity_basis,
            audit.weight_source or "",
            "/".join(audit.scope),
            "true" if audit.filled_forward else "false",
        ]


def results_to_csv(
    results: tuple[AllocationResult, ...] | list[AllocationResult],
    sig_digits: int = DEFAULT_SIG_DIGITS,
    with_carbon: bool = True,
) -> str:
    lines = [",".join(_RESULT_COLUMNS)]
    lines += [_csv_line(cells) for cells in _result_rows(results, sig_digits, with_carbon)]
    return "\n".join(lines) + "\n"


def _activity_summary_obj(
    summary: engine.ActivitySummary | None, sig_digits: int, with_carbon: bool
):
    if summary is None:
        return None
    carbon = summary.total_carbon if with_carbon else None
    return {
        "result_count": summary.result_count,
        "days_covered": summary.days_covered,
        "total_energy_wh": format_sig(summary.total_energy.wh, sig_digits),
        "daily_mean_energy_wh": format_sig(summary.daily_mean_energy.wh, sig_digits),
        "mean_pool_wh": format_sig(summary.mean_pool.wh, sig_digits),
        "mean_daily_share": format_sig(summary.mean_daily_share, sig_digits),
        "ratio_of_averages_energy_wh": format_sig(summary.ratio_of_averages_energy.wh, sig_digits),
        "total_carbon_g": format_sig(carbon.grams, sig_digits) if carbon is not None else None,
    }


def summary_to_obj(
    summary: engine.PeriodSummary,
    sig_digits: int = DEFAULT_SIG_DIGITS,
    with_carbon: bool = True,
) -> dict:
    return {
        "method": summary.method.value,
        "holding": _activity_summary_obj(summary.holding, sig_digits, with_carbon),
        "transaction": _activity_summary_obj(summary.transaction, sig_digits, with_carbon),
    }


# JSON form of a result cell: these columns are written as they come (the
# cell is already a JSON string, null or boolean), every other is quoted.
_JSON_VERBATIM = {"entity_id", "carbon_g", "basis", "weight_source", "scope", "filled_forward"}
_ENTITY, _CARBON, _BASIS, _SOURCE, _SCOPE = (
    _RESULT_COLUMNS.index(column) for column in ("entity_id", "carbon_g", "basis", "weight_source", "scope")
)
# One result object of ``json.dumps(..., indent=2)`` at its depth in the document.
_JSON_RESULT = (
    "    {\n"
    + ",\n".join(
        f"      {_json_str(column)}: " + ("%s" if column in _JSON_VERBATIM else '"%s"')
        for column in _RESULT_COLUMNS
    )
    + "\n    }"
)


def allocation_to_json(
    network_id: str,
    allocation: engine.PortfolioAllocation,
    sig_digits: int = DEFAULT_SIG_DIGITS,
    with_carbon: bool = True,
) -> str:
    """The result document, byte for byte as ``json.dumps(obj, indent=2) + "\\n"`` writes it.

    Each result is written into one fixed-shape template instead of building
    a dict per row for ``json`` (whose pure-Python encoder runs when
    ``indent`` is set); the summary, a dozen cells, still goes through
    ``json.dumps``.
    """
    rows = []
    for cells in _result_rows(allocation.results, sig_digits, with_carbon):
        cells[_ENTITY] = _json_str(cells[_ENTITY])
        cells[_CARBON] = f'"{cells[_CARBON]}"' if cells[_CARBON] else "null"
        cells[_BASIS] = _json_str(cells[_BASIS])
        cells[_SOURCE] = _json_str(cells[_SOURCE]) if cells[_SOURCE] else "null"
        cells[_SCOPE] = _json_str(cells[_SCOPE])
        rows.append(_JSON_RESULT % tuple(cells))
    results = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
    summary = json.dumps(summary_to_obj(allocation.summary, sig_digits, with_carbon), indent=2)
    # json.dumps escapes line breaks inside strings, so every "\n" here is layout
    summary = summary.replace("\n", "\n  ")
    return (
        f'{{\n  "schema_version": "1",\n  "network_id": {_json_str(network_id)},\n'
        f'  "method": "{allocation.method.value}",\n  "results": {results},\n'
        f'  "summary": {summary}\n}}\n'
    )


def allocation_to_json_obj(
    network_id: str,
    allocation: engine.PortfolioAllocation,
    sig_digits: int = DEFAULT_SIG_DIGITS,
    with_carbon: bool = True,
) -> dict:
    """The result document as a dict: ``allocation_to_json`` decoded."""
    return json.loads(allocation_to_json(network_id, allocation, sig_digits, with_carbon))
