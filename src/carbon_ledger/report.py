"""Report construction: methodology comparison tables, weight series, result files.

The comparison table mirrors the shape of a methodology-comparison report:
per network, the daily average energy of holding one coin for one day and of
performing one average transaction, under each methodology. Cells where a
methodology does not account for an activity are structurally N/A. The
average transaction is defined as a share of 1/tx_count on each day, then
averaged over days, which makes the transaction-based cell exactly
energy/tx_count on constant data.

Result files are written in one pass per result, shared by JSON
(``allocation_json_chunks``) and CSV (``results_csv_chunks``): a pool's
fixed cells are written once into the text fragments of a result's object
or line, and each result adds its entity, basis and numbers between them,
one ``numeric.format_ratio_shifted`` call a number (Wh and kWh from one).
``_result_rows`` gives the same cells one by one, as the tests' view.
"""

from __future__ import annotations

import datetime as _dt
import itertools
import json
import math
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from typing import Iterable, Iterator

from . import engine
from .errors import ArgumentMismatch
from .ingestion import Dataset
from .model import (
    Activity,
    AllocationResult,
    Carbon,
    CoinAmount,
    Energy,
    HoldingRecord,
    Method,
    NetworkDay,
    Pool,
    Portfolio,
    TransactionRecord,
    Value,
    result_parts,
)
from .numeric import DEFAULT_SIG_DIGITS, format_ratio, format_ratio_shifted, format_sig

TEXT_TABLE_SIG_DIGITS = 4

_DISPLAY_UNITS = ("TWh", "GWh", "MWh", "kWh", "Wh")


class ComparisonRow(Value):
    """Daily-average energy (and optional carbon) cells for one network.

    Transaction cells are None when no day in the range had transactions;
    carbon cells are None unless every contributing day carried an emission
    factor and carbon output was requested.
    """

    __slots__ = (
        "network_id", "days_covered", "holding_based_holding", "transaction_based_tx", "hybrid_holding", "hybrid_tx",
        "holding_based_holding_carbon", "transaction_based_tx_carbon", "hybrid_holding_carbon", "hybrid_tx_carbon",
    )
    _defaults = dict.fromkeys(__slots__[6:])  # the four carbon cells


def _select_days(
    dataset: Dataset, start: _dt.date | None, end: _dt.date | None
) -> list[NetworkDay]:
    days = [
        d
        for d in dataset.days
        if (start is None or d.date >= start) and (end is None or d.date <= end)
    ]
    if not days:
        raise ArgumentMismatch(f"{dataset.network_id}: no days in the requested range")
    return days


def build_comparison_row(
    dataset: Dataset,
    start: _dt.date | None = None,
    end: _dt.date | None = None,
    with_carbon: bool = False,
) -> ComparisonRow:
    """Allocate one coin held and one transaction made on every day of the range, under each method.

    Each cell is the daily mean energy of that activity in that method's
    allocation. Days reporting zero transactions carry no transaction, so
    they count for the holding cells only; the average transaction is
    undefined there.
    """
    days = _select_days(dataset, start, end)
    portfolio = Portfolio(
        dataset.network_id,
        holdings=tuple(HoldingRecord("one-coin", day.date, CoinAmount(1)) for day in days),
        transactions=tuple(
            TransactionRecord("one-transaction", day.date, tx_count=1) for day in days if day.tx_count > 0
        ),
    )
    # hybrid first: it checks each day's weights and then its holding bound, in date order,
    # so the earliest bad day is the one reported
    allocations = {
        method: engine.allocate_portfolio(days, dataset.consensus, portfolio, method)
        for method in (Method.HYBRID, Method.HOLDING_BASED, Method.TRANSACTION_BASED)
    }
    cells = {}
    for method, activity, name, _ in _CELLS:
        if name not in _ROW_FIELDS:
            continue  # N/A: the method does not allocate this activity
        allocation = allocations[method]
        summary = allocation.summary.holding if activity is Activity.HOLDING else allocation.summary.transaction
        cells[name] = summary.daily_mean_energy if summary is not None else None
        # the summary's total leaves out days without a factor; such a day empties the cell
        if with_carbon and summary is not None and all(
            r.pool.carbon_per_wh is not None for r in allocation.results if r.activity is activity
        ):
            cells[f"{name}_carbon"] = Carbon(summary.total_carbon.grams / summary.days_covered)
    return ComparisonRow(network_id=dataset.network_id, days_covered=len(days), **cells)


# The table's six cells in order, per method holding then transaction:
# (method, activity, name, heading). A cell is N/A where ComparisonRow has no
# field of its name; the CSV columns are the names plus a unit.
_CELLS = tuple(
    (method, activity, f"{prefix}_{suffix}", f"{prefix.replace('_', '-')}/{suffix}")
    for method, prefix in (
        (Method.HOLDING_BASED, "holding_based"),
        (Method.TRANSACTION_BASED, "transaction_based"),
        (Method.HYBRID, "hybrid"),
    )
    for activity, suffix in ((Activity.HOLDING, "holding"), (Activity.TRANSACTION, "tx"))
)
_ROW_FIELDS = set(ComparisonRow.__slots__)
_COMPARISON_ENERGY_COLUMNS = tuple(f"{name}_kwh" for _, _, name, _ in _CELLS)
_COMPARISON_CARBON_COLUMNS = tuple(f"{name}_g" for _, _, name, _ in _CELLS)


def _cells(row: ComparisonRow, suffix: str = "") -> list:
    """The row's energy (with ``_carbon``, carbon) cells in table order; None marks N/A or empty."""
    return [getattr(row, name + suffix, None) for _, _, name, _ in _CELLS]


_CSV_SPECIAL = re.compile(r'[",\r\n]')


def _csv_cell(text: str) -> str:
    """One CSV cell as ``csv.QUOTE_MINIMAL`` writes it: quoted only if it holds a comma, quote, CR or LF."""
    return '"' + text.replace('"', '""') + '"' if _CSV_SPECIAL.search(text) else text


def _csv_line(cells: list[str]) -> str:
    """One CSV record, quoted per RFC 4180 as ``csv.QUOTE_MINIMAL`` does, inner quotes doubled."""
    return ",".join(map(_csv_cell, cells))


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
        for energy in _cells(row):
            cells.append(format_sig(energy.value_in("kWh"), sig_digits) if energy else "")
        if with_carbon:
            for carbon in _cells(row, "_carbon"):
                cells.append(format_sig(carbon.grams, sig_digits) if carbon else "")
        lines.append(_csv_line(cells))
    return "\n".join(lines) + "\n"


def _display_unit(row: ComparisonRow) -> str:
    """Largest unit keeping the smallest nonzero cell at or above 0.05."""
    values = [e.wh for e in _cells(row) if e is not None and e.wh > 0]
    if not values:
        return "Wh"
    smallest = min(values)
    for unit in _DISPLAY_UNITS:
        if Energy(smallest).value_in(unit) >= Fraction(5, 100):
            return unit
    return "Wh"


def comparison_to_text(rows: list[ComparisonRow]) -> str:
    """Aligned text table, four significant digits, '-' where N/A."""
    headers = ("network", *(heading for _, _, _, heading in _CELLS))
    table = [list(headers)]
    for row in rows:
        unit = _display_unit(row)
        rendered = [row.network_id]
        for energy in _cells(row):
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
# JSON form of a result cell: these columns are written as they come (a JSON
# string, null or boolean), every other is quoted.
_JSON_VERBATIM = {"entity_id", "carbon_g", "basis", "weight_source", "scope", "filled_forward"}
# One result object of ``json.dumps(..., indent=2)`` at its depth in the document.
_JSON_RESULT = (
    "    {\n"
    + ",\n".join(
        f"      {_json_str(column)}: " + ("%s" if column in _JSON_VERBATIM else '"%s"')
        for column in _RESULT_COLUMNS
    )
    + "\n    }"
)


def _json_cell(column: str, text: str) -> str:
    """A cell's text as ``_JSON_RESULT`` takes it: the JSON value of a verbatim cell, else as it is.

    The fill flag is a boolean, an empty carbon or weight source null. The
    entity and basis come escaped per result, so they stay as they are.
    """
    if column not in _JSON_VERBATIM or column in ("entity_id", "basis", "filled_forward"):
        return text
    return _json_str(text) if text or column == "scope" else "null"


# How a result is written: the text around each of its cells, how a fixed cell's text is
# written and how an entity or basis is escaped. A JSON result starts with its separator.
_JSON_FORM = ((",\n" + _JSON_RESULT).split("%s"), _json_cell, _json_str)
_CSV_FORM = (["", *[","] * (len(_RESULT_COLUMNS) - 1), "\n"], lambda column, text: _csv_cell(text), _csv_cell)


class _PoolText:
    """What every result of one pool, date, method and activity renders alike.

    ``cells`` are a result's cells with None in each per-result slot:
    entity, Wh, kWh, carbon (unless fixed empty), share and basis. A
    result's energy is ``wh_n·quantity / (wh_d·total)``, its carbon
    ``carbon_n·quantity / (carbon_d·total)``.
    """

    __slots__ = ("key", "cells", "wh_n", "wh_d", "carbon_n", "carbon_d")

    def __init__(self, key: tuple, sig_digits: int, with_carbon: bool):
        pool, date, method, activity = self.key = key
        weight = math.prod((factor for _, factor in pool.factors), start=Fraction(1))
        wh, factor = pool.wh, pool.carbon_per_wh if with_carbon else None
        fixed = {
            "date": date.isoformat(),
            "method": method.value,
            "activity": activity.value,
            "base_wh": format_sig(pool.base_wh, sig_digits),
            "method_weight": format_sig(weight, sig_digits),
            "pool_wh": format_sig(wh, sig_digits),
            "weight_source": pool.weight_source or "",
            "scope": "/".join(pool.scope),
            "filled_forward": "true" if pool.filled_forward else "false",
        }
        self.wh_n, self.wh_d = wh.numerator, wh.denominator
        if factor is None:
            fixed["carbon_g"] = ""
            self.carbon_n = self.carbon_d = None
        else:
            self.carbon_n, self.carbon_d = wh.numerator * factor.numerator, wh.denominator * factor.denominator
        self.cells = [fixed.get(column) for column in _RESULT_COLUMNS]

    def fragments(self, form) -> tuple[str, ...]:
        """The text of a result in ``form`` around its per-result cells: the fixed cells written once."""
        around, fixed_cell, _ = form
        fragments, text = [], around[0]
        for column, cell, after in zip(_RESULT_COLUMNS, self.cells, around[1:]):
            if cell is None:
                # a per-result cell's own quotes, if any, are fixed text too
                opening, closing = fixed_cell(column, "%s").split("%s")
                fragments.append(text + opening)
                text = closing + after
            else:
                text += fixed_cell(column, cell) + after
        return (*fragments, text)


def _result_rows(
    results: Iterable[AllocationResult], sig_digits: int, with_carbon: bool
) -> Iterator[list[str]]:
    """Each result's cells as text, in ``_RESULT_COLUMNS`` order: the cells the writers write, one by one."""
    pools: dict[Pool, _PoolText] = {}
    for result in results:
        pool, date, method, activity, entity_id, quantity, total, basis = result_parts(result)
        text = pools.get(pool)
        if text is None or text.key != (pool, date, method, activity):
            text = pools[pool] = _PoolText((pool, date, method, activity), sig_digits, with_carbon)
        cells = [entity_id, *format_ratio_shifted(text.wh_n * quantity, text.wh_d * total, sig_digits, 3)]
        if text.carbon_n is not None:
            cells.append(format_ratio(text.carbon_n * quantity, text.carbon_d * total, sig_digits))
        cells = iter([*cells, format_ratio(quantity, total, sig_digits), basis])
        yield [next(cells) if cell is None else cell for cell in text.cells]


# Results per chunk of a streamed result document: a writer holds one chunk
# (about 120 KB of JSON) at a time, never the whole document.
CHUNK_ROWS = 256


def _batches(items: Iterable) -> Iterator[list]:
    iterator = iter(items)
    while batch := list(itertools.islice(iterator, CHUNK_ROWS)):
        yield batch


def _written(results: Iterable[AllocationResult], sig_digits: int, with_carbon: bool, form) -> Iterator[list[str]]:
    """The results written in ``form``, as one list of text pieces per ``CHUNK_ROWS`` results.

    Each result is its pool's fragments (made once per pool, date, method
    and activity) around its own cells. The numbers are rounded from the
    result's integers, not reduced, one kernel call a cell (Wh and kWh
    from one rounding); each entity and basis is escaped once per
    distinct text.
    """
    escape = form[2]
    pools: dict[Pool, tuple] = {}
    escaped: dict[str, str] = {}
    for batch in _batches(results):
        pieces: list[str] = []
        for result in batch:
            pool, date, method, activity, entity_id, quantity, total, basis = result_parts(result)
            entry = pools.get(pool)
            if entry is None or entry[0] != (date, method, activity):
                text = _PoolText((pool, date, method, activity), sig_digits, with_carbon)
                entry = pools[pool] = (
                    (date, method, activity), text.fragments(form), text.wh_n, text.wh_d, text.carbon_n, text.carbon_d
                )
            _, fragments, wh_n, wh_d, carbon_n, carbon_d = entry
            entity = escaped.get(entity_id) or escaped.setdefault(entity_id, escape(entity_id))
            basis = escaped.get(basis) or escaped.setdefault(basis, escape(basis))
            wh, kwh = format_ratio_shifted(wh_n * quantity, wh_d * total, sig_digits, 3)
            share = format_ratio_shifted(quantity, total, sig_digits, 0)[0]
            if carbon_n is None:
                f0, f1, f2, f3, f4, f5 = fragments
                pieces += (f0, entity, f1, wh, f2, kwh, f3, share, f4, basis, f5)
            else:
                f0, f1, f2, f3, f4, f5, f6 = fragments
                carbon = format_ratio_shifted(carbon_n * quantity, carbon_d * total, sig_digits, 0)[0]
                pieces += (f0, entity, f1, wh, f2, kwh, f3, carbon, f4, share, f5, basis, f6)
        yield pieces


def results_csv_chunks(
    results: Iterable[AllocationResult],
    sig_digits: int = DEFAULT_SIG_DIGITS,
    with_carbon: bool = True,
) -> Iterator[str]:
    """The result CSV as text chunks: the header, then ``CHUNK_ROWS`` lines at a time."""
    yield ",".join(_RESULT_COLUMNS) + "\n"
    for pieces in _written(results, sig_digits, with_carbon, _CSV_FORM):
        yield "".join(pieces)


def results_to_csv(
    results: tuple[AllocationResult, ...] | list[AllocationResult],
    sig_digits: int = DEFAULT_SIG_DIGITS,
    with_carbon: bool = True,
) -> str:
    return "".join(results_csv_chunks(results, sig_digits, with_carbon))


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


def allocation_json_chunks(
    network_id: str,
    allocation: engine.PortfolioAllocation,
    sig_digits: int = DEFAULT_SIG_DIGITS,
    with_carbon: bool = True,
) -> Iterator[str]:
    """The result document as text chunks of ``CHUNK_ROWS`` results, joined as ``allocation_to_json``.

    The document is byte for byte what ``json.dumps(obj, indent=2) + "\\n"``
    writes. Each result is its pool's text fragments of one fixed-shape
    object around its own cells (``_written``), instead of a dict per row
    for ``json`` (whose pure-Python encoder runs when ``indent`` is set);
    the summary, a dozen cells, still goes through ``json.dumps``. The head
    rides on the first chunk and the summary on the last.
    """
    head = (
        f'{{\n  "schema_version": "1",\n  "network_id": {_json_str(network_id)},\n'
        f'  "method": "{allocation.method.value}",\n  "results": ['
    )
    written = False
    for pieces in _written(allocation.results, sig_digits, with_carbon, _JSON_FORM):
        if not written:
            # the document's first result has the head before it, not a separator
            pieces[0] = head + "\n" + pieces[0].removeprefix(",\n")
            written = True
        yield "".join(pieces)
    summary = json.dumps(summary_to_obj(allocation.summary, sig_digits, with_carbon), indent=2)
    # json.dumps escapes line breaks inside strings, so every "\n" here is layout
    summary = summary.replace("\n", "\n  ")
    close = "\n  ]" if written else head + "]"
    yield f'{close},\n  "summary": {summary}\n}}\n'


def allocation_to_json(
    network_id: str,
    allocation: engine.PortfolioAllocation,
    sig_digits: int = DEFAULT_SIG_DIGITS,
    with_carbon: bool = True,
) -> str:
    """The result document, byte for byte as ``json.dumps(obj, indent=2) + "\\n"`` writes it."""
    return "".join(allocation_json_chunks(network_id, allocation, sig_digits, with_carbon))


def allocation_to_json_obj(
    network_id: str,
    allocation: engine.PortfolioAllocation,
    sig_digits: int = DEFAULT_SIG_DIGITS,
    with_carbon: bool = True,
) -> dict:
    """The result document as a dict: ``allocation_to_json`` decoded."""
    return json.loads(allocation_to_json(network_id, allocation, sig_digits, with_carbon))
