"""Independent output checks: recompute what the CLI should print from the inputs.

The reference arithmetic here uses ``fractions`` for the exact values and
``decimal`` (which rounds correctly in one step) for half-even rendering, so
it shares no code with the program under test.
"""

from __future__ import annotations

import csv
import decimal
import io
import json
from fractions import Fraction

_ROUND = decimal.Context(
    prec=6, rounding=decimal.ROUND_HALF_EVEN, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN
)


def sig(value: Fraction) -> str:
    """Half-even at 6 significant digits, as a plain normalized decimal."""
    if value == 0:
        return "0"
    rounded = _ROUND.divide(decimal.Decimal(value.numerator), decimal.Decimal(value.denominator))
    text = format(rounded, "f")
    return text.rstrip("0").rstrip(".") if "." in text else text


def _frac(token) -> Fraction | None:
    return None if token in (None, "") else Fraction(str(token))


def _expected_rows(days: list[dict], pf: dict, kind: str) -> dict[tuple, dict]:
    """Exact hybrid allocation of every record, keyed by (date, entity, activity)."""
    by_date = {}
    for day in days:
        energy = _frac(day["energy_wh"])
        if kind == "pow":
            reward, fees = _frac(day["block_reward"]), _frac(day["tx_fees_total"])
            tx_weight, source = fees / (reward + fees), "fee_share"
        else:
            tx_weight, source = _frac(day["pos_tx_share"]), "pos_tx_share"
        effective = _frac(day["coin_supply"]) * (1 - (_frac(day.get("lost_coin_fraction")) or 0))
        by_date[day["date"]] = (day, energy, tx_weight, source, effective)

    expected = {}

    def add(record: dict, activity: str, weight: Fraction, share: Fraction, basis: str):
        day, energy, _, source, _ = by_date[record["date"]]
        pool = energy * weight
        wh = pool * share
        factor = _frac(day.get("emission_factor_g_per_kwh"))
        expected[(record["date"], record["entity_id"], activity)] = {
            "exact_wh": wh,
            "exact_pool": pool,
            "exact_share": share,
            "exact_carbon": wh / 1000 * factor if factor is not None else None,
            "energy_wh": sig(wh),
            "energy_kwh": sig(wh / 1000),
            "carbon_g": sig(wh / 1000 * factor) if factor is not None else "",
            "base_wh": sig(energy),
            "method_weight": sig(weight),
            "pool_wh": sig(pool),
            "entity_share": sig(share),
            "basis": basis,
            "weight_source": source,
        }

    for h in pf["holdings"]:
        _, _, tx_weight, _, effective = by_date[h["date"]]
        add(h, "holding", 1 - tx_weight, _frac(h["amount"]) / effective, "holding")
    for t in pf["transactions"]:
        day, _, tx_weight, _, _ = by_date[t["date"]]
        if kind == "pow":
            share, basis = _frac(t["fee_paid"]) / _frac(day["tx_fees_total"]), "fee"
        else:
            share, basis = _frac(t["gas_used"]) / _frac(day["gas_total"]), "gas"
        add(t, "transaction", tx_weight, share, basis)
    return expected


def _expected_summary(expected: dict[tuple, dict], activity: str) -> dict:
    cells = [(key[0], value) for key, value in expected.items() if key[2] == activity]
    dates = sorted({date for date, _ in cells})
    pools = {date: value["exact_pool"] for date, value in cells}
    total = sum((value["exact_wh"] for _, value in cells), Fraction(0))
    mean_pool = sum((pools[d] for d in dates), Fraction(0)) / len(dates)
    mean_share = sum((value["exact_share"] for _, value in cells), Fraction(0)) / len(dates)
    carbon = sum((value["exact_carbon"] for _, value in cells), Fraction(0))
    return {
        "result_count": len(cells),
        "days_covered": len(dates),
        "total_energy_wh": sig(total),
        "daily_mean_energy_wh": sig(total / len(dates)),
        "mean_pool_wh": sig(mean_pool),
        "mean_daily_share": sig(mean_share),
        "ratio_of_averages_energy_wh": sig(mean_pool * mean_share),
        "total_carbon_g": sig(carbon),
    }


_CHECKED_COLUMNS = (
    "energy_wh", "energy_kwh", "carbon_g", "base_wh", "method_weight",
    "pool_wh", "entity_share", "basis", "weight_source",
)


def check_allocation(rows: list[dict], summary: dict, days: list[dict], pf: dict, kind: str, network: str) -> list[str]:
    """Problems found in one hybrid allocation output; empty when it is right.

    ``rows`` use the CSV spelling (empty string for absent, "true"/"false").
    """
    problems = []
    records = len(pf["holdings"]) + len(pf["transactions"])
    if len(rows) != records:
        problems.append(f"{len(rows)} result rows for {records} input records")
    expected = _expected_rows(days, pf, kind)
    keys = [(r["date"], r["entity_id"], r["activity"]) for r in rows]
    if keys != sorted(keys):
        problems.append("result rows are not sorted by (date, entity_id, activity)")
    for row, key in zip(rows, keys):
        want = expected.get(key)
        if want is None:
            problems.append(f"unexpected result row {key}")
            continue
        for column in _CHECKED_COLUMNS:
            if row[column] != want[column]:
                problems.append(f"{key} {column}: got {row[column]!r}, expected {want[column]!r}")
        if (row["method"], row["scope"], row["filled_forward"]) != ("hybrid", f"network:{network}", "false"):
            problems.append(f"{key}: method/scope/filled_forward {row['method']}/{row['scope']}/{row['filled_forward']}")
        if len(problems) > 20:
            return problems
    for activity in ("holding", "transaction"):
        want = _expected_summary(expected, activity)
        got = (summary or {}).get(activity) or {}
        for field, value in want.items():
            if got.get(field) != value:
                problems.append(f"summary.{activity}.{field}: got {got.get(field)!r}, expected {value!r}")
    return problems


def allocation_from_json(text: str) -> tuple[list[dict], dict]:
    document = json.loads(text)
    rows = []
    for entry in document["results"]:
        row = {k: ("" if v is None else v) for k, v in entry.items()}
        row["filled_forward"] = "true" if entry["filled_forward"] else "false"
        rows.append(row)
    return rows, document["summary"]


def allocation_from_csv(text: str, summary_text: str) -> tuple[list[dict], dict]:
    return list(csv.DictReader(io.StringIO(text))), json.loads(summary_text)


def check_series(text: str, days: list[dict]) -> list[str]:
    document = json.loads(text)
    series = document.get("series", [])
    if len(series) != len(days):
        return [f"{len(series)} series points for {len(days)} days"]
    problems = []
    for point, day in zip(series, days):
        want = {"date": day["date"], "transaction_weight": sig(_frac(day["pos_tx_share"]))}
        if point != want:
            problems.append(f"series point {point!r}, expected {want!r}")
            if len(problems) > 20:
                break
    return problems


VALIDATE_OK = json.dumps({"ok": True, "issues": []}, indent=2, sort_keys=True) + "\n"


def check_validate(text: str) -> list[str]:
    return [] if text == VALIDATE_OK else [f"validate did not report ok: {text[:200]!r}"]
