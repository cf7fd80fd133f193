"""Micro-benchmarks for the result emitters.

Not collected by the default test run (the file name does not match
``test_*.py``); run explicitly:

    pytest tests/bench_report.py

Inputs come from the shared realistic-precision generators in ``conftest``,
allocated under the hybrid method and rendered with carbon at the default six
significant digits: a 60-day x 60-entity PoS portfolio (7,200 results), as
JSON and as CSV, and a 365-day x 8-entity PoW year (5,840 results, two pools
a day) as CSV.
"""

import datetime as dt
import random

from carbon_ledger import Method, engine, report
from carbon_ledger.ingestion import parse_network_csv, parse_portfolio_json
from conftest import POS, POW, realistic_days_csv, realistic_portfolio_json

START = dt.date(2021, 1, 1)


def _allocation(kind: str, days: int, entities: int, seed: int):
    rng = random.Random(seed)
    params = POW if kind == "pow" else POS
    dataset = parse_network_csv(realistic_days_csv(rng, kind, START, days), "days.csv", "net", params)
    portfolio = parse_portfolio_json(
        realistic_portfolio_json(rng, kind, "net", START, days, entities), "portfolio.json"
    )
    return engine.allocate_portfolio(dataset.days, params, portfolio, Method.HYBRID)


WIDE = _allocation("pos", 60, 60, seed=7)
YEAR = _allocation("pow", 365, 8, seed=3)


def test_allocation_to_json_wide(benchmark):
    text = benchmark(report.allocation_to_json, "net", WIDE, 6, True)
    assert text.count('"entity_id"') == 7200


def test_results_to_csv_wide(benchmark):
    text = benchmark(report.results_to_csv, WIDE.results, 6, True)
    assert text.count("\n") == 7201


def test_results_to_csv_pow_year(benchmark):
    text = benchmark(report.results_to_csv, YEAR.results, 6, True)
    assert text.count("\n") == len(YEAR.results) + 1 == 5841
    assert ",," not in text  # every day has an emission factor, so every carbon cell is filled
