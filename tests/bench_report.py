"""Micro-benchmarks for the result emitters.

Not collected by the default test run (the file name does not match
``test_*.py``); run explicitly:

    pytest tests/bench_report.py

Input: a 60-day x 60-entity PoS portfolio from the shared realistic-precision
generators in ``conftest``, allocated under the hybrid method (7,200
results), rendered with carbon at the default six significant digits.
"""

import datetime as dt
import random

from carbon_ledger import Method, engine, report
from carbon_ledger.ingestion import parse_network_csv, parse_portfolio_json
from conftest import POS, realistic_days_csv, realistic_portfolio_json

START = dt.date(2021, 1, 1)


def _allocation():
    rng = random.Random(7)
    dataset = parse_network_csv(realistic_days_csv(rng, "pos", START, 60), "days.csv", "net", POS)
    portfolio = parse_portfolio_json(
        realistic_portfolio_json(rng, "pos", "net", START, 60, 60), "portfolio.json"
    )
    return engine.allocate_portfolio(dataset.days, POS, portfolio, Method.HYBRID)


WIDE = _allocation()


def test_allocation_to_json_wide(benchmark):
    text = benchmark(report.allocation_to_json, "net", WIDE, 6, True)
    assert text.count('"entity_id"') == 7200


def test_results_to_csv_wide(benchmark):
    text = benchmark(report.results_to_csv, WIDE.results, 6, True)
    assert text.count("\n") == 7201
