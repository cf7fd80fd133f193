"""Micro-benchmarks for the allocation core and the decimal parser.

Not collected by the default test run (the file name does not match
``test_*.py``); run explicitly:

    pytest tests/bench_engine.py

Inputs come from the shared realistic-precision generators in ``conftest``:
a 60-day x 60-entity PoS portfolio allocated under the hybrid method (7,200
results), alone and together with rendering its JSON document, and a
365-day x 8-entity PoW year whose period summary is timed on its own, from
the year's results.
"""

import datetime as dt
import random

import pytest

from carbon_ledger import Method, engine, report
from carbon_ledger.ingestion import parse_network_csv, parse_portfolio_json
from carbon_ledger.numeric import parse_decimal
from conftest import POS, POW, decimal_token, realistic_days_csv, realistic_portfolio_json

START = dt.date(2021, 1, 1)


def _inputs(kind: str, days: int, entities: int, seed: int):
    rng = random.Random(seed)
    params = POW if kind == "pow" else POS
    dataset = parse_network_csv(realistic_days_csv(rng, kind, START, days), "days.csv", "net", params)
    portfolio = parse_portfolio_json(
        realistic_portfolio_json(rng, kind, "net", START, days, entities), "portfolio.json"
    )
    return dataset.days, params, portfolio


WIDE = _inputs("pos", 60, 60, seed=7)
YEAR = _inputs("pow", 365, 8, seed=3)
_rng = random.Random(11)
TOKENS = [decimal_token(_rng, "0.001", 5000, 8) for _ in range(1000)]


def test_allocate_portfolio_wide_pos_hybrid(benchmark):
    days, params, portfolio = WIDE
    allocation = benchmark(engine.allocate_portfolio, days, params, portfolio, Method.HYBRID)
    assert len(allocation.results) == 7200


def test_allocate_and_render_json_wide_pos_hybrid(benchmark):
    days, params, portfolio = WIDE

    def allocate_and_render():
        allocation = engine.allocate_portfolio(days, params, portfolio, Method.HYBRID)
        return report.allocation_to_json("net", allocation)

    document = benchmark(allocate_and_render)
    assert document.count('"entity_id"') == 7200


def test_period_summary_pow_year(benchmark):
    days, params, portfolio = YEAR
    results = engine.allocate_portfolio(days, params, portfolio, Method.HYBRID).results
    summary = benchmark(engine.summarize, Method.HYBRID, results)
    assert summary.holding.days_covered == summary.transaction.days_covered == 365


def test_parse_decimal(benchmark):
    def parse_all():
        for token in TOKENS:
            parse_decimal(token)

    benchmark(parse_all)
