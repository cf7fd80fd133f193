"""Micro-benchmarks for ingestion: the portfolio parse, the days CSV and the join.

Not collected by the default test run (the file name does not match
``test_*.py``); run explicitly:

    pytest tests/bench_ingestion.py

Inputs come from the shared realistic-precision generators in ``conftest``:
a 365-day PoW year of network days and a portfolio of 100 entities with one
holding and one transaction each a day (73,000 records), the shape of the
``validate-bundle`` benchmark workload.
"""

import datetime as dt
import random

from carbon_ledger.ingestion import join_issues, parse_network_csv, parse_portfolio_json
from conftest import POW, realistic_days_csv, realistic_portfolio_json

START = dt.date(2021, 1, 1)
DAYS, ENTITIES = 365, 100

_rng = random.Random(5)
DAYS_CSV = realistic_days_csv(_rng, "pow", START, DAYS)
PORTFOLIO_JSON = realistic_portfolio_json(_rng, "pow", "bitcoin", START, DAYS, ENTITIES)


def test_parse_portfolio_json_pow_year(benchmark):
    portfolio = benchmark(parse_portfolio_json, PORTFOLIO_JSON, "portfolio.json")
    assert len(portfolio.holdings) == len(portfolio.transactions) == DAYS * ENTITIES


def test_parse_network_csv_pow_year(benchmark):
    dataset = benchmark(parse_network_csv, DAYS_CSV, "days.csv", "bitcoin", POW)
    assert len(dataset.days) == DAYS


def test_join_issues_pow_year(benchmark):
    dataset = parse_network_csv(DAYS_CSV, "days.csv", "bitcoin", POW)
    portfolio = parse_portfolio_json(PORTFOLIO_JSON, "portfolio.json")
    assert benchmark(join_issues, dataset, portfolio) == []
