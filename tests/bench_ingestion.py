"""Micro-benchmarks for ingestion: the portfolio parse, the days CSV and the join.

Not collected by the default test run (the file name does not match
``test_*.py``); run explicitly:

    pytest tests/bench_ingestion.py

Inputs come from the shared realistic-precision generators in ``conftest``:
a 365-day PoW year of network days and a portfolio of 100 entities with one
holding and one transaction each a day (73,000 records), the shape of the
``validate-bundle`` benchmark workload, and that workload's app file: 2 token
apps with 10 holders each, every day of the year.
"""

import datetime as dt
import json
import random

from carbon_ledger.ingestion import join_issues, parse_apps_json, parse_network_csv, parse_portfolio_json
from conftest import POW, decimal_token, realistic_days_csv, realistic_portfolio_json

START = dt.date(2021, 1, 1)
DAYS, ENTITIES = 365, 100

_rng = random.Random(5)
DAYS_CSV = realistic_days_csv(_rng, "pow", START, DAYS)
PORTFOLIO_JSON = realistic_portfolio_json(_rng, "pow", "bitcoin", START, DAYS, ENTITIES)
APPS, HOLDERS = 2, 10


def _apps_json(rng: random.Random) -> str:
    """Token apps with 8-place supplies and holdings, 6-place fee shares summing below 1 a day."""
    apps, token_holdings = [], []
    for index in range(DAYS):
        date = (START + dt.timedelta(days=index)).isoformat()
        for app in range(APPS):
            app_id = f"app-{app:02d}"
            apps.append({
                "app_id": app_id, "date": date, "app_fee_share": decimal_token(rng, "0.01", "0.45", 6),
                "token_supply": decimal_token(rng, 10**6, 10**9, 8), "app_tx_count": rng.randrange(100, 50_000),
            })
            token_holdings += [
                {"entity_id": f"entity-{holder:02d}", "app_id": app_id, "date": date,
                 "amount": decimal_token(rng, "0.001", 10**5, 8)}
                for holder in range(HOLDERS)
            ]
    return json.dumps({"schema_version": "1", "apps": apps, "token_holdings": token_holdings})


APPS_JSON = _apps_json(_rng)


def test_parse_portfolio_json_pow_year(benchmark):
    portfolio = benchmark(parse_portfolio_json, PORTFOLIO_JSON, "portfolio.json")
    assert len(portfolio.holdings) == len(portfolio.transactions) == DAYS * ENTITIES


def test_parse_apps_json_token_holdings(benchmark):
    bundle = benchmark(parse_apps_json, APPS_JSON, "apps.json")
    assert len(bundle.apps) == DAYS * APPS and len(bundle.token_holdings) == DAYS * APPS * HOLDERS


def test_parse_network_csv_pow_year(benchmark):
    dataset = benchmark(parse_network_csv, DAYS_CSV, "days.csv", "bitcoin", POW)
    assert len(dataset.days) == DAYS


def test_join_issues_pow_year(benchmark):
    dataset = parse_network_csv(DAYS_CSV, "days.csv", "bitcoin", POW)
    portfolio = parse_portfolio_json(PORTFOLIO_JSON, "portfolio.json")
    assert benchmark(join_issues, dataset, portfolio) == []
