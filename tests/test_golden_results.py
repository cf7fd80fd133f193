"""Golden output bytes for app, token and layer-2 results.

``tests/test_golden.py`` pins the CLI's network-level output; this module
pins ``report.results_to_csv`` over the library's app and layer-2 paths on a
seeded realistic-precision fixture (6-decimal energy, shares and emission
factors, 8-decimal coin quantities). A change that alters any rendered byte
of those results fails here.
"""

import datetime as dt
import hashlib
import random

import pytest

from carbon_ledger import (
    AppDay,
    CoinAmount,
    Energy,
    Layer2Day,
    Method,
    Share,
    TokenHolding,
    allocate_app_hybrid,
    allocate_app_transaction,
    allocate_token_holding,
    allocate_within_l2,
    l2_total_footprint,
    method_weights,
)
from carbon_ledger.ingestion import parse_network_csv, parse_portfolio_json
from carbon_ledger.report import results_to_csv
from conftest import POS, POW, decimal_token, realistic_days_csv, realistic_portfolio_json

START = dt.date(2021, 6, 1)
DAYS = 4
ENTITIES = 4

GOLDEN_SHA256 = {
    "app_hybrid_token": "4d27c951cb1337d6b464e2a7eeb58cc23b43127b0943853273973a94e4e90e90",
    "app_hybrid_no_token": "7f36278547e5fa07311a557b9b4bc2cbca5cf604bf949be4e64321572a2d8814",
    "app_transaction": "3670f6b63777c12110b54a7fb84644e46cf715916810925b68314dd53763a936",
    "token_holding": "16f67c117b8231d4c9cd702dd1d836654ae9ceacd273675c0ccdd5745a48c40a",
    "l2_pow": "4315e2d7895b6d28996c594ebb61f318dc5d2d8cdb3a2f1d5f3af30a7e3a8c21",
    "l2_pos": "7f362a3bb22ced7c5cf7726db84a252f4e2ebabbb0057ed5d7f53a6bbeec7004",
}


def _fixture(seed: int, kind: str):
    rng = random.Random(seed)
    params = POW if kind == "pow" else POS
    days = parse_network_csv(realistic_days_csv(rng, kind, START, DAYS), "days.csv", "net", params).days
    portfolio = parse_portfolio_json(
        realistic_portfolio_json(rng, kind, "net", START, DAYS, ENTITIES), "portfolio.json"
    )
    return rng, params, days, portfolio


def _apps(rng: random.Random, date: dt.date) -> tuple[AppDay, AppDay]:
    token = AppDay(
        "dex",
        date,
        Share(decimal_token(rng, "0.2", "0.4", 6)),
        rng.randrange(1000, 5000),
        CoinAmount(decimal_token(rng, 1_000_000, 2_000_000, 8)),
    )
    no_token = AppDay("bridge", date, Share(decimal_token(rng, "0.1", "0.2", 6)), rng.randrange(100, 900))
    return token, no_token


def _app_results(kind: str) -> dict[str, list]:
    rng, params, days, portfolio = _fixture(40 + (kind == "pos"), kind)
    out = {"app_hybrid_token": [], "app_hybrid_no_token": [], "app_transaction": [], "token_holding": []}
    for day in days:
        weights = method_weights(day, params)
        token_app, no_token_app = _apps(rng, day.date)
        txs = tuple(tx for tx in portfolio.transactions if tx.date == day.date)
        holders = [
            TokenHolding(f"entity-{i:02d}", "dex", day.date, CoinAmount(decimal_token(rng, 1, 50_000, 8)))
            for i in range(ENTITIES)
        ]
        for holder in holders:
            out["app_hybrid_token"] += allocate_app_hybrid(day, weights, token_app, holder, txs, params)
            out["token_holding"].append(allocate_token_holding(day, weights, token_app, holder))
        out["app_hybrid_no_token"] += allocate_app_hybrid(day, weights, no_token_app, None, txs, params)
        for app in (token_app, no_token_app):
            out["app_transaction"] += [
                allocate_app_transaction(day, weights, app, tx, params) for tx in txs
            ]
    return out


def _l2_results(kind: str) -> list:
    """A layer 2 with ``kind`` internal telemetry on a PoW layer 1, under every method."""
    rng, l1_params, l1_days, _ = _fixture(50, "pow")
    _, l2_params, internal_days, portfolio = _fixture(60 + (kind == "pos"), kind)
    results = []
    for l1_day, internal in zip(l1_days, internal_days):
        l2 = Layer2Day(
            "rollup",
            l1_day.date,
            Share(decimal_token(rng, "0.05", "0.3", 6)),
            Energy(decimal_token(rng, 10_000, 90_000, 6)),
            internal,
        )
        total = l2_total_footprint(l1_day, method_weights(l1_day, l1_params), l2)
        for method in Method:
            results += allocate_within_l2(total, l2, l2_params, portfolio, method, ("network:l1",))
    return results


@pytest.fixture(scope="module")
def rendered() -> dict[str, bytes]:
    results = {**_app_results("pow")}
    for name, value in _app_results("pos").items():
        results[name] += value
    results["l2_pow"] = _l2_results("pow")
    results["l2_pos"] = _l2_results("pos")
    return {name: results_to_csv(value, sig_digits=9).encode() for name, value in results.items()}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_result_bytes_match_golden_hash(rendered, name):
    assert hashlib.sha256(rendered[name]).hexdigest() == GOLDEN_SHA256[name]
