"""Seeded input generator with realistic per-day precision.

Precision sets the size of the engine's rationals, so it is fixed per
column and never lowered to make a workload pass:

- energy and emission factors carry 6 fractional digits;
- coin quantities (block reward, fees, supply, holdings, fee paid) carry 8;
- shares (lost-coin fraction, PoS transaction share, app/L2 fee shares)
  carry 6;
- supply, lost-coin fraction and emission factor change every day.

Every value is drawn from ``random.Random(seed)`` and written as a decimal
string, so the same seed always yields the same bytes.
"""

from __future__ import annotations

import datetime as dt
import json
import random

ENERGY_PLACES = 6
COIN_PLACES = 8
SHARE_PLACES = 6

CSV_COLUMNS = (
    "date",
    "energy_wh",
    "block_reward",
    "tx_fees_total",
    "coin_supply",
    "lost_coin_fraction",
    "tx_count",
    "gas_total",
    "pos_tx_share",
    "emission_factor_g_per_kwh",
)


def dec(rng: random.Random, low: float, high: float, places: int) -> str:
    """Uniform decimal in [low, high) with exactly ``places`` fractional digits."""
    scale = 10**places
    units = rng.randrange(int(low * scale), int(high * scale))
    whole, frac = divmod(units, scale)
    return f"{whole}.{frac:0{places}d}"


def day_range(start: dt.date, count: int) -> list[dt.date]:
    return [start + dt.timedelta(days=i) for i in range(count)]


def network_days(rng: random.Random, kind: str, dates: list[dt.date]) -> list[dict]:
    """One telemetry row per date; PoW is bitcoin-like, PoS ethereum-like."""
    days = []
    for index, date in enumerate(dates):
        if kind == "pow":
            row = {
                "energy_wh": dec(rng, 6.8e11, 1.1e12, ENERGY_PLACES),
                "block_reward": dec(rng, 812.5, 1000, COIN_PLACES),
                "tx_fees_total": dec(rng, 10, 200, COIN_PLACES),
                "coin_supply": dec(rng, 18.6e6 + 900 * index, 18.6e6 + 900 * index + 900, COIN_PLACES),
                "lost_coin_fraction": dec(rng, 0.15, 0.25, SHARE_PLACES),
                "tx_count": rng.randrange(180_000, 400_000),
            }
        else:
            row = {
                "energy_wh": dec(rng, 6.5e6, 7.5e6, ENERGY_PLACES),
                "tx_fees_total": dec(rng, 1000, 5000, COIN_PLACES),
                "coin_supply": dec(rng, 120e6, 120.1e6, COIN_PLACES),
                "lost_coin_fraction": dec(rng, 0.01, 0.05, SHARE_PLACES),
                "tx_count": rng.randrange(900_000, 1_300_000),
                "gas_total": str(rng.randrange(90_000_000_000, 120_000_000_000)),
                "pos_tx_share": dec(rng, 0.01, 0.2, SHARE_PLACES),
            }
        row["date"] = date.isoformat()
        row["emission_factor_g_per_kwh"] = dec(rng, 400, 600, ENERGY_PLACES)
        days.append(row)
    return days


def days_csv(days: list[dict]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for day in days:
        lines.append(",".join(str(day.get(column, "")) for column in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def days_document(days: list[dict]) -> bytes:
    """The remote index response body for ``days``."""
    return json.dumps({"schema_version": "1", "days": days}).encode()


def entity_ids(count: int) -> list[str]:
    return [f"entity-{i:04d}" for i in range(count)]


def portfolio(rng: random.Random, kind: str, network: str, dates: list[dt.date], entities: int) -> dict:
    """One holding and one transaction per entity per day."""
    holdings = []
    transactions = []
    for date in dates:
        iso = date.isoformat()
        for entity in entity_ids(entities):
            holdings.append(
                {"entity_id": entity, "date": iso, "amount": dec(rng, 0.001, 5000, COIN_PLACES)}
            )
            tx = {"entity_id": entity, "date": iso, "tx_count": rng.randrange(1, 50)}
            if kind == "pow":
                tx["fee_paid"] = dec(rng, 0.00001, 0.01, COIN_PLACES)
            else:
                tx["fee_paid"] = dec(rng, 0.0001, 0.5, COIN_PLACES)
                tx["gas_used"] = str(rng.randrange(21_000, 5_000_000))
            transactions.append(tx)
    return {
        "schema_version": "1",
        "network_id": network,
        "holdings": holdings,
        "transactions": transactions,
    }


def apps(rng: random.Random, dates: list[dt.date], app_count: int, holders: int) -> dict:
    """Token apps whose fee shares sum below 1 per day, with token holdings."""
    app_days = []
    token_holdings = []
    for date in dates:
        iso = date.isoformat()
        for a in range(app_count):
            app_id = f"app-{a:02d}"
            supply = dec(rng, 1e6, 1e9, COIN_PLACES)
            app_days.append(
                {
                    "app_id": app_id,
                    "date": iso,
                    "app_fee_share": dec(rng, 0.01, 0.9 / app_count, SHARE_PLACES),
                    "token_supply": supply,
                    "app_tx_count": rng.randrange(100, 50_000),
                }
            )
            for entity in entity_ids(holders):
                token_holdings.append(
                    {"entity_id": entity, "app_id": app_id, "date": iso,
                     "amount": dec(rng, 0.001, 1e5, COIN_PLACES)}
                )
    return {"schema_version": "1", "apps": app_days, "token_holdings": token_holdings}


def layer2s(rng: random.Random, dates: list[dt.date], l2_count: int) -> dict:
    """PoS layer-2 descriptors anchored to every host day."""
    entries = []
    for date in dates:
        iso = date.isoformat()
        for n in range(l2_count):
            tx_count = rng.randrange(10_000, 2_000_000)
            entries.append(
                {
                    "l2_id": f"l2-{n:02d}",
                    "date": iso,
                    "consensus": "pos",
                    "l1_fee_share": dec(rng, 0.001, 0.2, SHARE_PLACES),
                    "infra_energy_wh": dec(rng, 1e4, 1e6, ENERGY_PLACES),
                    "internal_day": {
                        "date": iso,
                        "energy_wh": "0",
                        "coin_supply": dec(rng, 1e9, 1e10, COIN_PLACES),
                        "tx_count": tx_count,
                        "pos_tx_share": dec(rng, 0.01, 0.3, SHARE_PLACES),
                    },
                }
            )
    return {"schema_version": "1", "l2s": entries}
