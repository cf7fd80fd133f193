"""Shared builders for synthetic datasets used across the suite.

The constant reference datasets are reconstructed from published annual
figures: daily energy is the annual consumption divided over the days, the
reward/fee columns are chosen so the weight ratios are exact, and supply and
transaction counts are back-computed by plain division so the pure-method
cells land on the published per-coin and per-transaction values.
"""

from __future__ import annotations

import datetime as dt
import json
import random
from fractions import Fraction

import pytest

from carbon_ledger import (
    CoinAmount,
    Consensus,
    ConsensusParams,
    Energy,
    NetworkDay,
    Share,
)
from carbon_ledger.ingestion import NETWORK_CSV_COLUMNS

POW = ConsensusParams(Consensus.POW)
POS = ConsensusParams(Consensus.POS)

# Bitcoin 2021: 103.57 TWh over 365 days; fee share exactly 601/10000.
BTC_ENERGY_WH = "283753424657.534247"
BTC_SUPPLY = "18716000"
BTC_REWARD = "939.9"
BTC_FEES = "60.1"
BTC_TX_COUNT = 263260

# Ethereum (PoW) 2021: 15.59 TWh over 365 days; fee share exactly 266/1000.
ETH_ENERGY_WH = "42712328767.123288"
ETH_SUPPLY = "115440000"
ETH_REWARD = "14680"
ETH_FEES = "5320"
ETH_TX_COUNT = 1257350

# Ethereum (PoS) Q4 2022: 2.28 GWh annualized; marginal share exactly 22/1000.
POS_ENERGY_WH = "6246575.342466"
POS_SUPPLY = "102400000"
POS_TX_SHARE = "0.022"
POS_TX_COUNT = 742755


def frac(token) -> Fraction:
    return Fraction(str(token))


def pow_day(
    date: dt.date = dt.date(2021, 1, 1),
    energy: str = BTC_ENERGY_WH,
    supply: str = BTC_SUPPLY,
    reward: str = BTC_REWARD,
    fees: str = BTC_FEES,
    tx_count: int = BTC_TX_COUNT,
    lost: str = "0",
    gas: str | None = None,
    emission_factor: str | None = None,
) -> NetworkDay:
    return NetworkDay(
        date=date,
        energy=Energy.of(energy),
        coin_supply=CoinAmount(frac(supply)),
        tx_count=tx_count,
        block_reward=CoinAmount(frac(reward)),
        tx_fees_total=CoinAmount(frac(fees)),
        lost_coin_fraction=Share(frac(lost)),
        gas_total=frac(gas) if gas is not None else None,
        emission_factor=frac(emission_factor) if emission_factor is not None else None,
    )


def pos_day(
    date: dt.date = dt.date(2022, 10, 1),
    energy: str = POS_ENERGY_WH,
    supply: str = POS_SUPPLY,
    tx_share: str = POS_TX_SHARE,
    tx_count: int = POS_TX_COUNT,
    gas: str | None = None,
    fees: str | None = None,
    emission_factor: str | None = None,
) -> NetworkDay:
    return NetworkDay(
        date=date,
        energy=Energy.of(energy),
        coin_supply=CoinAmount(frac(supply)),
        tx_count=tx_count,
        tx_fees_total=CoinAmount(frac(fees)) if fees is not None else None,
        gas_total=frac(gas) if gas is not None else None,
        pos_tx_share=Share(frac(tx_share)),
        emission_factor=frac(emission_factor) if emission_factor is not None else None,
    )


def constant_days(template_day: NetworkDay, count: int) -> list[NetworkDay]:
    """The same telemetry repeated over consecutive dates starting at the template's."""
    import dataclasses

    return [
        dataclasses.replace(template_day, date=template_day.date + dt.timedelta(days=i))
        for i in range(count)
    ]


def bitcoin_2021_days() -> list[NetworkDay]:
    return constant_days(pow_day(date=dt.date(2021, 1, 1)), 365)


def ethereum_pow_2021_days() -> list[NetworkDay]:
    return constant_days(
        pow_day(
            date=dt.date(2021, 1, 1),
            energy=ETH_ENERGY_WH,
            supply=ETH_SUPPLY,
            reward=ETH_REWARD,
            fees=ETH_FEES,
            tx_count=ETH_TX_COUNT,
        ),
        365,
    )


def ethereum_pos_q4_days() -> list[NetworkDay]:
    return constant_days(pos_day(date=dt.date(2022, 10, 1)), 92)


def partition_int(total: int, parts: int, rng: random.Random) -> list[int]:
    """Random non-negative integer parts summing exactly to total."""
    if parts == 1:
        return [total]
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    previous = 0
    out = []
    for cut in cuts:
        out.append(cut - previous)
        previous = cut
    out.append(total - previous)
    return out


def partition_fraction(total: Fraction, parts: int, rng: random.Random) -> list[Fraction]:
    """Random non-negative fractional parts summing exactly to total."""
    if total == 0:
        return [Fraction(0)] * parts
    scale = 10**6
    units = partition_int(scale, parts, rng)
    return [total * Fraction(u, scale) for u in units]


def random_pow_day(rng: random.Random, date: dt.date, lost_tenths: int = 0) -> NetworkDay:
    # fee share spans [0, 1]: either component may be zero, never both
    fees = Fraction(rng.randint(0, 10**6), 100)
    reward = Fraction(rng.randint(0, 10**6), 100)
    if fees == 0 and reward == 0:
        reward = Fraction(1)
    return NetworkDay(
        date=date,
        energy=Energy(Fraction(rng.randint(1, 10**12), 10 ** rng.randint(0, 3))),
        coin_supply=CoinAmount(Fraction(rng.randint(1, 10**9))),
        tx_count=rng.randint(1, 10**6),
        block_reward=CoinAmount(reward),
        tx_fees_total=CoinAmount(fees),
        lost_coin_fraction=Share(Fraction(lost_tenths, 10)),
        gas_total=Fraction(rng.randint(0, 10**9)) if rng.random() < 0.5 else None,
    )


def random_pos_day(rng: random.Random, date: dt.date) -> NetworkDay:
    return NetworkDay(
        date=date,
        energy=Energy(Fraction(rng.randint(1, 10**9), 10 ** rng.randint(0, 3))),
        coin_supply=CoinAmount(Fraction(rng.randint(1, 10**9))),
        tx_count=rng.randint(1, 10**6),
        pos_tx_share=Share(Fraction(rng.randint(0, 10**6), 10**6)),
        gas_total=Fraction(rng.randint(1, 10**9)) if rng.random() < 0.5 else None,
    )


@pytest.fixture
def btc_day() -> NetworkDay:
    return pow_day()


@pytest.fixture
def eth_pos_day() -> NetworkDay:
    return pos_day()


# Realistic-precision CSV/JSON inputs for CLI tests: 6 fractional digits on
# energy, shares and emission factors, 8 on coin quantities; supply,
# lost-coin fraction and emission factor change every day.


def decimal_token(rng: random.Random, low: int | str, high: int | str, places: int) -> str:
    """Uniform decimal in [low, high) with exactly ``places`` fractional digits."""
    scale = 10**places
    units = rng.randrange(int(Fraction(str(low)) * scale), int(Fraction(str(high)) * scale))
    whole, fraction = divmod(units, scale)
    return f"{whole}.{fraction:0{places}d}"


def realistic_days_csv(rng: random.Random, kind: str, start: dt.date, count: int) -> str:
    """Network-day CSV text: bitcoin-like for ``pow``, ethereum-like for ``pos``."""
    lines = [",".join(NETWORK_CSV_COLUMNS)]
    for index in range(count):
        date = (start + dt.timedelta(days=index)).isoformat()
        factor = decimal_token(rng, 400, 600, 6)
        if kind == "pow":
            supply = decimal_token(rng, 18_600_000 + 900 * index, 18_600_900 + 900 * index, 8)
            cells = [
                date,
                decimal_token(rng, 680_000_000_000, 1_100_000_000_000, 6),
                decimal_token(rng, 812, 1000, 8),
                decimal_token(rng, 10, 200, 8),
                supply,
                decimal_token(rng, "0.15", "0.25", 6),
                str(rng.randrange(180_000, 400_000)),
                "",
                "",
                factor,
            ]
        else:
            cells = [
                date,
                decimal_token(rng, 6_500_000, 7_500_000, 6),
                "",
                decimal_token(rng, 1000, 5000, 8),
                decimal_token(rng, 120_000_000, 120_100_000, 8),
                decimal_token(rng, "0.01", "0.05", 6),
                str(rng.randrange(900_000, 1_300_000)),
                str(rng.randrange(90_000_000_000, 120_000_000_000)),
                decimal_token(rng, "0.01", "0.2", 6),
                factor,
            ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def realistic_portfolio_json(
    rng: random.Random, kind: str, network: str, start: dt.date, count: int, entities: int
) -> str:
    """One holding and one transaction per entity per day."""
    holdings = []
    transactions = []
    for index in range(count):
        date = (start + dt.timedelta(days=index)).isoformat()
        for entity in range(entities):
            entity_id = f"entity-{entity:02d}"
            holdings.append(
                {"entity_id": entity_id, "date": date, "amount": decimal_token(rng, "0.001", 5000, 8)}
            )
            tx = {
                "entity_id": entity_id,
                "date": date,
                "tx_count": rng.randrange(1, 50),
                "fee_paid": decimal_token(rng, "0.00001", "0.5", 8),
            }
            if kind == "pos":
                tx["gas_used"] = str(rng.randrange(21_000, 5_000_000))
            transactions.append(tx)
    return json.dumps(
        {
            "schema_version": "1",
            "network_id": network,
            "holdings": holdings,
            "transactions": transactions,
        }
    )
