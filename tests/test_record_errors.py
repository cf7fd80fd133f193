"""The record types raise ``RowProblem`` themselves, naming the input column that breaks their rule.

``RowProblem`` is the package's one error for a record that breaks a rule.
It is both a ``CarbonLedgerError`` and a ``ValueError``, so a caller catching
either sees it, and ingestion reports it as the row's issue with no re-check
of its own.
"""

import dataclasses
import datetime as dt
from fractions import Fraction

import pytest

import carbon_ledger
from carbon_ledger import (
    AppDay,
    CarbonLedgerError,
    CoinAmount,
    Consensus,
    ConsensusParams,
    DatasetInvalid,
    Layer2Day,
    RowProblem,
    Share,
    TransactionRecord,
    ingestion,
)
from carbon_ledger.errors import RowProblem as errors_row_problem
from conftest import pow_day

DATE = dt.date(2021, 1, 1)
DAY = pow_day(date=DATE)
NO_TX = "must be 0 on a day with no transactions"


def _app(**changes):
    fields = {"app_id": "dex", "date": DATE, "app_fee_share": Share(Fraction(1, 2)), "app_tx_count": 3}
    return AppDay(**{**fields, **changes})


CHECKS = {
    "day-supply": (lambda: dataclasses.replace(DAY, coin_supply=CoinAmount(0)), "coin_supply", "must be > 0"),
    "day-count": (lambda: dataclasses.replace(DAY, tx_count=-1), "tx_count", "must be >= 0"),
    "day-gas": (lambda: dataclasses.replace(DAY, gas_total=Fraction(-1)), "gas_total", "must be >= 0"),
    "day-factor": (
        lambda: dataclasses.replace(DAY, emission_factor=Fraction(-1)),
        "emission_factor_g_per_kwh",
        "must be >= 0",
    ),
    "day-lost": (
        lambda: dataclasses.replace(DAY, lost_coin_fraction=Share(1)), "lost_coin_fraction", "must be < 1"
    ),
    "day-fees-no-tx": (lambda: dataclasses.replace(DAY, tx_count=0), "tx_fees_total", NO_TX),
    "day-gas-no-tx": (
        lambda: dataclasses.replace(DAY, tx_count=0, tx_fees_total=CoinAmount(0), gas_total=Fraction(5)),
        "gas_total",
        NO_TX,
    ),
    "tx-no-basis": (
        lambda: TransactionRecord("a", DATE), None, "at least one of fee_paid, gas_used, tx_count required"
    ),
    "tx-gas": (lambda: TransactionRecord("a", DATE, gas_used=Fraction(-1)), "gas_used", "must be >= 0"),
    "tx-count": (lambda: TransactionRecord("a", DATE, tx_count=0), "tx_count", "must be a positive count"),
    "app-count": (lambda: _app(app_tx_count=-1), "app_tx_count", "must be >= 0"),
    "app-supply": (lambda: _app(token_supply=CoinAmount(0)), "token_supply", "must be > 0 when present"),
    "l2-date": (
        lambda: Layer2Day("rollup", dt.date(2021, 1, 2), Share(0), DAY.energy, DAY),
        "internal_day",
        "internal day date must match entry date",
    ),
}


@pytest.mark.parametrize("name", CHECKS)
def test_each_record_rule_raises_row_problem_with_its_column(name):
    build, column, reason = CHECKS[name]
    with pytest.raises(RowProblem) as excinfo:
        build()
    problem = excinfo.value
    assert (problem.column, problem.reason, problem.code) == (column, reason, "row_invalid")
    assert isinstance(problem, CarbonLedgerError) and isinstance(problem, ValueError)
    assert str(problem) == (reason if column is None else f"{column}: {reason}")


def test_row_problem_is_one_class_exported_everywhere():
    assert RowProblem is errors_row_problem is ingestion.RowProblem is carbon_ledger.RowProblem
    assert "RowProblem" in carbon_ledger.__all__
    duplicate = RowProblem("date", "duplicate date 2021-01-01", "duplicate_date")
    assert str(duplicate) == "date: duplicate date 2021-01-01"


@pytest.mark.parametrize(
    "row, column",
    [
        ("2021-01-01,1000,6,1,100,,0,,,", "tx_fees_total"),
        ("2021-01-01,1000,6,0,100,,0,5,,", "gas_total"),
    ],
)
def test_a_zero_transaction_day_is_reported_from_the_constructor(row, column):
    text = ",".join(ingestion.NETWORK_CSV_COLUMNS) + "\n" + row + "\n"
    with pytest.raises(DatasetInvalid) as excinfo:
        ingestion.parse_network_csv(text, "d.csv", "btc", ConsensusParams(Consensus.POW))
    (issue,) = excinfo.value.issues
    assert (issue.row, issue.column, issue.reason, issue.code) == (1, column, NO_TX, "row_invalid")
