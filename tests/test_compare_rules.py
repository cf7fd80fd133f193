"""The comparison's averaging rules, pinned through the command line.

A carbon cell is empty unless every day it averages has an emission factor;
the transaction cells average over the days that report transactions, and
are empty ('-' in the text table) when none does.
"""

import pytest
from click.testing import CliRunner

from carbon_ledger.cli import main
from carbon_ledger.ingestion import NETWORK_CSV_COLUMNS

HEADER = ",".join(NETWORK_CSV_COLUMNS)
NETWORK = ["--network", "btc", "--consensus", "pow"]


@pytest.fixture
def runner():
    return CliRunner()


def compare(runner, tmp_path, rows, *options):
    days = tmp_path / "d.csv"
    days.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
    result = runner.invoke(main, ["compare", "--days", str(days), *NETWORK, *options])
    assert result.exit_code == 0, result.output
    return result.output


def csv_cells(output: str) -> dict[str, str]:
    header, row = output.splitlines()
    return dict(zip(header.split(","), row.split(",")))


# date, energy_wh, block_reward, tx_fees_total, coin_supply, lost_coin_fraction, tx_count, gas_total,
# pos_tx_share, emission_factor_g_per_kwh
def test_a_day_without_emission_factor_empties_every_carbon_cell(runner, tmp_path):
    rows = ["2021-01-01,1000,6,1,100,,10,,,400", "2021-01-02,1000,6,1,100,,10,,,"]
    cells = csv_cells(compare(runner, tmp_path, rows, "--format", "csv", "--carbon"))
    carbon = {name: value for name, value in cells.items() if name.endswith("_g")}
    assert len(carbon) == 6
    assert set(carbon.values()) == {""}
    assert cells["holding_based_holding_kwh"] == "0.01"


def test_every_day_with_emission_factor_fills_the_carbon_cells(runner, tmp_path):
    rows = ["2021-01-01,1000,6,1,100,,10,,,400", "2021-01-02,3000,6,1,100,,10,,,200"]
    cells = csv_cells(compare(runner, tmp_path, rows, "--format", "csv", "--carbon"))
    # one coin: 10 Wh at 400 g/kWh and 30 Wh at 200 g/kWh, 4 g and 6 g, 5 g a day
    assert cells["holding_based_holding_g"] == "5"
    assert cells["holding_based_tx_g"] == cells["transaction_based_holding_g"] == ""


def test_transaction_cells_average_over_days_with_transactions(runner, tmp_path):
    rows = ["2021-01-01,1000,6,1,100,,10,,,", "2021-01-02,3000,6,0,100,,0,,,"]
    cells = csv_cells(compare(runner, tmp_path, rows, "--format", "csv"))
    # holding: 10 Wh and 30 Wh per coin, both days; transaction: 1000 Wh / 10 on the first day only
    assert cells["holding_based_holding_kwh"] == "0.02"
    assert cells["transaction_based_tx_kwh"] == "0.1"
    # hybrid: fee share 1/7 of 1000 Wh over 10 transactions
    assert cells["hybrid_tx_kwh"] == "0.0142857"


def test_all_zero_transaction_range_leaves_transaction_cells_empty(runner, tmp_path):
    rows = ["2021-01-01,1000,6,0,100,,0,,,", "2021-01-02,3000,6,0,100,,0,,,"]
    cells = csv_cells(compare(runner, tmp_path, rows, "--format", "csv"))
    assert cells["transaction_based_tx_kwh"] == cells["hybrid_tx_kwh"] == ""
    assert cells["holding_based_holding_kwh"] == cells["hybrid_holding_kwh"] == "0.02"
    header, row = (line.split() for line in compare(runner, tmp_path, rows).splitlines())
    assert header == [
        "network",
        "holding-based/holding",
        "holding-based/tx",
        "transaction-based/holding",
        "transaction-based/tx",
        "hybrid/holding",
        "hybrid/tx",
    ]
    assert row == ["btc", "20", "Wh", "-", "-", "-", "20", "Wh", "-"]
