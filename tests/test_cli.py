"""Command-line behavior: exit codes, output shapes, determinism."""

import datetime as dt
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

import carbon_ledger
from carbon_ledger import serialize_network_csv, serialize_portfolio
from carbon_ledger.cli import main
from carbon_ledger.ingestion import NETWORK_CSV_COLUMNS
from carbon_ledger.model import CoinAmount, HoldingRecord, Portfolio, TransactionRecord
from conftest import bitcoin_2021_days, pow_day, realistic_days_csv, realistic_portfolio_json

HEADER = ",".join(NETWORK_CSV_COLUMNS)


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def btc_csv(tmp_path):
    path = tmp_path / "btc.csv"
    path.write_text(serialize_network_csv(bitcoin_2021_days()[:31]))
    return path


@pytest.fixture
def portfolio_json(tmp_path):
    portfolio = Portfolio(
        "bitcoin",
        holdings=(
            HoldingRecord("alice", dt.date(2021, 1, 1), CoinAmount(Fraction(1))),
            HoldingRecord("alice", dt.date(2021, 1, 2), CoinAmount(Fraction(1))),
        ),
        transactions=(TransactionRecord("bob", dt.date(2021, 1, 2), tx_count=1),),
    )
    path = tmp_path / "portfolio.json"
    path.write_text(serialize_portfolio(portfolio))
    return path


def network_args(csv_path):
    return ["--days", str(csv_path), "--network", "bitcoin", "--consensus", "pow"]


class TestValidate:
    def test_clean_file_exits_zero(self, runner, btc_csv):
        result = runner.invoke(
            main, ["validate", str(btc_csv), "--network", "bitcoin", "--consensus", "pow"]
        )
        assert result.exit_code == 0
        assert "ok" in result.output

    def test_bad_rows_exit_one_with_k_entries(self, runner, tmp_path):
        rows = [
            "2021-01-01,-5,900,60,18716000,,250000,,,",
            "2021-01-02,1000,0,0,18716000,,0,,,",
            "2021-01-03,1000,900,60,18716000,,250000,,,",
            "2021-01-03,1000,900,60,18716000,,250000,,,",
        ]
        path = tmp_path / "bad.csv"
        path.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
        result = runner.invoke(
            main,
            ["validate", str(path), "--network", "bitcoin", "--consensus", "pow", "--json"],
        )
        assert result.exit_code == 1
        report = json.loads(result.output)
        assert report["ok"] is False
        assert len(report["issues"]) == 3
        codes = {issue["code"] for issue in report["issues"]}
        assert codes == {"row_invalid", "duplicate_date"}

    def test_missing_file_exits_two(self, runner, tmp_path):
        result = runner.invoke(
            main,
            [
                "validate",
                str(tmp_path / "nope.csv"),
                "--network",
                "bitcoin",
                "--consensus",
                "pow",
            ],
        )
        assert result.exit_code == 2

    def test_join_portfolio_against_days(self, runner, btc_csv, tmp_path):
        portfolio = Portfolio(
            "bitcoin",
            holdings=(HoldingRecord("a", dt.date(2022, 1, 1), CoinAmount(Fraction(1))),),
        )
        path = tmp_path / "p.json"
        path.write_text(serialize_portfolio(portfolio))
        result = runner.invoke(
            main,
            [
                "validate",
                str(btc_csv),
                str(path),
                "--network",
                "bitcoin",
                "--consensus",
                "pow",
            ],
        )
        assert result.exit_code == 1
        assert "no network day" in result.output

    def test_validates_apps_and_l2_documents(self, runner, btc_csv, tmp_path):
        apps = {
            "schema_version": "1",
            "apps": [
                {
                    "app_id": "uniswap",
                    "date": "2021-01-05",
                    "app_fee_share": "0.5",
                    "app_tx_count": 10,
                    "token_supply": "1000",
                }
            ],
            "token_holdings": [
                {"entity_id": "a", "app_id": "uniswap", "date": "2021-01-05", "amount": "10"}
            ],
        }
        l2s = {
            "schema_version": "1",
            "l2s": [
                {
                    "l2_id": "polygon",
                    "date": "2021-01-06",
                    "l1_fee_share": "0.2",
                    "infra_energy_wh": "30000",
                    "consensus": "pos",
                    "internal_day": {
                        "date": "2021-01-06",
                        "energy_wh": "0",
                        "coin_supply": "1000",
                        "tx_count": 10,
                        "pos_tx_share": "0.1",
                    },
                }
            ],
        }
        apps_path = tmp_path / "apps.json"
        apps_path.write_text(json.dumps(apps))
        l2_path = tmp_path / "l2.json"
        l2_path.write_text(json.dumps(l2s))
        clean = runner.invoke(
            main,
            [
                "validate",
                str(btc_csv),
                str(apps_path),
                str(l2_path),
                "--network",
                "bitcoin",
                "--consensus",
                "pow",
            ],
        )
        assert clean.exit_code == 0, clean.output

        apps["token_holdings"][0]["amount"] = "5000"
        apps_path.write_text(json.dumps(apps))
        bad = runner.invoke(
            main,
            [
                "validate",
                str(btc_csv),
                str(apps_path),
                "--network",
                "bitcoin",
                "--consensus",
                "pow",
            ],
        )
        assert bad.exit_code == 1
        assert "exceeds token supply" in bad.output

    def test_holding_above_lost_coin_adjusted_supply_fails_like_allocate(self, runner, tmp_path):
        # supply 100 with half of it lost: a holding of 80 exceeds the effective 50
        days = tmp_path / "days.csv"
        days.write_text(HEADER + "\n2021-01-01,1000,900,60,100,0.5,250000,,,\n")
        portfolio = Portfolio(
            "bitcoin",
            holdings=(HoldingRecord("alice", dt.date(2021, 1, 1), CoinAmount(Fraction(80))),),
        )
        portfolio_path = tmp_path / "portfolio.json"
        portfolio_path.write_text(serialize_portfolio(portfolio))
        validated = runner.invoke(
            main,
            ["validate", str(days), str(portfolio_path), "--network", "bitcoin", "--consensus", "pow"],
        )
        assert validated.exit_code == 1
        assert "amount 80 exceeds coin supply net of lost coins 50" in validated.output
        allocated = runner.invoke(
            main,
            ["allocate", *network_args(days), "--portfolio", str(portfolio_path), "--method", "hybrid"],
        )
        assert allocated.exit_code == 1
        assert "amount 80 exceeds coin supply net of lost coins 50" in allocated.output


class TestAllocate:
    def test_json_output(self, runner, btc_csv, portfolio_json):
        result = runner.invoke(
            main,
            ["allocate", *network_args(btc_csv), "--portfolio", str(portfolio_json), "--method", "hybrid"],
        )
        assert result.exit_code == 0, result.output
        document = json.loads(result.output)
        assert document["method"] == "hybrid"
        assert len(document["results"]) == 3
        assert document["summary"]["holding"]["days_covered"] == 2
        first = document["results"][0]
        assert first["date"] == "2021-01-01"
        assert first["entity_id"] == "alice"
        assert first["energy_kwh"] == "14.2498"

    def test_csv_output_with_summary_sidecar(self, runner, btc_csv, portfolio_json, tmp_path):
        out = tmp_path / "results.csv"
        result = runner.invoke(
            main,
            [
                "allocate",
                *network_args(btc_csv),
                "--portfolio",
                str(portfolio_json),
                "--method",
                "holding",
                "--format",
                "csv",
                "--out",
                str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        assert lines[0].startswith("date,entity_id,method,activity,energy_wh")
        assert len(lines) == 3
        summary = json.loads((tmp_path / "results.csv.summary.json").read_text())
        assert summary["transaction"] is None

    def test_date_range_filters_records(self, runner, btc_csv, portfolio_json):
        result = runner.invoke(
            main,
            [
                "allocate",
                *network_args(btc_csv),
                "--portfolio",
                str(portfolio_json),
                "--method",
                "hybrid",
                "--from",
                "2021-01-01",
                "--to",
                "2021-01-01",
            ],
        )
        document = json.loads(result.output)
        assert len(document["results"]) == 1

    def test_missing_day_exits_one(self, runner, tmp_path, portfolio_json):
        path = tmp_path / "short.csv"
        path.write_text(serialize_network_csv([pow_day(date=dt.date(2021, 1, 1))]))
        result = runner.invoke(
            main,
            ["allocate", *network_args(path), "--portfolio", str(portfolio_json), "--method", "hybrid"],
        )
        assert result.exit_code == 1
        assert "2021-01-02" in result.output

    def test_fill_forward_flagged_in_audit(self, runner, tmp_path, portfolio_json):
        days = [pow_day(date=dt.date(2021, 1, 1))]
        path = tmp_path / "gap.csv"
        path.write_text(serialize_network_csv(days))
        result = runner.invoke(
            main,
            [
                "allocate",
                *network_args(path),
                "--portfolio",
                str(portfolio_json),
                "--method",
                "hybrid",
                "--fill",
                "forward",
            ],
        )
        assert result.exit_code == 0, result.output
        document = json.loads(result.output)
        by_date = {r["date"]: r for r in document["results"]}
        assert by_date["2021-01-01"]["filled_forward"] is False
        assert by_date["2021-01-02"]["filled_forward"] is True

    def test_carbon_flag_populates_carbon(self, runner, tmp_path, portfolio_json):
        days = [
            pow_day(date=dt.date(2021, 1, 1), emission_factor="400"),
            pow_day(date=dt.date(2021, 1, 2), emission_factor="400"),
        ]
        path = tmp_path / "carbon.csv"
        path.write_text(serialize_network_csv(days))
        with_flag = runner.invoke(
            main,
            [
                "allocate",
                *network_args(path),
                "--portfolio",
                str(portfolio_json),
                "--method",
                "holding",
                "--carbon",
            ],
        )
        document = json.loads(with_flag.output)
        assert document["results"][0]["carbon_g"] is not None
        without_flag = runner.invoke(
            main,
            ["allocate", *network_args(path), "--portfolio", str(portfolio_json), "--method", "holding"],
        )
        document = json.loads(without_flag.output)
        assert document["results"][0]["carbon_g"] is None

    def test_deterministic_bytes(self, runner, btc_csv, portfolio_json, tmp_path):
        args = [
            "allocate",
            *network_args(btc_csv),
            "--portfolio",
            str(portfolio_json),
            "--method",
            "hybrid",
            "--format",
            "csv",
        ]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output


    def test_year_horizon_summary_renders_within_digit_limit(self, runner, tmp_path):
        # A year of daily-varying supply, lost-coin fraction and emission factor
        # drives the period summary's rationals far past 4,300 digits.
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            rng = random.Random(365)
            days = tmp_path / "year.csv"
            days.write_text(realistic_days_csv(rng, "pow", dt.date(2021, 1, 1), 365))
            portfolio = tmp_path / "portfolio.json"
            portfolio.write_text(
                realistic_portfolio_json(rng, "pow", "bitcoin", dt.date(2021, 1, 1), 365, 2)
            )
            out = tmp_path / "results.csv"
            args = ["allocate", *network_args(days), "--portfolio", str(portfolio)]
            result = runner.invoke(
                main,
                [*args, "--method", "hybrid", "--carbon", "--format", "csv", "--out", str(out)],
            )
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(previous)
        assert result.exit_code == 0, result.output
        assert len(out.read_text().splitlines()) == 1 + 365 * 2 * 2
        summary = json.loads((tmp_path / "results.csv.summary.json").read_text())
        assert summary["holding"]["days_covered"] == 365
        assert summary["transaction"]["total_carbon_g"] is not None


class TestCompare:
    def test_csv_row(self, runner, btc_csv):
        result = runner.invoke(
            main, ["compare", *network_args(btc_csv), "--format", "csv"]
        )
        assert result.exit_code == 0, result.output
        header, row = result.output.strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["network_id"] == "bitcoin"
        assert cells["holding_based_holding_kwh"] == "15.161"
        assert cells["transaction_based_tx_kwh"] == "1077.84"
        assert cells["holding_based_tx_kwh"] == ""
        assert cells["transaction_based_holding_kwh"] == ""

    def test_text_table_marks_na(self, runner, btc_csv):
        result = runner.invoke(main, ["compare", *network_args(btc_csv)])
        assert result.exit_code == 0
        row = result.output.splitlines()[1]
        assert "15.16 kWh" in row
        assert "-" in row

    def test_multiple_networks(self, runner, btc_csv, tmp_path):
        from conftest import ethereum_pos_q4_days

        pos_path = tmp_path / "pos.csv"
        pos_path.write_text(serialize_network_csv(ethereum_pos_q4_days()[:10]))
        result = runner.invoke(
            main,
            [
                "compare",
                "--days",
                str(btc_csv),
                "--network",
                "bitcoin",
                "--consensus",
                "pow",
                "--days",
                str(pos_path),
                "--network",
                "ethereum-pos",
                "--consensus",
                "pos",
                "--format",
                "csv",
            ],
        )
        assert result.exit_code == 0, result.output
        lines = result.output.strip().split("\n")
        assert len(lines) == 3
        assert lines[1].startswith("bitcoin,")
        assert lines[2].startswith("ethereum-pos,")

    def test_mismatched_pairs_exit_two(self, runner, btc_csv):
        result = runner.invoke(
            main,
            ["compare", "--days", str(btc_csv), "--network", "a", "--network", "b", "--consensus", "pow", "--consensus", "pow"],
        )
        assert result.exit_code == 2

    def test_carbon_columns_from_emission_factor(self, runner, tmp_path):
        days = [
            pow_day(date=dt.date(2021, 1, 1), emission_factor="400"),
            pow_day(date=dt.date(2021, 1, 2), emission_factor="400"),
        ]
        path = tmp_path / "ef.csv"
        path.write_text(serialize_network_csv(days))
        result = runner.invoke(
            main, ["compare", *network_args(path), "--format", "csv", "--carbon"]
        )
        assert result.exit_code == 0, result.output
        header, row = result.output.strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        # 15.16 kWh at 400 g/kWh is about 6064 g
        assert cells["holding_based_holding_g"].startswith("6064")
        assert cells["holding_based_tx_g"] == ""
        without = runner.invoke(main, ["compare", *network_args(path), "--format", "csv"])
        assert "holding_based_holding_g" not in without.output


class TestSeries:
    def test_constant_pow_series(self, runner, btc_csv):
        result = runner.invoke(
            main,
            ["series", *network_args(btc_csv), "--from", "2021-01-01", "--to", "2021-01-03"],
        )
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "date,transaction_weight",
            "2021-01-01,0.0601",
            "2021-01-02,0.0601",
            "2021-01-03,0.0601",
        ]

    def test_zero_fee_series_is_zero(self, runner, tmp_path):
        days = [
            pow_day(date=dt.date(2021, 1, 1), fees="0", tx_count=0),
            pow_day(date=dt.date(2021, 1, 2), fees="0", tx_count=0),
        ]
        path = tmp_path / "zf.csv"
        path.write_text(serialize_network_csv(days))
        result = runner.invoke(main, ["series", *network_args(path)])
        weights = [line.split(",")[1] for line in result.output.splitlines()[1:]]
        assert weights == ["0", "0"]

    def test_pos_series_matches_share(self, runner, tmp_path):
        from conftest import ethereum_pos_q4_days

        path = tmp_path / "pos.csv"
        path.write_text(serialize_network_csv(ethereum_pos_q4_days()[:5]))
        result = runner.invoke(
            main, ["series", "--days", str(path), "--network", "eth", "--consensus", "pos"]
        )
        weights = {line.split(",")[1] for line in result.output.splitlines()[1:]}
        assert weights == {"0.022"}

    def test_empty_range_exits_one(self, runner, btc_csv):
        result = runner.invoke(
            main,
            ["series", *network_args(btc_csv), "--from", "2030-01-01", "--to", "2030-01-02"],
        )
        assert result.exit_code == 1
        assert "no days in the requested range" in result.output

    def test_weights_stay_in_unit_interval(self, runner, tmp_path):
        days = [
            pow_day(date=dt.date(2021, 1, 1), fees="5", reward="5"),
            pow_day(date=dt.date(2021, 1, 2), fees="10", reward="0"),
            pow_day(date=dt.date(2021, 1, 3), fees="0", reward="10", tx_count=0),
        ]
        path = tmp_path / "mixed.csv"
        path.write_text(serialize_network_csv(days))
        result = runner.invoke(main, ["series", *network_args(path)])
        weights = [Fraction(line.split(",")[1]) for line in result.output.splitlines()[1:]]
        assert all(0 <= w <= 1 for w in weights)


class TestSigDigitsOption:
    """--sig-digits below 1 is a usage error (exit 2) on every command, before any input is read."""

    @pytest.mark.parametrize("digits", ["0", "-3"])
    @pytest.mark.parametrize(
        "command",
        [
            ["allocate", "--method", "hybrid"],
            ["allocate", "--method", "hybrid", "--format", "csv"],
            # an empty range renders nothing, so this run used to exit 0
            ["allocate", "--method", "hybrid", "--from", "2030-01-01", "--to", "2030-01-02"],
            ["compare", "--format", "csv"],
            ["series"],
        ],
    )
    def test_rejected_at_the_option(self, runner, btc_csv, portfolio_json, command, digits):
        args = [*command, *network_args(btc_csv), "--sig-digits", digits]
        if command[0] == "allocate":
            args += ["--portfolio", str(portfolio_json)]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "--sig-digits" in result.output
        assert "x>=1" in result.output

    def test_one_digit_is_accepted(self, runner, btc_csv):
        result = runner.invoke(main, ["series", *network_args(btc_csv), "--sig-digits", "1"])
        assert result.exit_code == 0, result.output
        assert result.output.splitlines()[1] == "2021-01-01,0.06"


def test_stdout_keeps_the_bytes_of_out_when_it_is_no_terminal(tmp_path, btc_csv):
    # an id holding an ANSI escape sequence: a CSV cell keeps the ESC byte, so stdout must too
    portfolio = Portfolio(
        "bitcoin", holdings=(HoldingRecord("a\x1b[31mred", dt.date(2021, 1, 1), CoinAmount(Fraction(1))),)
    )
    path = tmp_path / "portfolio.json"
    path.write_text(serialize_portfolio(portfolio))
    out = tmp_path / "out.csv"
    args = ["allocate", *network_args(btc_csv), "--portfolio", str(path), "--method", "holding", "--format", "csv"]
    src = str(Path(carbon_ledger.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    command = [sys.executable, "-m", "carbon_ledger.cli", *args]
    printed = subprocess.run(command, env=env, capture_output=True, check=True)
    subprocess.run([*command, "--out", str(out)], env=env, capture_output=True, check=True)
    assert b"a\x1b[31mred," in printed.stdout
    assert printed.stdout == out.read_bytes()
