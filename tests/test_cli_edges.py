"""Command-line edges: records repeated across files, CSV line breaks, option ranges, --version, usage."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

import carbon_ledger
from carbon_ledger import Consensus, ConsensusParams, Energy, MalformedResponse, RemoteDayClient, report
from carbon_ledger.cli import main
from test_validate_allocate import HEADER, write_portfolio

DAYS = HEADER + "\n2021-01-01,1000,6,1,100,,10,,,\n"


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def days(tmp_path):
    path = tmp_path / "days.csv"
    path.write_text(DAYS)
    return path


def _validate(runner, *paths, coin_decimals=None):
    args = ["validate", *map(str, paths), "--network", "btc", "--consensus", "pow"]
    return runner.invoke(main, args + ([] if coin_decimals is None else ["--coin-decimals", coin_decimals]))


def _write(path: Path, **document) -> Path:
    path.write_text(json.dumps({"schema_version": "1", **document}))
    return path


def _app(supply):
    return {"app_id": "swap", "date": "2021-01-01", "app_fee_share": "0.6", "token_supply": supply,
            "app_tx_count": 1}


def test_an_app_day_two_files_give_is_a_duplicate_date(runner, tmp_path, days):
    holding = {"entity_id": "a", "app_id": "swap", "date": "2021-01-01", "amount": "10"}
    first = _write(tmp_path / "apps1.json", apps=[_app("1000")], token_holdings=[holding])
    second = _write(tmp_path / "apps2.json", apps=[_app("5")])
    result = _validate(runner, days, first, second)
    assert result.exit_code == 1
    # the second app day is dropped: its supply does not bound the holding, its share does not add up
    assert result.output.splitlines() == [
        "apps2.json:apps column 'date': duplicate app day swap 2021-01-01, also in apps1.json [duplicate_date]"
    ]


def test_a_layer2_day_two_files_give_is_a_duplicate_date(runner, tmp_path, days):
    internal = {
        "date": "2021-01-01", "energy_wh": "1", "block_reward": "1", "tx_fees_total": "1", "coin_supply": "1",
        "tx_count": 1,
    }
    entry = {"l2_id": "rollup", "date": "2021-01-01", "l1_fee_share": "0.1", "infra_energy_wh": "1",
             "internal_day": internal}
    first = _write(tmp_path / "l2a.json", l2s=[entry])
    second = _write(tmp_path / "l2b.json", l2s=[dict(entry, l1_fee_share="0.2")])
    assert _validate(runner, days, first).exit_code == 0
    result = _validate(runner, days, first, second)
    assert result.exit_code == 1
    assert result.output.splitlines() == [
        "l2b.json:l2s column 'date': duplicate layer-2 day rollup 2021-01-01, also in l2a.json [duplicate_date]"
    ]


def test_a_layer2_consensus_two_files_declare_differently(runner, tmp_path):
    days = tmp_path / "days.csv"
    days.write_text(DAYS + "2021-01-02,1000,6,1,100,,10,,,\n")
    internal = {
        "energy_wh": "1", "block_reward": "1", "tx_fees_total": "1", "coin_supply": "1", "tx_count": 1,
        "pos_tx_share": "0.5",
    }
    entries = [
        {"l2_id": "r", "date": date, "consensus": kind, "l1_fee_share": "0.1", "infra_energy_wh": "1",
         "internal_day": dict(internal, date=date)}
        for date, kind in (("2021-01-01", "pos"), ("2021-01-02", "pow"))
    ]
    together = _validate(runner, days, _write(tmp_path / "ab.json", l2s=entries))
    assert (together.exit_code, together.output) == (
        1, "ab.json:l2s row 2 column 'consensus': conflicting consensus for r [row_invalid]\n"
    )
    first, second = _write(tmp_path / "a.json", l2s=entries[:1]), _write(tmp_path / "b.json", l2s=entries[1:])
    split = _validate(runner, days, first, second)
    assert (split.exit_code, split.output) == (
        1, "b.json:l2s column 'consensus': conflicting consensus for r, declared pos in a.json [join_invalid]\n"
    )
    alike = _validate(runner, days, first, _write(tmp_path / "c.json", l2s=[dict(entries[1], consensus="pos")]))
    assert (alike.exit_code, alike.output) == (0, "ok\n")


def test_a_form_feed_inside_a_cell_does_not_split_its_row(runner, tmp_path):
    rows = ["2021-01-01,10\f00,6,1,100,,10,,,", "2021-01-02,-5,6,1,100,,10,,,"]
    expected = [
        "d.csv row 1 column 'energy_wh': not a plain decimal: '10\\x0c00' [row_invalid]",
        "d.csv row 2 column 'energy_wh': negative value not allowed: '-5' [row_invalid]",
    ]
    path = tmp_path / "d.csv"
    for newline in ("\n", "\r\n", "\r"):
        path.write_bytes(newline.join([HEADER, *rows, ""]).encode())
        result = _validate(runner, path)
        assert result.exit_code == 1
        assert result.output.splitlines() == expected, repr(newline)


def test_coin_decimals_below_zero_exits_2_before_reading_input(runner, tmp_path, days):
    holding = {"entity_id": "a", "date": "2021-01-01", "amount": "1"}
    portfolio = write_portfolio(tmp_path / "p.json", holdings=[holding])
    validated = _validate(runner, days, portfolio, coin_decimals="-1")
    allocate = ["allocate", "--days", str(days), "--network", "btc", "--consensus", "pow",
                "--portfolio", str(portfolio), "--method", "holding", "--coin-decimals", "-1"]
    allocated = runner.invoke(main, allocate)
    for result in (validated, allocated):
        assert result.exit_code == 2
        assert "Invalid value for '--coin-decimals'" in result.output
        assert "fractional digits" not in result.output
    assert _validate(runner, days, portfolio, coin_decimals="0").exit_code == 0


def test_version_runs_from_a_checkout():
    src = str(Path(carbon_ledger.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    command = [sys.executable, "-m", "carbon_ledger.cli", "--version"]
    done = subprocess.run(command, env=env, capture_output=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, b"carbon-ledger, version 0.1.0\n", b"")


def test_pyproject_version_is_the_package_version():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as handle:
        assert tomllib.load(handle)["project"]["version"] == carbon_ledger.__version__


@pytest.mark.parametrize(
    "command, source",
    [
        ("series", ["--remote", "http://127.0.0.1:9"]),
        ("series", []),
        ("compare", ["--remote", "http://127.0.0.1:9", "--from", "2021-01-01", "--to", "2021-01-01"]),
        ("compare", []),
    ],
    ids=["both", "neither", "compare-both", "compare-neither"],
)
def test_exactly_one_day_source(runner, days, command, source):
    args = [command, "--network", "btc", "--consensus", "pow", *source]
    if source:
        args += ["--days", str(days)]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stderr == "exactly one of --days or --remote is required\n"


def test_compare_needs_a_consensus_per_network(runner, days):
    args = ["compare", "--days", str(days), "--days", str(days), "--network", "a", "--network", "b",
            "--consensus", "pow"]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stderr == "--network and --consensus must repeat in matching pairs\n"


def test_a_portfolio_without_network_id(runner, tmp_path, days):
    path = _write(tmp_path / "p.json", holdings=[])
    validated = _validate(runner, days, path)
    assert (validated.exit_code, validated.output) == (1, "p.json: missing network_id [schema_mismatch]\n")
    args = ["allocate", "--days", str(days), "--network", "btc", "--consensus", "pow",
            "--portfolio", str(path), "--method", "holding"]
    allocated = runner.invoke(main, args)
    assert (allocated.exit_code, allocated.stdout, allocated.stderr) == (1, "", "p.json: missing network_id\n")


def test_a_remote_day_entry_that_is_not_an_object(tmp_path):
    client = RemoteDayClient("http://127.0.0.1:9", tmp_path, ConsensusParams(Consensus.POW))
    client._http_get = lambda network_id, start, end: {"schema_version": "1", "days": [5]}
    day = carbon_ledger.ingestion.parse_date("2021-01-01")
    with pytest.raises(MalformedResponse, match=r"^btc: day entry must be an object$"):
        client.fetch_days("btc", day, day)


def _row(*cells):
    return report.ComparisonRow("n", 1, *cells)


def test_display_unit_falls_back_to_wh():
    nothing = _row(Energy(Fraction(0)), None, Energy(Fraction(0)), None)
    tiny = _row(Energy(Fraction(1, 100)), None, Energy(Fraction(3)), None)
    assert report._display_unit(nothing) == "Wh"
    assert report._display_unit(tiny) == "Wh"
    assert report._display_unit(_row(Energy(Fraction(10**6)), None, Energy(Fraction(10**6)), None)) == "MWh"
    assert report.comparison_to_text([tiny]).splitlines()[1].split()[1:3] == ["0.01", "Wh"]
