"""Input files `validate` and `allocate` must name when they reject them: non-UTF-8 text, several days CSVs."""

import json

import pytest
from click.testing import CliRunner

from carbon_ledger.cli import main
from test_validate_allocate import HEADER, write_portfolio

NOT_UTF8 = b"\xff\xfe" + HEADER.encode("utf-16-le")
REASON = "not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


@pytest.fixture
def runner():
    return CliRunner()


def _validate(runner, *paths, json_report=False):
    args = ["validate", *map(str, paths), "--network", "btc", "--consensus", "pow"]
    return runner.invoke(main, args + (["--json"] if json_report else []))


def _days(path, *dates):
    path.write_text(HEADER + "".join(f"\n{date},1000,6,1,100,,10,,," for date in dates) + "\n")
    return path


def _holding_on(tmp_path, date):
    return write_portfolio(tmp_path / "ok.json", holdings=[{"entity_id": "h", "date": date, "amount": "1"}])


@pytest.mark.parametrize("name", ["bad.csv", "bad.json"])
def test_validate_reports_a_non_utf8_file_as_a_schema_mismatch(runner, tmp_path, name):
    bad = tmp_path / name
    bad.write_bytes(NOT_UTF8)
    result = _validate(runner, bad, json_report=True)
    assert result.exit_code == 1
    (issue,) = json.loads(result.stdout)["issues"]
    assert issue["code"] == "schema_mismatch"
    assert issue["source"].split(":")[0] == name
    assert "'utf-8' codec can't decode byte 0xff in position 0" in issue["reason"]


def test_allocate_names_a_non_utf8_days_csv(runner, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(NOT_UTF8)
    portfolio = _holding_on(tmp_path, "2021-01-01")
    args = ["allocate", "--days", str(bad), "--network", "btc", "--consensus", "pow",
            "--portfolio", str(portfolio), "--method", "holding"]
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == f"bad.csv: {REASON}\n"


def test_allocate_names_a_non_utf8_portfolio(runner, tmp_path):
    days = _days(tmp_path / "d.csv", "2021-01-01")
    bad = tmp_path / "bad.json"
    bad.write_bytes(NOT_UTF8)
    args = ["allocate", "--days", str(days), "--network", "btc", "--consensus", "pow",
            "--portfolio", str(bad), "--method", "holding"]
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == f"bad.json: {REASON}\n"


def test_validate_joins_against_the_days_of_every_csv(runner, tmp_path):
    days = _days(tmp_path / "d.csv", "2021-01-01")
    other = _days(tmp_path / "other.csv", "2021-03-01")
    portfolio = write_portfolio(
        tmp_path / "ok.json",
        holdings=[
            {"entity_id": "h", "date": "2021-01-01", "amount": "1"},
            {"entity_id": "h", "date": "2021-03-01", "amount": "1"},
        ],
    )
    for order in ((days, other), (other, days)):
        result = _validate(runner, *order, portfolio)
        assert (result.exit_code, result.output) == (0, "ok\n")


def test_a_day_in_no_csv_fails_in_either_order(runner, tmp_path):
    days = _days(tmp_path / "d.csv", "2021-01-01")
    other = _days(tmp_path / "other.csv", "2021-03-01")
    portfolio = _holding_on(tmp_path, "2021-02-01")
    issue = "portfolio.holdings column 'date': h: no network day for 2021-02-01 [join_invalid]"
    for order in ((days, other), (other, days)):
        result = _validate(runner, *order, portfolio)
        assert result.exit_code == 1
        assert result.output.splitlines() == [issue]


def test_a_date_two_csvs_give_is_a_duplicate_date(runner, tmp_path):
    days = _days(tmp_path / "d.csv", "2021-01-01", "2021-01-02")
    again = _days(tmp_path / "again.csv", "2021-01-02")
    portfolio = _holding_on(tmp_path, "2021-01-02")
    first = _validate(runner, days, again, portfolio)
    assert first.exit_code == 1
    assert first.output.splitlines() == [
        "again.csv column 'date': duplicate date 2021-01-02, also in d.csv [duplicate_date]"
    ]
    second = _validate(runner, again, days, portfolio)
    assert second.exit_code == 1
    assert second.output.splitlines() == [
        "d.csv column 'date': duplicate date 2021-01-02, also in again.csv [duplicate_date]"
    ]


def test_a_bad_csv_does_not_drop_the_days_of_a_good_one(runner, tmp_path):
    days = _days(tmp_path / "d.csv", "2021-01-01")
    bad = tmp_path / "bad.csv"
    bad.write_bytes(NOT_UTF8)
    portfolio = _holding_on(tmp_path, "2021-02-01")
    for order in ((days, bad), (bad, days)):
        result = _validate(runner, *order, portfolio)
        assert result.exit_code == 1
        lines = result.output.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("bad.csv: not UTF-8 text:")
        assert lines[1] == "portfolio.holdings column 'date': h: no network day for 2021-02-01 [join_invalid]"


LONE_SURROGATE = "\ud800"  # json.loads takes the escape "\ud800"; no UTF-8 text can hold it


def _many_holdings_and(entity_id):
    """301 holdings on one day, the last of them, in result order, held by ``entity_id``."""
    holdings = [{"entity_id": f"e{index:03d}", "date": "2021-01-01", "amount": "0.1"} for index in range(300)]
    return holdings + [{"entity_id": entity_id, "date": "2021-01-01", "amount": "0.1"}]


def test_validate_reports_an_id_with_no_utf8_form(runner, tmp_path):
    days = _days(tmp_path / "d.csv", "2021-01-01")
    portfolio = write_portfolio(tmp_path / "p.json", holdings=_many_holdings_and(LONE_SURROGATE))
    result = _validate(runner, days, portfolio, json_report=True)
    assert result.exit_code == 1
    (issue,) = json.loads(result.stdout)["issues"]
    assert (issue["source"], issue["row"], issue["column"]) == ("p.json:holdings", 301, "entity_id")
    assert issue["reason"] == "not encodable as UTF-8: '\\ud800'"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_allocate_with_an_id_with_no_utf8_form_writes_nothing(runner, tmp_path, fmt):
    days = _days(tmp_path / "d.csv", "2021-01-01")
    portfolio = write_portfolio(tmp_path / "p.json", holdings=_many_holdings_and(LONE_SURROGATE))
    args = ["allocate", "--days", str(days), "--network", "btc", "--consensus", "pow",
            "--portfolio", str(portfolio), "--method", "holding", "--format", fmt]
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert result.stdout == ""
    assert "not encodable as UTF-8" in result.stderr
    # the same portfolio with a plain last id allocates: the rejection is the id's alone
    write_portfolio(portfolio, holdings=_many_holdings_and("z"))
    assert runner.invoke(main, args).exit_code == 0
