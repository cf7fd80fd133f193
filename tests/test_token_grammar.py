"""The token grammar is ASCII-only and whole-token: no other scripts' digits, no trailing newline.

Each rejected token must surface as a row-addressed issue (or a schema
mismatch), never as a bare ``int()`` traceback or a silently accepted value.
"""

import datetime as dt
import json

import pytest
from click.testing import CliRunner

from carbon_ledger.cli import main
from carbon_ledger.errors import DatasetInvalid, SchemaMismatch
from carbon_ledger.ingestion import NETWORK_CSV_COLUMNS, parse_date, parse_portfolio_json
from carbon_ledger.numeric import fraction_digits, parse_decimal, split_decimal

NON_ASCII_OR_TRAILING = ["5\n", "5\r\n", "٣.٥", "٣", "²", "1.²", "５"]


@pytest.mark.parametrize("token", NON_ASCII_OR_TRAILING)
def test_parse_decimal_rejects(token):
    with pytest.raises(ValueError, match="not a plain decimal"):
        parse_decimal(token)
    with pytest.raises(ValueError):
        fraction_digits(token)


def test_plain_ascii_tokens_still_parse():
    assert split_decimal("-12.50") == (parse_decimal("-12.5"), 2)
    assert parse_decimal("+7") == 7


@pytest.mark.parametrize("token", ["5\n", "٣.٥"])
def test_portfolio_cell_becomes_row_issue(token):
    document = {
        "schema_version": "1",
        "network_id": "bitcoin",
        "holdings": [{"entity_id": "alice", "date": "2021-01-01", "amount": token}],
    }
    with pytest.raises(DatasetInvalid) as raised:
        parse_portfolio_json(json.dumps(document), "portfolio.json")
    (issue,) = raised.value.issues
    assert (issue.source, issue.row, issue.column) == ("portfolio.json:holdings", 1, "amount")
    assert issue.reason == f"not a plain decimal: {token!r}"


@pytest.mark.parametrize("count", ["²", "٣"])
def test_transaction_count_cell_becomes_row_issue(count):
    document = {
        "schema_version": "1",
        "network_id": "bitcoin",
        "transactions": [{"entity_id": "bob", "date": "2021-01-01", "tx_count": count}],
    }
    with pytest.raises(DatasetInvalid) as raised:
        parse_portfolio_json(json.dumps(document), "portfolio.json")
    (issue,) = raised.value.issues
    assert (issue.row, issue.column) == (1, "tx_count")
    assert issue.reason == f"not a non-negative integer: {count!r}"


@pytest.mark.parametrize("version", ["²", "١"])
def test_schema_major_must_be_ascii_digits(version):
    document = {"schema_version": version, "network_id": "bitcoin"}
    with pytest.raises(SchemaMismatch, match="unsupported schema_version"):
        parse_portfolio_json(json.dumps(document), "portfolio.json")


def _validate(*args):
    return CliRunner().invoke(main, ["validate", *map(str, args), "--network", "bitcoin", "--consensus", "pow", "--json"])


def test_cli_days_tx_count_superscript_is_row_addressed(tmp_path):
    row = "2021-01-01,1000,900,60,18716000,,²,,,"
    path = tmp_path / "days.csv"
    path.write_text(",".join(NETWORK_CSV_COLUMNS) + "\n" + row + "\n", encoding="utf-8")
    result = _validate(path)
    assert result.exit_code == 1
    (issue,) = json.loads(result.output)["issues"]
    assert issue == {
        "source": "days.csv",
        "code": "row_invalid",
        "reason": "not a non-negative integer: '²'",
        "row": 1,
        "column": "tx_count",
    }


@pytest.mark.parametrize("token", ["5\n", "٣.٥"])
def test_cli_portfolio_amount_is_row_addressed(tmp_path, token):
    path = tmp_path / "portfolio.json"
    document = {
        "schema_version": "1",
        "network_id": "bitcoin",
        "holdings": [{"entity_id": "alice", "date": "2021-01-01", "amount": token}],
    }
    path.write_text(json.dumps(document), encoding="utf-8")
    result = _validate(path)
    assert result.exit_code == 1
    (issue,) = json.loads(result.output)["issues"]
    assert issue["source"] == "portfolio.json:holdings"
    assert (issue["row"], issue["column"]) == (1, "amount")
    assert issue["reason"] == f"not a plain decimal: {token!r}"


# Python 3.11+ ``date.fromisoformat`` reads the first two as 2021-01-01 and
# 2021-01-08; none of them would serialize back to the text read.
NOT_CALENDAR_DATES = ["20210101", "2021-W01-5", "2021-001", "2021-1-01", "٢٠٢١-٠١-٠١", "2021-01-01\n", "2021-02-30"]


def test_parse_date_reads_yyyy_mm_dd():
    assert parse_date("2021-01-08") == dt.date(2021, 1, 8)


@pytest.mark.parametrize("token", NOT_CALENDAR_DATES)
def test_parse_date_rejects(token):
    with pytest.raises(ValueError):
        parse_date(token)


@pytest.mark.parametrize("token", NOT_CALENDAR_DATES)
def test_portfolio_date_becomes_row_issue(token):
    document = {
        "schema_version": "1",
        "network_id": "bitcoin",
        "holdings": [{"entity_id": "alice", "date": token, "amount": "1"}],
    }
    with pytest.raises(DatasetInvalid) as raised:
        parse_portfolio_json(json.dumps(document), "portfolio.json")
    (issue,) = raised.value.issues
    assert (issue.source, issue.row, issue.column) == ("portfolio.json:holdings", 1, "date")
    assert issue.reason == f"not an ISO-8601 date: {token!r}"


@pytest.mark.parametrize("token", ["20210101", "2021-W01-5"])
def test_cli_days_date_is_row_addressed(tmp_path, token):
    path = tmp_path / "days.csv"
    rows = ["2021-01-01,1000,900,60,18716000,,5,,,", f"{token},1000,900,60,18716000,,5,,,"]
    path.write_text("\n".join([",".join(NETWORK_CSV_COLUMNS), *rows]) + "\n", encoding="utf-8")
    result = _validate(path)
    assert result.exit_code == 1
    (issue,) = json.loads(result.output)["issues"]
    assert issue == {
        "source": "days.csv",
        "code": "row_invalid",
        "reason": f"not an ISO-8601 date: {token!r}",
        "row": 2,
        "column": "date",
    }


@pytest.mark.parametrize("flag", ["--from", "--to"])
def test_cli_range_flags_take_only_yyyy_mm_dd(tmp_path, flag):
    path = tmp_path / "days.csv"
    path.write_text(",".join(NETWORK_CSV_COLUMNS) + "\n2021-01-01,1000,900,60,18716000,,5,,,\n", encoding="utf-8")
    args = ["series", "--days", str(path), "--network", "bitcoin", "--consensus", "pow"]
    result = CliRunner().invoke(main, [*args, "--from", "2021-01-01", "--to", "2021-01-01", flag, "2021-W01-5"])
    assert result.exit_code == 2
    assert result.output == f"{flag}: not an ISO-8601 date: '2021-W01-5'\n"
