"""What `validate` passes, `allocate` allocates: one rule set for both commands.

The transaction rules (the zero-count day, the basis hierarchy and its bound)
are the engine's; the join asks the engine, so `validate` reports the same
row-addressed issue that `allocate` prints. Also here: `validate` joins every
JSON file it is given, and integers beyond the interpreter's digit limit are
ordinary issues.
"""

import json
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from carbon_ledger.cli import main
from carbon_ledger.ingestion import NETWORK_CSV_COLUMNS

HEADER = ",".join(NETWORK_CSV_COLUMNS)
DATES = ("2021-01-01", "2021-01-02")

# date, energy_wh, block_reward, tx_fees_total, coin_supply, lost_coin_fraction, tx_count, ...
POW_DAYS = (
    HEADER
    + "\n2021-01-01,1000,6,1,100,,10,,,"
    + "\n2021-01-02,1000,6,0,100,,0,,,"
    + "\n2021-01-03,1000,6,0,100,,10,,,\n"
)


@pytest.fixture
def runner():
    return CliRunner()


def write_portfolio(path: Path, transactions=(), holdings=()) -> Path:
    document = {
        "schema_version": "1",
        "network_id": "btc",
        "holdings": list(holdings),
        "transactions": list(transactions),
    }
    path.write_text(json.dumps(document))
    return path


def validate(runner, *paths, consensus="pow"):
    args = ["validate", *map(str, paths), "--network", "btc", "--consensus", consensus]
    return runner.invoke(main, args)


def allocate(runner, days, portfolio, method, consensus="pow"):
    args = ["--days", str(days), "--network", "btc", "--consensus", consensus]
    return runner.invoke(main, ["allocate", *args, "--portfolio", str(portfolio), "--method", method])


@pytest.mark.parametrize(
    "tx, issue",
    [
        (
            {"date": "2021-01-01", "fee_paid": "5"},
            "portfolio.transactions column 'fee_paid': a: fee quantity 5 exceeds total 1 [join_invalid]",
        ),
        (
            {"date": "2021-01-01", "tx_count": 11},
            "portfolio.transactions column 'tx_count': a: count quantity 11 exceeds total 10 [join_invalid]",
        ),
        (
            {"date": "2021-01-02", "tx_count": 1},
            "portfolio.transactions column 'date': "
            "2021-01-02: transaction record exists but the day reports none [join_invalid]",
        ),
        (
            {"date": "2021-01-03", "fee_paid": "1"},
            "portfolio.transactions column 'date': "
            "a on 2021-01-03: no fee, gas, or count basis can be formed [join_invalid]",
        ),
    ],
    ids=["fee-above-total", "count-above-total", "zero-transaction-day", "no-basis"],
)
def test_transaction_allocate_rejects_is_a_validate_issue(runner, tmp_path, tx, issue):
    days = tmp_path / "d.csv"
    days.write_text(POW_DAYS)
    portfolio = write_portfolio(tmp_path / "p.json", [{"entity_id": "a", **tx}])
    validated = validate(runner, days, portfolio)
    assert validated.exit_code == 1, validated.output
    assert validated.output.splitlines() == [issue]
    allocated = allocate(runner, days, portfolio, "transaction")
    assert allocated.exit_code == 1
    assert allocated.stderr.splitlines() == [issue]


def _pow_day(date, tx_count, draw):
    fees = "0" if tx_count == 0 else draw(st.sampled_from(["0", "1", "3"]))
    gas = draw(st.sampled_from(["", "0"] if tx_count == 0 else ["", "0", "100"]))
    lost = draw(st.sampled_from(["", "0.5"]))
    return f"{date},1000,6,{fees},100,{lost},{tx_count},{gas},,"


def _pos_day(date, tx_count, draw):
    fees = draw(st.sampled_from(["", "0"] if tx_count == 0 else ["", "0", "2"]))
    gas = draw(st.sampled_from(["", "0"] if tx_count == 0 else ["", "0", "100"]))
    share = "0" if tx_count == 0 else "0.1"
    lost = draw(st.sampled_from(["", "0.5"]))
    return f"{date},1000,,{fees},100,{lost},{tx_count},{gas},{share},"


@st.composite
def bundles(draw):
    """A one- or two-day network CSV and a portfolio with quantities below, at and above the day's totals."""
    consensus = draw(st.sampled_from(["pow", "pos"]))
    dates = DATES[: draw(st.integers(1, 2))]
    make_day = _pow_day if consensus == "pow" else _pos_day
    rows = [make_day(date, draw(st.sampled_from([0, 1, 10])), draw) for date in dates]
    transactions = []
    for index in range(draw(st.integers(0, 3))):
        tx = {"entity_id": f"t{index}", "date": draw(st.sampled_from(dates))}
        for key, values in (
            ("fee_paid", ["0", "1", "2", "3", "5"]),
            ("gas_used", ["0", "50", "100", "150"]),
            ("tx_count", [1, 10, 11]),
        ):
            value = draw(st.none() | st.sampled_from(values))
            if value is not None:
                tx[key] = value
        transactions.append(tx)
    holdings = [
        {
            "entity_id": f"h{index}",
            "date": draw(st.sampled_from(dates)),
            "amount": draw(st.sampled_from(["1", "50", "100"])),
        }
        for index in range(draw(st.integers(0, 2)))
    ]
    return consensus, HEADER + "\n" + "\n".join(rows) + "\n", transactions, holdings


@settings(max_examples=150, deadline=None)
@given(bundles())
def test_validate_ok_implies_allocate_ok(bundle):
    consensus, days_csv, transactions, holdings = bundle
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as directory:
        days = Path(directory) / "d.csv"
        days.write_text(days_csv)
        portfolio = write_portfolio(Path(directory) / "p.json", transactions, holdings)
        validated = validate(runner, days, portfolio, consensus=consensus)
        assert validated.exit_code in (0, 1), validated.output
        if validated.exit_code == 0:
            for method in ("holding", "transaction", "hybrid"):
                allocated = allocate(runner, days, portfolio, method, consensus=consensus)
                assert allocated.exit_code == 0, (method, allocated.output)


def test_validate_joins_every_json_file(runner, tmp_path):
    days = tmp_path / "d.csv"
    days.write_text(POW_DAYS)
    holding_without_day = {"entity_id": "h", "date": "2021-02-01", "amount": "1"}
    clean_holding = {"entity_id": "h", "date": "2021-01-01", "amount": "1"}
    first = write_portfolio(tmp_path / "h.json", holdings=[holding_without_day])
    second = write_portfolio(tmp_path / "ok.json", holdings=[clean_holding])
    issue = "portfolio.holdings column 'date': h: no network day for 2021-02-01 [join_invalid]"
    for order in ((first, second), (second, first)):
        result = validate(runner, days, *order)
        assert result.exit_code == 1
        assert result.output.splitlines() == [issue]


def test_a_second_apps_or_l2_file_does_not_hide_the_first(runner, tmp_path):
    days = tmp_path / "d.csv"
    days.write_text(POW_DAYS)
    late_app = {"app_id": "late", "date": "2021-02-01", "app_fee_share": "0.1", "app_tx_count": 1}
    clean_app = {"app_id": "dex", "date": "2021-01-01", "app_fee_share": "0.1", "app_tx_count": 1}
    late_l2 = {
        "l2_id": "late",
        "date": "2021-02-01",
        "l1_fee_share": "0.1",
        "infra_energy_wh": "1",
        "internal_day": {
            "date": "2021-02-01", "energy_wh": "1", "block_reward": "1", "tx_fees_total": "1",
            "coin_supply": "1", "tx_count": 1,
        },
    }
    clean_day = dict(late_l2["internal_day"], date="2021-01-01")
    clean_l2 = dict(late_l2, l2_id="ok", date="2021-01-01", internal_day=clean_day)
    files = {}
    for name, document in (
        ("apps-late", {"apps": [late_app]}),
        ("apps-ok", {"apps": [clean_app]}),
        ("l2-late", {"l2s": [late_l2]}),
        ("l2-ok", {"l2s": [clean_l2]}),
    ):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps({"schema_version": "1", **document}))
    result = validate(runner, days, files["apps-late"], files["apps-ok"], files["l2-late"], files["l2-ok"])
    assert result.exit_code == 1
    assert result.output.splitlines() == [
        "apps column 'date': late: no network day for 2021-02-01 [join_invalid]",
        "l2s column 'date': late: no network day for 2021-02-01 [join_invalid]",
    ]


BIG = "1" * 5000  # beyond the interpreter's default 4,300-digit limit


def test_long_count_cell_is_a_row_issue(runner, tmp_path):
    days = tmp_path / "d.csv"
    days.write_text(f"{HEADER}\n2021-01-01,1000,6,1,100,,{BIG},,,\n")
    result = validate(runner, days)
    assert result.exit_code == 1
    issue = "d.csv row 1 column 'tx_count': integer of 5000 digits is too long [row_invalid]"
    assert result.output.splitlines() == [issue]


def _big_number_portfolio(tmp_path) -> Path:
    path = tmp_path / "big.json"
    holding = '{"entity_id": "a", "date": "2021-01-01", "amount": ' + BIG + "}"
    path.write_text('{"schema_version": "1", "network_id": "btc", "holdings": [' + holding + "]}")
    return path


def test_long_json_number_is_not_valid_json_to_validate(runner, tmp_path):
    days = tmp_path / "d.csv"
    days.write_text(POW_DAYS)
    result = validate(runner, days, _big_number_portfolio(tmp_path))
    assert result.exit_code == 1
    (line,) = result.output.splitlines()
    assert line.startswith("big.json: not valid JSON: Exceeds the limit")
    assert line.endswith("[schema_mismatch]")


def test_long_json_number_is_not_valid_json_to_allocate(runner, tmp_path):
    days = tmp_path / "d.csv"
    days.write_text(POW_DAYS)
    result = allocate(runner, days, _big_number_portfolio(tmp_path), "holding")
    assert result.exit_code == 1
    assert result.stderr.startswith("big.json: not valid JSON: Exceeds the limit")
