"""Loaders and serializers: exactness, complete error reporting, round-trips."""

import datetime as dt
import json
from fractions import Fraction

import pytest

from carbon_ledger import (
    Consensus,
    DatasetInvalid,
    MissingDay,
    SchemaMismatch,
    TransactionRecord,
    fill_forward,
    join_issues,
    load_apps_json,
    load_l2_json,
    load_network_csv,
    load_portfolio_json,
    serialize_apps,
    serialize_l2,
    serialize_network_csv,
    serialize_portfolio,
)
from carbon_ledger.ingestion import (
    NETWORK_CSV_COLUMNS,
    Dataset,
    parse_apps_json,
    parse_l2_json,
    parse_network_csv,
    parse_portfolio_json,
)
from carbon_ledger.errors import RowProblem
from conftest import POS, POW, bitcoin_2021_days, frac, pow_day

HEADER = ",".join(NETWORK_CSV_COLUMNS)

GOOD_POW_ROW = "2021-01-02,1000000,900,60,18716000,,250000,,,"


def csv_text(*rows: str) -> str:
    return HEADER + "\n" + "\n".join(rows) + "\n"


class TestNetworkCsv:
    def test_happy_path_full_year(self, tmp_path):
        path = tmp_path / "btc.csv"
        path.write_text(serialize_network_csv(bitcoin_2021_days()))
        dataset = load_network_csv(path, "bitcoin", POW)
        assert len(dataset.days) == 365
        assert dataset.days[0].date == dt.date(2021, 1, 1)
        assert dataset.network_id == "bitcoin"

    def test_header_mismatch(self):
        with pytest.raises(SchemaMismatch):
            parse_network_csv("date,energy\n", "x.csv", "n", POW)

    def test_negative_energy_row(self):
        text = csv_text("2021-01-01,-5,900,60,18716000,,250000,,,")
        with pytest.raises(DatasetInvalid) as excinfo:
            parse_network_csv(text, "x.csv", "n", POW)
        (issue,) = excinfo.value.issues
        assert issue.row == 1
        assert issue.column == "energy_wh"
        assert "negative" in issue.reason

    def test_zero_revenue_pow_row(self):
        text = csv_text("2021-01-01,1000,0,0,18716000,,0,,,")
        with pytest.raises(DatasetInvalid) as excinfo:
            parse_network_csv(text, "x.csv", "n", POW)
        (issue,) = excinfo.value.issues
        assert issue.column == "block_reward"
        assert "zero total miner revenue" in issue.reason

    def test_duplicate_date(self):
        row = "2021-01-01,1000,900,60,18716000,,250000,,,"
        with pytest.raises(DatasetInvalid) as excinfo:
            parse_network_csv(csv_text(row, row), "x.csv", "n", POW)
        (issue,) = excinfo.value.issues
        assert issue.code == "duplicate_date"
        assert issue.row == 2

    def test_precision_beyond_smallest_denomination(self):
        # bitcoin has 8 decimal places; a 9-digit fraction cannot be real data
        text = csv_text("2021-01-01,1000,900.123456789,60,18716000,,250000,,,")
        with pytest.raises(DatasetInvalid) as excinfo:
            parse_network_csv(text, "x.csv", "n", POW, coin_decimals=8)
        (issue,) = excinfo.value.issues
        assert issue.column == "block_reward"
        assert "precision" in issue.reason

    def test_float_notation_rejected(self):
        text = csv_text("2021-01-01,1e6,900,60,18716000,,250000,,,")
        with pytest.raises(DatasetInvalid) as excinfo:
            parse_network_csv(text, "x.csv", "n", POW)
        assert excinfo.value.issues[0].column == "energy_wh"

    def test_pos_missing_share(self):
        text = csv_text("2021-01-01,1000,,,18716000,,250000,,,")
        with pytest.raises(DatasetInvalid) as excinfo:
            parse_network_csv(text, "x.csv", "n", POS)
        assert excinfo.value.issues[0].column == "pos_tx_share"

    def test_k_invalid_rows_yield_k_errors(self):
        rows = [
            "2021-01-01,-5,900,60,18716000,,250000,,,",      # negative energy
            GOOD_POW_ROW,
            "2021-01-03,1000,900,60,0,,250000,,,",           # zero supply
            "2021-01-04,1000,900,60,18716000,,-3,,,",        # negative count
            "not-a-date,1000,900,60,18716000,,250000,,,",    # bad date
        ]
        with pytest.raises(DatasetInvalid) as excinfo:
            parse_network_csv(csv_text(*rows), "x.csv", "n", POW)
        assert len(excinfo.value.issues) == 4
        assert [i.row for i in excinfo.value.issues] == [1, 3, 4, 5]

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    def test_row_numbers_count_blank_lines_and_issues_stay_in_row_order(self, eol):
        def day(date, supply="18716000"):
            return f"{date},1000,900,60,{supply},,250000,,,"

        rows = [
            day("2021-01-01"),
            "",                                             # 2: blank, skipped but counted
            "2021-01-02,1000",                              # 3: short line
            "2021-01-03,-5,900,60,18716000,,250000,,,",     # 4: negative energy
            day("2021-01-04") + ",",                        # 5: long line
            "",
            day("2021-01-01"),                              # 7: duplicate date after a blank line
            day("2021-01-05", supply="0"),                  # 8: zero supply
            day("2021-01-06"),
        ]
        text = HEADER + eol + eol.join(rows) + eol + eol + eol  # two blank lines at the end
        with pytest.raises(DatasetInvalid) as excinfo:
            parse_network_csv(text, "x.csv", "n", POW)
        assert [issue.render() for issue in excinfo.value.issues] == [
            "x.csv row 3: expected 10 cells, got 2 [row_invalid]",
            "x.csv row 4 column 'energy_wh': negative value not allowed: '-5' [row_invalid]",
            "x.csv row 5: expected 10 cells, got 11 [row_invalid]",
            "x.csv row 7 column 'date': duplicate date 2021-01-01 [duplicate_date]",
            "x.csv row 8 column 'coin_supply': must be > 0 [row_invalid]",
        ]
        clean = HEADER + eol + eol.join([day("2021-01-06"), "", day("2021-01-01")]) + eol + eol
        dataset = parse_network_csv(clean, "x.csv", "n", POW)
        assert [d.date.day for d in dataset.days] == [1, 6]

    def test_rows_sorted_on_load(self):
        rows = [GOOD_POW_ROW, "2021-01-01,1000,900,60,18716000,,250000,,,"]
        dataset = parse_network_csv(csv_text(*rows), "x.csv", "n", POW)
        assert [d.date.day for d in dataset.days] == [1, 2]

    def test_round_trip_is_byte_identical(self):
        days = [
            pow_day(date=dt.date(2021, 1, 1), lost="0.2", gas="123.45", emission_factor="480"),
            pow_day(date=dt.date(2021, 1, 2)),
        ]
        text = serialize_network_csv(days)
        reloaded = parse_network_csv(text, "x.csv", "n", POW)
        assert serialize_network_csv(reloaded.days) == text

    def test_parsing_preserves_precision(self):
        token = "0.300000000000000044408920985006"
        text = csv_text(f"2021-01-01,{token},900,60,18716000,,250000,,,")
        dataset = parse_network_csv(text, "x.csv", "n", POW)
        assert dataset.days[0].energy.wh == Fraction(token)
        assert token in serialize_network_csv(dataset.days)


PORTFOLIO_DOC = {
    "schema_version": "1",
    "network_id": "bitcoin",
    "holdings": [{"entity_id": "alice", "date": "2021-01-01", "amount": "1.5"}],
    "transactions": [
        {"entity_id": "bob", "date": "2021-01-01", "fee_paid": "0.001", "tx_count": 2}
    ],
}


class TestPortfolioJson:
    def test_happy_path(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(PORTFOLIO_DOC))
        portfolio = load_portfolio_json(path)
        assert portfolio.network_id == "bitcoin"
        assert portfolio.holdings[0].amount.value == frac("1.5")
        assert portfolio.transactions[0].tx_count == 2

    def test_unknown_major_version(self):
        document = dict(PORTFOLIO_DOC, schema_version="2.0")
        with pytest.raises(SchemaMismatch):
            parse_portfolio_json(json.dumps(document), "p.json")

    def test_missing_version(self):
        document = {k: v for k, v in PORTFOLIO_DOC.items() if k != "schema_version"}
        with pytest.raises(SchemaMismatch):
            parse_portfolio_json(json.dumps(document), "p.json")

    def test_float_amount_rejected(self):
        document = dict(PORTFOLIO_DOC, holdings=[{"entity_id": "a", "date": "2021-01-01", "amount": 1.5}])
        with pytest.raises(DatasetInvalid) as excinfo:
            parse_portfolio_json(json.dumps(document), "p.json")
        assert "float" in excinfo.value.issues[0].reason

    def test_negative_amount_rejected(self):
        document = dict(
            PORTFOLIO_DOC, holdings=[{"entity_id": "a", "date": "2021-01-01", "amount": "-1"}]
        )
        with pytest.raises(DatasetInvalid) as excinfo:
            parse_portfolio_json(json.dumps(document), "p.json")
        assert "negative" in excinfo.value.issues[0].reason

    def test_bare_transaction_defaults_to_one(self):
        document = dict(
            PORTFOLIO_DOC, transactions=[{"entity_id": "b", "date": "2021-01-01"}]
        )
        portfolio = parse_portfolio_json(json.dumps(document), "p.json")
        assert portfolio.transactions[0].tx_count == 1

    def test_fee_only_transaction_keeps_count_absent(self):
        document = dict(
            PORTFOLIO_DOC,
            transactions=[{"entity_id": "b", "date": "2021-01-01", "fee_paid": "0.1"}],
        )
        portfolio = parse_portfolio_json(json.dumps(document), "p.json")
        assert portfolio.transactions[0].tx_count is None

    def test_all_bad_rows_reported(self):
        document = dict(
            PORTFOLIO_DOC,
            holdings=[
                {"entity_id": "a", "date": "2021-01-01", "amount": "-1"},
                {"entity_id": "a", "date": "bad", "amount": "1"},
            ],
            transactions=[{"entity_id": "b", "date": "2021-01-01", "tx_count": 0}],
        )
        with pytest.raises(DatasetInvalid) as excinfo:
            parse_portfolio_json(json.dumps(document), "p.json")
        assert len(excinfo.value.issues) == 3

    def test_round_trip(self):
        portfolio = parse_portfolio_json(json.dumps(PORTFOLIO_DOC), "p.json")
        text = serialize_portfolio(portfolio)
        assert serialize_portfolio(parse_portfolio_json(text, "p.json")) == text


APPS_DOC = {
    "schema_version": "1",
    "apps": [
        {
            "app_id": "uniswap",
            "date": "2021-01-01",
            "app_fee_share": "0.5",
            "token_supply": "1000",
            "app_tx_count": 10,
        }
    ],
    "token_holdings": [
        {"entity_id": "alice", "app_id": "uniswap", "date": "2021-01-01", "amount": "100"}
    ],
}


class TestAppsJson:
    def test_happy_path(self, tmp_path):
        path = tmp_path / "apps.json"
        path.write_text(json.dumps(APPS_DOC))
        bundle = load_apps_json(path)
        assert bundle.apps[0].app_fee_share.value == frac("0.5")
        assert bundle.token_holdings[0].amount.value == 100

    def test_share_beyond_one(self):
        document = dict(
            APPS_DOC,
            apps=[
                {"app_id": "a", "date": "2021-01-01", "app_fee_share": "1.5", "app_tx_count": 1}
            ],
        )
        with pytest.raises(DatasetInvalid):
            parse_apps_json(json.dumps(document), "apps.json")

    def test_duplicate_app_day(self):
        document = dict(APPS_DOC, apps=APPS_DOC["apps"] * 2)
        with pytest.raises(DatasetInvalid) as excinfo:
            parse_apps_json(json.dumps(document), "apps.json")
        assert excinfo.value.issues[0].code == "duplicate_date"

    def test_round_trip(self):
        bundle = parse_apps_json(json.dumps(APPS_DOC), "apps.json")
        text = serialize_apps(bundle)
        assert serialize_apps(parse_apps_json(text, "apps.json")) == text


def l2_doc(consensus=None):
    internal = {
        "date": "2021-01-01",
        "energy_wh": "0",
        "coin_supply": "1000000",
        "tx_count": 5000,
        "pos_tx_share": "0.1",
    }
    entry = {
        "l2_id": "polygon",
        "date": "2021-01-01",
        "l1_fee_share": "0.2",
        "infra_energy_wh": "30000",
        "internal_day": internal,
    }
    if consensus:
        entry["consensus"] = consensus
    return {"schema_version": "1", "l2s": [entry]}


class TestL2Json:
    def test_happy_path_with_consensus_override(self, tmp_path):
        path = tmp_path / "l2.json"
        path.write_text(json.dumps(l2_doc("pos")))
        bundle = load_l2_json(path, POW)
        assert bundle.entries[0].l1_fee_share.value == frac("0.2")
        assert bundle.consensus == {"polygon": Consensus.POS}

    def test_internal_day_validated_against_host_when_no_override(self):
        # host is PoW but the internal day only carries a PoS share
        with pytest.raises(DatasetInvalid) as excinfo:
            parse_l2_json(json.dumps(l2_doc()), "l2.json", POW)
        assert excinfo.value.issues[0].column == "block_reward"

    def test_internal_date_mismatch(self):
        document = l2_doc("pos")
        document["l2s"][0]["internal_day"]["date"] = "2021-01-02"
        with pytest.raises(DatasetInvalid) as excinfo:
            parse_l2_json(json.dumps(document), "l2.json", POW)
        assert excinfo.value.issues[0].column == "internal_day"

    def test_round_trip(self):
        bundle = parse_l2_json(json.dumps(l2_doc("pos")), "l2.json", POW)
        text = serialize_l2(bundle)
        assert serialize_l2(parse_l2_json(text, "l2.json", POW)) == text


class TestJoins:
    def test_app_fee_shares_must_not_exceed_one(self, btc_day):
        bundle = parse_apps_json(
            json.dumps(
                {
                    "schema_version": "1",
                    "apps": [
                        {"app_id": "a", "date": "2021-01-01", "app_fee_share": "0.7", "app_tx_count": 1},
                        {"app_id": "b", "date": "2021-01-01", "app_fee_share": "0.4", "app_tx_count": 1},
                    ],
                }
            ),
            "apps.json",
        )
        dataset = Dataset("bitcoin", POW, (btc_day,), apps=bundle.apps)
        issues = join_issues(dataset)
        assert any("sum to" in issue.reason for issue in issues)

    def test_app_date_must_exist(self):
        bundle = parse_apps_json(json.dumps(APPS_DOC), "apps.json")
        dataset = Dataset("bitcoin", POW, (pow_day(date=dt.date(2021, 6, 1)),), apps=bundle.apps)
        issues = join_issues(dataset)
        assert any("no network day" in issue.reason for issue in issues)

    def test_token_holding_exceeding_supply(self, btc_day):
        document = dict(
            APPS_DOC,
            token_holdings=[
                {"entity_id": "a", "app_id": "uniswap", "date": "2021-01-01", "amount": "2000"}
            ],
        )
        bundle = parse_apps_json(json.dumps(document), "apps.json")
        dataset = Dataset("bitcoin", POW, (btc_day,), apps=bundle.apps)
        issues = join_issues(dataset, token_holdings=bundle.token_holdings)
        assert any("exceeds token supply" in issue.reason for issue in issues)

    def test_holding_beyond_coin_supply(self, btc_day):
        portfolio = parse_portfolio_json(
            json.dumps(
                dict(
                    PORTFOLIO_DOC,
                    holdings=[
                        {"entity_id": "a", "date": "2021-01-01", "amount": "19000000"}
                    ],
                    transactions=[],
                )
            ),
            "p.json",
        )
        dataset = Dataset("bitcoin", POW, (btc_day,))
        issues = join_issues(dataset, portfolio=portfolio)
        assert any("exceeds coin supply" in issue.reason for issue in issues)

    def test_network_id_mismatch(self, btc_day):
        portfolio = parse_portfolio_json(
            json.dumps(dict(PORTFOLIO_DOC, network_id="other", holdings=[], transactions=[])),
            "p.json",
        )
        dataset = Dataset("bitcoin", POW, (btc_day,))
        issues = join_issues(dataset, portfolio=portfolio)
        assert any(issue.column == "network_id" for issue in issues)

    def test_clean_join(self, btc_day):
        bundle = parse_apps_json(json.dumps(APPS_DOC), "apps.json")
        portfolio = parse_portfolio_json(json.dumps(PORTFOLIO_DOC), "p.json")
        dataset = Dataset("bitcoin", POW, (btc_day,), apps=bundle.apps)
        assert join_issues(dataset, portfolio, bundle.token_holdings) == []


class TestFillForward:
    def test_fills_gap_with_flagged_copy(self):
        days = (pow_day(date=dt.date(2021, 1, 1)), pow_day(date=dt.date(2021, 1, 3)))
        filled = fill_forward(days, {dt.date(2021, 1, 2)})
        assert [d.date.day for d in filled] == [1, 2, 3]
        middle = filled[1]
        assert middle.filled_forward
        assert middle.energy == days[0].energy
        assert not filled[0].filled_forward

    def test_date_before_first_day_fails(self):
        days = (pow_day(date=dt.date(2021, 1, 2)),)
        with pytest.raises(MissingDay):
            fill_forward(days, {dt.date(2021, 1, 1)})

    def test_existing_dates_untouched(self):
        days = (pow_day(date=dt.date(2021, 1, 1)),)
        assert fill_forward(days, {dt.date(2021, 1, 1)}) == days


def _clean_portfolio(entities: int) -> str:
    """A portfolio of one fee-and-count transaction and one holding per entity on each of three days."""
    holdings, transactions = [], []
    for day in range(1, 4):
        date = f"2021-01-0{day}"
        for entity in range(entities):
            holdings.append({"entity_id": f"e{entity}", "date": date, "amount": f"{entity}.{day:08d}"})
            transactions.append(
                {"entity_id": f"e{entity}", "date": date, "fee_paid": f"0.{entity:05d}", "tx_count": entity + 1}
            )
    document = {"schema_version": "1", "network_id": "net", "holdings": holdings, "transactions": transactions}
    return json.dumps(document)


def test_parsing_a_clean_portfolio_builds_no_fraction_per_record(monkeypatch):
    """Coin cells are read as integer units: the Fraction count does not grow with the record count."""
    build = Fraction.__new__
    calls = []

    def counted(cls, *args, **kwargs):
        calls.append(cls)
        return build(cls, *args, **kwargs)

    texts = {entities: _clean_portfolio(entities) for entities in (50, 100)}
    monkeypatch.setattr(Fraction, "__new__", counted)
    counts = []
    for entities, text in texts.items():
        calls.clear()
        portfolio = parse_portfolio_json(text, "portfolio.json")
        counts.append(len(calls))
        assert len(portfolio.holdings) == len(portfolio.transactions) == 3 * entities
    assert counts[1] == counts[0]


def test_parsing_a_clean_portfolio_runs_no_transaction_check(monkeypatch):
    """The reader builds transactions without ``__post_init__``: its columns already hold each rule.

    The public constructor still runs it and raises each of its three problems.
    """
    check = TransactionRecord.__post_init__
    calls = []

    def counted(record):
        calls.append(record)
        return check(record)

    texts = {entities: _clean_portfolio(entities) for entities in (50, 100)}
    monkeypatch.setattr(TransactionRecord, "__post_init__", counted)
    counts = []
    for entities, text in texts.items():
        calls.clear()
        portfolio = parse_portfolio_json(text, "portfolio.json")
        counts.append(len(calls))
        assert len(portfolio.transactions) == 3 * entities
    assert counts == [0, 0]

    date = dt.date(2021, 1, 1)
    problems = {
        (None, "at least one of fee_paid, gas_used, tx_count required"): lambda: TransactionRecord("e", date),
        ("gas_used", "must be >= 0"): lambda: TransactionRecord("e", date, gas_used=frac("-1")),
        ("tx_count", "must be a positive count"): lambda: TransactionRecord("e", date, tx_count=0),
    }
    for (column, reason), build in problems.items():
        with pytest.raises(RowProblem) as excinfo:
            build()
        assert (excinfo.value.column, excinfo.value.reason) == (column, reason)
    assert len(calls) == len(problems)
