"""Golden validation reports: the exact ``validate`` stdout for malformed inputs.

One malformed fixture per document kind (network CSV, portfolio, app
registry, layer-2 descriptors, unreadable JSON) plus a row-valid bundle whose
cross-file joins fail. Both the ``--json`` report and the text report are
pinned byte for byte, so the reported rows, columns, reasons and codes stay
fixed, including which column is reported first when a row has several
problems.
"""

import hashlib
import json

import pytest
from click.testing import CliRunner

from carbon_ledger.cli import main
from carbon_ledger.ingestion import NETWORK_CSV_COLUMNS

HEADER = ",".join(NETWORK_CSV_COLUMNS)


def day(date, **cells):
    """A clean PoW internal-day object, with ``cells`` overriding its columns."""
    fields = {
        "date": date,
        "energy_wh": "1000",
        "block_reward": "900",
        "tx_fees_total": "60",
        "coin_supply": "1000",
        "tx_count": 5,
    }
    fields.update(cells)
    return {k: v for k, v in fields.items() if v is not None}


def l2(l2_id, date, internal, **cells):
    entry = {"l2_id": l2_id, "date": date, "l1_fee_share": "0.2", "infra_energy_wh": "30000"}
    entry.update(cells)
    if internal is not None:
        entry["internal_day"] = internal
    return entry


POS_INTERNAL = {"date": "2021-01-01", "energy_wh": "0", "coin_supply": "1000", "tx_count": 5, "pos_tx_share": "0.1"}

MALFORMED_CSV_ROWS = [
    "2021-01-01,1000,900,60,18716000,,250000,,,400",
    "2021-01-02,1000,900,60,18716000",
    "2021-01-01,1000,900,60,18716000,,250000,,,",
    "2021-01-01,-5,900,60,0,,x,,,",
    "2021-01-03,-5,900,60,0,2,x,,,",
    "2021-01-04,1000,900,60,0,2,250000,,,",
    "2021-01-05,1000,900,60,18716000,1,250000,,,",
    "",
    "2021-01-06,1000,900,60,18716000,,0,,,",
    "2021-01-07,1000,900,0,18716000,,0,5,,",
    "2021-01-08,1000,,60,18716000,,250000,,,",
    "2021-01-09,1000,0,0,18716000,,250000,,,",
    "2021-01-10,1000,900.0000000000000000001,60,18716000,,250000,,,",
    "2021-13-01,1000,900,60,18716000,,250000,,,",
    "2021-01-11,1e5,900,60,18716000,,250000,,,",
    "2021-01-12,1000,900,60,18716000,,250000,,1.5,",
    "2021-01-13,1000,900,60,18716000,,-3,,,",
    "2021-01-14,,900,60,18716000,,250000,,,",
    "2021-01-15,1000,900,60,18716000,,250000,,,-1",
    "2021-01-16,1000,900,60,18716000,0.5,250000,,,",
    "2021-01-08,1000,900,60,18716000,,250000,,,",
    "2021-01-17,1000,900,60,18716000,,250000,1.5.0,,",
]

MALFORMED_PORTFOLIO = {
    "schema_version": "1",
    "network_id": "bitcoin",
    "holdings": [
        {"entity_id": "a", "date": "2021-01-01", "amount": "1.5"},
        {"entity_id": "a", "date": "2021-01-01", "amount": 1.5},
        {"entity_id": "a", "date": "2021-01-01", "amount": True},
        {"entity_id": "a", "date": "2021-01-01", "amount": "0.1234567890123456789"},
        "not an object",
        [1, 2],
        {"entity_id": "", "date": "01/02/2021", "amount": "-1"},
        {"entity_id": 5, "date": "2021-01-01", "amount": "2"},
        {"entity_id": "b", "date": "2021-01-01"},
        {"entity_id": "b", "date": "2021-01-01", "amount": [1]},
        {"entity_id": "b", "date": "2021-1-1", "amount": 3},
        {"entity_id": "b", "amount": "3"},
        {"entity_id": "b", "date": 20210101, "amount": ""},
    ],
    "transactions": [
        {"entity_id": "a", "date": "2021-01-01", "fee_paid": "0.001"},
        {"entity_id": "a", "date": "2021-01-01"},
        {"entity_id": "a", "date": "2021-01-01", "fee_paid": 0.1},
        {"entity_id": "a", "date": "2021-01-01", "gas_used": False},
        {"entity_id": "a", "date": "2021-01-01", "tx_count": 0},
        {"entity_id": "a", "date": "2021-01-01", "tx_count": "1.5"},
        {"entity_id": "a", "date": "2021-01-01", "tx_count": -2},
        {"entity_id": None, "date": "x", "fee_paid": "1e3", "gas_used": "x", "tx_count": "y"},
        {"entity_id": None, "date": "x", "gas_used": "-1", "tx_count": "y"},
        {"entity_id": None, "date": "x", "tx_count": "y"},
        {"date": "x", "tx_count": 1},
        {"entity_id": "a", "date": "x"},
        42,
        {"entity_id": "a", "date": "2021-01-01", "fee_paid": "0.0000000000000000001"},
    ],
}

MALFORMED_APPS = {
    "schema_version": "1",
    "apps": [
        {"app_id": "swap", "date": "2021-01-01", "app_fee_share": "0.5", "app_tx_count": 10, "token_supply": "1000"},
        {"app_id": "swap", "date": "2021-01-01", "app_fee_share": "0.2", "app_tx_count": 10},
        {"app_id": "swap", "date": "2021-01-01", "app_fee_share": "2", "app_tx_count": "x"},
        {"app_id": "lend", "date": "2021-01-02", "app_fee_share": "2", "app_tx_count": "x"},
        {"app_id": "lend", "date": "2021-01-03", "app_fee_share": "0.1", "token_supply": "0", "app_tx_count": 1},
        {"app_id": "lend", "date": "2021-01-04", "app_fee_share": "0.1",
         "token_supply": "0.1234567890123456789", "app_tx_count": 1},
        {"app_id": "lend", "date": "2021-01-05", "app_fee_share": "0.1"},
        {"date": "2021-01-06", "app_fee_share": "0.1", "app_tx_count": 1},
        None,
        {"app_id": "lend", "date": "2021-01-07", "app_fee_share": 0.1, "app_tx_count": 1},
        {"app_id": "lend", "date": "2021-01-08", "app_fee_share": "0.1", "app_tx_count": True},
    ],
    "token_holdings": [
        {"entity_id": "a", "app_id": "swap", "date": "2021-01-01", "amount": "5"},
        "x",
        {"entity_id": "", "app_id": "", "date": "bad", "amount": 1.0},
        {"entity_id": "a", "date": "2021-01-01", "amount": "5"},
        {"entity_id": "a", "app_id": "swap", "date": "2021-01-01", "amount": "5.0000000000000000001"},
    ],
}

MALFORMED_L2S = {
    "schema_version": "1",
    "l2s": [
        l2("poly", "2021-01-01", POS_INTERNAL, consensus="pos"),
        l2("poly", "2021-01-01", POS_INTERNAL, consensus="pos"),
        l2("poly", "2021-01-02", day("2021-01-02"), consensus="pow"),
        l2("arb", "2021-01-01", day("2021-01-01"), consensus="pos2"),
        l2("arb", "2021-01-02", day("2021-01-02"), consensus=5),
        l2("arb", "2021-01-03", day("2021-01-03"), consensus=""),
        l2("opt", "2021-01-01", None),
        l2("opt", "2021-01-02", day("2021-01-03")),
        l2("opt", "2021-01-04", day("2021-01-04", energy_wh="-1")),
        l2("opt", "2021-01-05", day("2021-01-05", block_reward=None)),
        l2("zk", "2021-01-01", day("2021-01-01"), consensus="pos"),
        l2("opt", "2021-01-06", day("2021-01-06"), l1_fee_share="1.5"),
        l2("opt", "2021-01-07", day("2021-01-07"), infra_energy_wh=None),
        [],
        l2("zk", "2021-01-02", day("2021-01-02")),
        l2("opt", "2021-01-08", "2021-01-08"),
        l2("opt", "2021-01-09", day("2021-01-09", tx_count=0)),
    ],
}

JOIN_CSV_ROWS = [
    "2021-01-01,1000,900,60,1000,,250000,,,",
    "2021-01-02,1000,900,60,1000,0.5,250000,,,",
    "2021-01-03,1000,900,60,1000,,250000,,,",
]

JOIN_PORTFOLIO = {
    "schema_version": "1",
    "network_id": "ethereum",
    "holdings": [
        {"entity_id": "a", "date": "2021-01-01", "amount": "1000"},
        {"entity_id": "a", "date": "2021-02-01", "amount": "1"},
        {"entity_id": "b", "date": "2021-01-02", "amount": "600"},
    ],
    "transactions": [
        {"entity_id": "a", "date": "2021-01-01", "tx_count": 1},
        {"entity_id": "c", "date": "2021-03-01", "fee_paid": "0.1"},
    ],
}

JOIN_APPS = {
    "schema_version": "1",
    "apps": [
        {"app_id": "swap", "date": "2021-01-01", "app_fee_share": "0.6", "app_tx_count": 10, "token_supply": "1000"},
        {"app_id": "lend", "date": "2021-01-01", "app_fee_share": "0.5", "app_tx_count": 10},
        {"app_id": "late", "date": "2021-02-01", "app_fee_share": "0.1", "app_tx_count": 1},
        {"app_id": "bare", "date": "2021-01-02", "app_fee_share": "0.1", "app_tx_count": 1},
    ],
    "token_holdings": [
        {"entity_id": "a", "app_id": "ghost", "date": "2021-01-01", "amount": "5"},
        {"entity_id": "a", "app_id": "bare", "date": "2021-01-02", "amount": "5"},
        {"entity_id": "b", "app_id": "swap", "date": "2021-01-01", "amount": "2000"},
        {"entity_id": "c", "app_id": "swap", "date": "2021-01-01", "amount": "1000"},
    ],
}

JOIN_L2S = {
    "schema_version": "1",
    "l2s": [
        l2("poly", "2021-02-01", dict(POS_INTERNAL, date="2021-02-01"), consensus="pos"),
        l2("poly", "2021-01-01", POS_INTERNAL, consensus="pos"),
    ],
}


def write_malformed(tmp_path):
    files = {
        "days.csv": HEADER + "\n" + "\n".join(MALFORMED_CSV_ROWS) + "\n",
        "header.csv": "date,energy\n2021-01-01,1\n",
        "empty.csv": "",
        "portfolio.json": json.dumps(MALFORMED_PORTFOLIO),
        "noversion.json": json.dumps({"apps": []}),
        "apps.json": json.dumps(MALFORMED_APPS),
        "l2.json": json.dumps(MALFORMED_L2S),
        "badversion.json": json.dumps({"schema_version": "2", "l2s": []}),
        "broken.json": '{"holdings": [',
        "list.json": "[]",
        "other.json": json.dumps({"schema_version": "1", "days": []}),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    # header.csv and empty.csv come first: the last CSV named is the dataset
    order = ["header.csv", "empty.csv", "days.csv", *list(files)[3:]]
    return [str(tmp_path / name) for name in order]


def write_join_failures(tmp_path):
    files = {
        "days.csv": HEADER + "\n" + "\n".join(JOIN_CSV_ROWS) + "\n",
        "portfolio.json": json.dumps(JOIN_PORTFOLIO),
        "apps.json": json.dumps(JOIN_APPS),
        "l2.json": json.dumps(JOIN_L2S),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return [str(tmp_path / name) for name in files]


CASES = {"malformed": write_malformed, "join_failures": write_join_failures}


def run_validate(tmp_path, case, *flags):
    paths = CASES[case](tmp_path)
    result = CliRunner().invoke(
        main, ["validate", *paths, "--network", "bitcoin", "--consensus", "pow", *flags]
    )
    assert result.exit_code == 1, result.output
    return result.stdout


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


EXPECTED_TEXT = {
    "malformed": """\
header.csv: header 'date,energy' does not match 'date,energy_wh,block_reward,tx_fees_total,coin_supply,lost_coin_fraction,tx_count,gas_total,pos_tx_share,emission_factor_g_per_kwh' [schema_mismatch]
empty.csv: empty file [schema_mismatch]
days.csv row 2: expected 10 cells, got 5 [row_invalid]
days.csv row 3 column 'date': duplicate date 2021-01-01 [duplicate_date]
days.csv row 4 column 'date': duplicate date 2021-01-01 [duplicate_date]
days.csv row 5 column 'energy_wh': negative value not allowed: '-5' [row_invalid]
days.csv row 6 column 'coin_supply': must be > 0 [row_invalid]
days.csv row 7 column 'lost_coin_fraction': must be < 1 [row_invalid]
days.csv row 9 column 'tx_fees_total': must be 0 on a day with no transactions [row_invalid]
days.csv row 10 column 'gas_total': must be 0 on a day with no transactions [row_invalid]
days.csv row 11 column 'block_reward': required for proof-of-work days [row_invalid]
days.csv row 12 column 'block_reward': zero total miner revenue; weighting undefined [row_invalid]
days.csv row 13 column 'block_reward': '900.0000000000000000001' has more than 18 fractional digits; precision exceeds the smallest denomination [row_invalid]
days.csv row 14 column 'date': not an ISO-8601 date: '2021-13-01' [row_invalid]
days.csv row 15 column 'energy_wh': not a plain decimal: '1e5' [row_invalid]
days.csv row 16 column 'pos_tx_share': must be within [0, 1], got 3/2 [row_invalid]
days.csv row 17 column 'tx_count': not a non-negative integer: '-3' [row_invalid]
days.csv row 18 column 'energy_wh': value required [row_invalid]
days.csv row 19 column 'emission_factor_g_per_kwh': negative value not allowed: '-1' [row_invalid]
days.csv row 22 column 'gas_total': not a plain decimal: '1.5.0' [row_invalid]
portfolio.json:holdings row 2 column 'amount': decimal must be a string to avoid float mangling [row_invalid]
portfolio.json:holdings row 3 column 'amount': decimal must be a string, not a boolean [row_invalid]
portfolio.json:holdings row 4 column 'amount': '0.1234567890123456789' has more than 18 fractional digits; precision exceeds the smallest denomination [row_invalid]
portfolio.json:holdings row 5: holding must be an object [row_invalid]
portfolio.json:holdings row 6: holding must be an object [row_invalid]
portfolio.json:holdings row 7 column 'amount': negative value not allowed: '-1' [row_invalid]
portfolio.json:holdings row 8 column 'entity_id': non-empty string required [row_invalid]
portfolio.json:holdings row 9 column 'amount': value required [row_invalid]
portfolio.json:holdings row 10 column 'amount': unsupported value type list [row_invalid]
portfolio.json:holdings row 11 column 'date': not an ISO-8601 date: '2021-1-1' [row_invalid]
portfolio.json:holdings row 12 column 'date': value required [row_invalid]
portfolio.json:holdings row 13 column 'amount': value required [row_invalid]
portfolio.json:transactions row 3 column 'fee_paid': decimal must be a string to avoid float mangling [row_invalid]
portfolio.json:transactions row 4 column 'gas_used': decimal must be a string, not a boolean [row_invalid]
portfolio.json:transactions row 5 column 'tx_count': must be a positive count [row_invalid]
portfolio.json:transactions row 6 column 'tx_count': not a non-negative integer: '1.5' [row_invalid]
portfolio.json:transactions row 7 column 'tx_count': not a non-negative integer: '-2' [row_invalid]
portfolio.json:transactions row 8 column 'fee_paid': not a plain decimal: '1e3' [row_invalid]
portfolio.json:transactions row 9 column 'gas_used': negative value not allowed: '-1' [row_invalid]
portfolio.json:transactions row 10 column 'tx_count': not a non-negative integer: 'y' [row_invalid]
portfolio.json:transactions row 11 column 'entity_id': non-empty string required [row_invalid]
portfolio.json:transactions row 12 column 'date': not an ISO-8601 date: 'x' [row_invalid]
portfolio.json:transactions row 13: transaction must be an object [row_invalid]
portfolio.json:transactions row 14 column 'fee_paid': '0.0000000000000000001' has more than 18 fractional digits; precision exceeds the smallest denomination [row_invalid]
noversion.json: missing schema_version [schema_mismatch]
apps.json:apps row 2 column 'date': duplicate app day swap 2021-01-01 [duplicate_date]
apps.json:apps row 3 column 'date': duplicate app day swap 2021-01-01 [duplicate_date]
apps.json:apps row 4 column 'app_fee_share': must be within [0, 1], got 2 [row_invalid]
apps.json:apps row 5 column 'token_supply': must be > 0 when present [row_invalid]
apps.json:apps row 6 column 'token_supply': '0.1234567890123456789' has more than 18 fractional digits; precision exceeds the smallest denomination [row_invalid]
apps.json:apps row 7 column 'app_tx_count': value required [row_invalid]
apps.json:apps row 8 column 'app_id': non-empty string required [row_invalid]
apps.json:apps row 9: app must be an object [row_invalid]
apps.json:apps row 10 column 'app_fee_share': decimal must be a string to avoid float mangling [row_invalid]
apps.json:apps row 11 column 'app_tx_count': decimal must be a string, not a boolean [row_invalid]
apps.json:token_holdings row 2: token holding must be an object [row_invalid]
apps.json:token_holdings row 3 column 'amount': decimal must be a string to avoid float mangling [row_invalid]
apps.json:token_holdings row 4 column 'app_id': non-empty string required [row_invalid]
apps.json:token_holdings row 5 column 'amount': '5.0000000000000000001' has more than 18 fractional digits; precision exceeds the smallest denomination [row_invalid]
l2.json:l2s row 2 column 'date': duplicate layer-2 day poly 2021-01-01 [duplicate_date]
l2.json:l2s row 3 column 'consensus': conflicting consensus for poly [row_invalid]
l2.json:l2s row 4 column 'consensus': must be 'pow' or 'pos', got 'pos2' [row_invalid]
l2.json:l2s row 5 column 'consensus': must be 'pow' or 'pos', got 5 [row_invalid]
l2.json:l2s row 6 column 'consensus': must be 'pow' or 'pos', got '' [row_invalid]
l2.json:l2s row 7 column 'internal_day': object required [row_invalid]
l2.json:l2s row 8 column 'internal_day': internal day date must match entry date [row_invalid]
l2.json:l2s row 9 column 'energy_wh': negative value not allowed: '-1' [row_invalid]
l2.json:l2s row 10 column 'block_reward': required for proof-of-work days [row_invalid]
l2.json:l2s row 11 column 'pos_tx_share': required for proof-of-stake days [row_invalid]
l2.json:l2s row 12 column 'l1_fee_share': must be within [0, 1], got 3/2 [row_invalid]
l2.json:l2s row 13 column 'infra_energy_wh': value required [row_invalid]
l2.json:l2s row 14: layer-2 entry must be an object [row_invalid]
l2.json:l2s row 16 column 'internal_day': object required [row_invalid]
l2.json:l2s row 17 column 'tx_fees_total': must be 0 on a day with no transactions [row_invalid]
badversion.json: unsupported schema_version '2' [schema_mismatch]
broken.json: not valid JSON: Expecting value: line 1 column 15 (char 14) [schema_mismatch]
list.json: top level must be an object [schema_mismatch]
other.json: unrecognized document kind [schema_mismatch]
""",
    "join_failures": """\
apps column 'date': late: no network day for 2021-02-01 [join_invalid]
apps column 'app_fee_share': 2021-01-01: app fee shares sum to 11/10 > 1 [join_invalid]
l2s column 'date': poly: no network day for 2021-02-01 [join_invalid]
token_holdings column 'app_id': a: no app day for ghost on 2021-01-01 [join_invalid]
token_holdings column 'amount': bare has no token supply on 2021-01-02 [join_invalid]
token_holdings column 'amount': b: amount 2000 exceeds token supply 1000 [join_invalid]
portfolio column 'network_id': portfolio is for 'ethereum', dataset is 'bitcoin' [join_invalid]
portfolio.holdings column 'date': a: no network day for 2021-02-01 [join_invalid]
portfolio.holdings column 'amount': b: amount 600 exceeds coin supply net of lost coins 500 on 2021-01-02 [join_invalid]
portfolio.transactions column 'date': c: no network day for 2021-03-01 [join_invalid]
""",
}

EXPECTED_JSON_SHA256 = {
    "malformed": "700f8ddbc777d5443022fa0ca5d04cab1e195e6de77264cdf80e283991cf271d",
    "join_failures": "4b17baf8916642547758e9fd30f8f50e4bda2d3f4595ab49b591b15449f3cfec",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_text_report_is_pinned(tmp_path, case):
    assert run_validate(tmp_path, case) == EXPECTED_TEXT[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_json_report_is_pinned(tmp_path, case):
    stdout = run_validate(tmp_path, case, "--json")
    assert sha256(stdout) == EXPECTED_JSON_SHA256[case]
    # the JSON report carries the same issues, in the same order, as the text one
    lines = []
    for issue in json.loads(stdout)["issues"]:
        where = issue["source"]
        if issue["row"] is not None:
            where += f" row {issue['row']}"
        if issue["column"]:
            where += f" column {issue['column']!r}"
        lines.append(f"{where}: {issue['reason']} [{issue['code']}]\n")
    assert "".join(lines) == EXPECTED_TEXT[case]
