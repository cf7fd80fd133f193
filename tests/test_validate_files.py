"""``ingestion.validate_files``: the whole of ``validate``'s checking, called in process.

It returns the issues ``validate --json`` prints, in the same order, and []
for a clean bundle of days, a portfolio, apps and layer-2 descriptors.
"""

import dataclasses
import json

import pytest
from click.testing import CliRunner

from carbon_ledger import Consensus, ConsensusParams
from carbon_ledger.cli import main
from carbon_ledger.ingestion import validate_files
from test_validation_report import CASES, HEADER, POS_INTERNAL, day, l2


def run_json(paths, consensus):
    result = CliRunner().invoke(main, ["validate", *paths, "--network", "bitcoin", "--consensus", consensus, "--json"])
    return result.exit_code, json.loads(result.stdout)


@pytest.mark.parametrize("consensus", ["pow", "pos"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_same_issues_in_the_same_order_as_validate_json(tmp_path, case, consensus):
    paths = CASES[case](tmp_path)
    issues = validate_files(paths, "bitcoin", ConsensusParams(Consensus(consensus)), 18)
    exit_code, printed = run_json(paths, consensus)
    assert issues
    assert (exit_code, printed) == (1, {"ok": False, "issues": [dataclasses.asdict(issue) for issue in issues]})


def write_clean(tmp_path):
    files = {
        "days.csv": HEADER + "\n2021-01-01,1000,900,60,1000,,250000,,,\n2021-01-02,1000,900,60,1000,,250000,,,\n",
        "portfolio.json": {
            "schema_version": "1",
            "network_id": "bitcoin",
            "holdings": [{"entity_id": "a", "date": "2021-01-01", "amount": "10"}],
            "transactions": [{"entity_id": "a", "date": "2021-01-02", "fee_paid": "0.1"}],
        },
        "apps.json": {
            "schema_version": "1",
            "apps": [
                {"app_id": "swap", "date": "2021-01-01", "app_fee_share": "0.5", "app_tx_count": 10,
                 "token_supply": "1000"},
            ],
            "token_holdings": [{"entity_id": "a", "app_id": "swap", "date": "2021-01-01", "amount": "5"}],
        },
        "l2.json": {
            "schema_version": "1",
            "l2s": [
                l2("poly", "2021-01-01", POS_INTERNAL, consensus="pos"),
                l2("opt", "2021-01-02", day("2021-01-02")),
            ],
        },
    }
    for name, content in files.items():
        (tmp_path / name).write_text(content if isinstance(content, str) else json.dumps(content))
    return [str(tmp_path / name) for name in files]


def test_clean_bundle_has_no_issue(tmp_path):
    paths = write_clean(tmp_path)
    assert validate_files(paths, "bitcoin", ConsensusParams(Consensus.POW), 18) == []
    assert run_json(paths, "pow") == (0, {"ok": True, "issues": []})
