"""A layer-2's consensus kind is fixed by its first valid entry in a file.

That entry's own ``consensus`` declaration fixes it, or else the host's kind.
Each later entry is validated under the fixed kind, and one that declares
another kind is ``conflicting consensus for <id>``. An entry that is invalid
fixes nothing, so it cannot make a later valid entry conflict. Every document
that loads survives ``serialize_l2`` and a reload unchanged.
"""

import json

import pytest

from carbon_ledger import DatasetInvalid, serialize_l2
from carbon_ledger.ingestion import parse_l2_json
from conftest import POS, POW


def pow_internal(date):
    return {
        "date": date, "energy_wh": "1000", "block_reward": "900", "tx_fees_total": "60",
        "coin_supply": "1000", "tx_count": 5,
    }


def pos_internal(date):
    return {"date": date, "energy_wh": "0", "coin_supply": "1000", "tx_count": 5, "pos_tx_share": "0.1"}


def entry(l2_id, date, internal, consensus=None):
    row = {"l2_id": l2_id, "date": date, "l1_fee_share": "0.2", "infra_energy_wh": "30000"}
    if internal is not None:
        row["internal_day"] = internal
    if consensus is not None:
        row["consensus"] = consensus
    return row


def document(*entries):
    return {"schema_version": "1", "l2s": list(entries)}


# name → (document, its rendered issues under a PoW host; [] when it loads)
CASES = {
    "invalid_row_fixes_nothing": (
        document(
            entry("a", "2021-01-01", None, "pos"),
            entry("a", "2021-01-02", pow_internal("2021-01-02"), "pow"),
        ),
        ["l2.json:l2s row 1 column 'internal_day': object required [row_invalid]"],
    ),
    "invalid_undeclared_row_fixes_nothing": (
        document(
            entry("a", "2021-01-01", pos_internal("2021-01-01")),
            entry("a", "2021-01-02", pos_internal("2021-01-02"), "pos"),
        ),
        ["l2.json:l2s row 1 column 'block_reward': required for proof-of-work days [row_invalid]"],
    ),
    "later_conflicting_declaration": (
        document(
            entry("zk", "2021-01-01", pow_internal("2021-01-01")),
            entry("zk", "2021-01-02", pos_internal("2021-01-02"), "pos"),
        ),
        ["l2.json:l2s row 2 column 'consensus': conflicting consensus for zk [row_invalid]"],
    ),
    "later_declaration_of_the_host_kind": (
        document(
            entry("zk", "2021-01-01", pow_internal("2021-01-01")),
            entry("zk", "2021-01-02", pow_internal("2021-01-02"), "pow"),
        ),
        [],
    ),
    "declaration_binds_later_undeclared_rows": (
        document(
            entry("a", "2021-01-01", pos_internal("2021-01-01"), "pos"),
            entry("a", "2021-01-02", pos_internal("2021-01-02")),
        ),
        [],
    ),
}


def issues_of(doc, host):
    try:
        parse_l2_json(json.dumps(doc), "l2.json", host)
    except DatasetInvalid as exc:
        return [issue.render() for issue in exc.issues]
    return []


@pytest.mark.parametrize("name", sorted(CASES))
def test_issues_under_a_pow_host(name):
    doc, expected = CASES[name]
    assert issues_of(doc, POW) == expected


@pytest.mark.parametrize("host", [POW, POS], ids=["pow", "pos"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_a_document_that_loads_round_trips(name, host):
    try:
        bundle = parse_l2_json(json.dumps(CASES[name][0]), "l2.json", host)
    except DatasetInvalid:
        return  # nothing loaded, nothing to write back
    text = serialize_l2(bundle)
    reloaded = parse_l2_json(text, "l2.json", host)
    assert reloaded == bundle
    assert serialize_l2(reloaded) == text


def test_only_declarations_are_kept():
    doc = CASES["later_declaration_of_the_host_kind"][0]
    assert parse_l2_json(json.dumps(doc), "l2.json", POW).consensus == {"zk": POW.kind}
    undeclared = document(entry("zk", "2021-01-01", pow_internal("2021-01-01")))
    assert parse_l2_json(json.dumps(undeclared), "l2.json", POW).consensus == {}
