"""A layer-2's consensus kind across files: the first valid entry, in argument order, fixes it.

That entry's own declaration fixes it, or else the host's kind, as within one
file, and a later file's undeclared entries are validated under that kind. A
later file's entry that declares another kind is that row's ``join_invalid``
issue naming the file that fixed it; a later declaration of the fixed kind is
no issue.
"""

import json

from carbon_ledger.ingestion import validate_files
from conftest import POW
from test_l2_consensus import entry, pos_internal, pow_internal
from test_validation_report import HEADER

DAYS = HEADER + "".join(f"\n2021-01-0{day},1000,900,60,1000,,250000,,," for day in (1, 2, 3)) + "\n"
UNDECLARED = entry("zk", "2021-01-01", pow_internal("2021-01-01"))
DECLARED_POS = entry("zk", "2021-01-02", pos_internal("2021-01-02"), "pos")
DECLARED_POW = entry("zk", "2021-01-02", pow_internal("2021-01-02"), "pow")


def issues(tmp_path, **files):
    days = tmp_path / "days.csv"
    days.write_text(DAYS)
    paths = [days]
    for name, entries in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"schema_version": "1", "l2s": entries}))
        paths.append(path)
    return [issue.render() for issue in validate_files(paths, "btc", POW, 18)]


def test_a_later_file_may_not_declare_another_kind_than_the_hosts_it_took(tmp_path):
    assert issues(tmp_path, a=[UNDECLARED], b=[DECLARED_POS]) == [
        "b.json:l2s row 1 column 'consensus': conflicting consensus for zk, the host's pow in a.json [join_invalid]"
    ]


def test_the_same_two_entries_in_one_file(tmp_path):
    assert issues(tmp_path, one=[UNDECLARED, DECLARED_POS]) == [
        "one.json:l2s row 2 column 'consensus': conflicting consensus for zk [row_invalid]"
    ]


def test_a_later_file_may_declare_the_kind_the_host_gave(tmp_path):
    assert issues(tmp_path, a=[UNDECLARED], b=[DECLARED_POW]) == []


def test_a_declaration_in_an_earlier_file_fixes_the_kind(tmp_path):
    later = entry("zk", "2021-01-03", pow_internal("2021-01-03"), "pow")
    assert issues(tmp_path, b=[DECLARED_POS], a=[UNDECLARED], c=[later]) == [
        "a.json:l2s row 1 column 'pos_tx_share': required for proof-of-stake days [row_invalid]",
        "c.json:l2s row 1 column 'consensus': conflicting consensus for zk, declared pos in b.json [join_invalid]",
    ]


def test_a_later_files_undeclared_entry_takes_the_kind_an_earlier_file_declared(tmp_path):
    undeclared_pos = entry("zk", "2021-01-03", pos_internal("2021-01-03"))
    assert issues(tmp_path, a=[DECLARED_POS], b=[undeclared_pos]) == []
    assert issues(tmp_path, one=[DECLARED_POS, undeclared_pos]) == []


def test_an_invalid_entry_in_an_earlier_file_fixes_nothing(tmp_path):
    invalid = entry("zk", "2021-01-01", None, "pow")
    assert issues(tmp_path, a=[invalid], b=[DECLARED_POS]) == [
        "a.json:l2s row 1 column 'internal_day': object required [row_invalid]"
    ]
