"""A JSON file is read one top-level member at a time, to the outcome of decoding it whole.

Each section a document's kind reads is turned into records as soon as it is
decoded; anything ``json.loads`` does not read as an object is decoded whole
again, so its issue is ``json.loads``'s own words. ``whole`` below is that
outcome: the text decoded whole, then its object read.
"""

import copy
import datetime as dt
import json
import random
import tracemalloc

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from carbon_ledger import DatasetInvalid, SchemaMismatch, ingestion
from carbon_ledger.cli import main
from conftest import POW, realistic_portfolio_json
from test_l2_consensus import entry, pos_internal, pow_internal
from test_l2_consensus_files import DAYS

HOLDING = {"entity_id": "h", "date": "2021-01-01", "amount": "1.5"}
BAD_HOLDING = {"entity_id": "h", "date": "2021-01-01", "amount": "-1"}
TRANSACTION = {"entity_id": "t", "date": "2021-01-02", "fee_paid": "0.01", "tx_count": 2}
APP = {"app_id": "dex", "date": "2021-01-01", "app_fee_share": "0.5", "app_tx_count": 10, "token_supply": "100"}
BAD_APP = {"app_id": "dex", "date": "2021-01-01", "app_fee_share": "2", "app_tx_count": 10}
TOKEN_HOLDING = {"entity_id": "h", "app_id": "dex", "date": "2021-01-01", "amount": "5"}
L2_ENTRY = entry("zk", "2021-01-01", pos_internal("2021-01-01"), "pos")

PORTFOLIO = json.dumps(
    {"schema_version": "1", "network_id": "btc", "holdings": [HOLDING, BAD_HOLDING], "transactions": [TRANSACTION]}
)
APPS = json.dumps({"schema_version": "1", "apps": [APP], "token_holdings": [TOKEN_HOLDING]})
L2 = json.dumps({"schema_version": "1", "l2s": [L2_ENTRY]})

# (text, load from a path, parse from text or object): each kind of document
KINDS = {
    "portfolio": (PORTFOLIO, ingestion.load_portfolio_json, ingestion.parse_portfolio_json),
    "apps": (APPS, ingestion.load_apps_json, ingestion.parse_apps_json),
    "l2": (
        L2, lambda path: ingestion.load_l2_json(path, POW), lambda text, name: ingestion.parse_l2_json(text, name, POW)
    ),
}


def outcome(call):
    """What a load gives: its value, or its error as plain data."""
    try:
        return call()
    except SchemaMismatch as exc:
        return "schema_mismatch", exc.source, exc.reason
    except DatasetInvalid as exc:
        return "invalid", [issue.render() for issue in exc.issues]


def whole(text, name, parse):
    """The outcome of decoding ``text`` whole with ``json.loads`` and then reading its object."""
    try:
        document = json.loads(text)
    except (ValueError, RecursionError) as exc:
        return "schema_mismatch", name, f"not valid JSON: {exc}"
    if not isinstance(document, dict):
        return "schema_mismatch", name, "top level must be an object"
    return outcome(lambda: parse(document, name))


def validated(tmp_path, *texts):
    """``validate_files``' rendered issues for a days CSV and the JSON files ``a.json``, ``b.json``, ..."""
    days = tmp_path / "days.csv"
    days.write_text(DAYS)
    paths = [days]
    for letter, text in zip("abcdefgh", texts):
        paths.append(tmp_path / f"{letter}.json")
        paths[-1].write_text(text, encoding="utf-8")
    return [issue.render() for issue in ingestion.validate_files(paths, "btc", POW, 18)]


def mismatched(found):
    return isinstance(found, tuple) and found[0] == "schema_mismatch"


def _check_text(tmp_path, kind, text):
    _, load, parse = KINDS[kind]
    path = tmp_path / "q.json"
    path.write_text(text, encoding="utf-8")
    expected = whole(text, "q.json", parse)
    assert outcome(lambda: load(path)) == expected
    assert outcome(lambda: parse(text, "q.json")) == expected
    if mismatched(expected) and expected[2].startswith(("not valid JSON", "top level")):
        issue = ingestion.ValidationIssue("q.json", "schema_mismatch", expected[2])
        assert ingestion.validate_files([path], "btc", POW) == [issue]
    return expected


@pytest.mark.parametrize("kind", KINDS)
def test_every_truncation_gives_the_whole_decodes_outcome(tmp_path, kind):
    text = KINDS[kind][0]
    outcomes = [_check_text(tmp_path, kind, text[:end]) for end in range(len(text) + 1)]
    assert all(map(mismatched, outcomes[:-1]))
    assert not mismatched(outcomes[-1])


NESTED = "[" * 100_000 + "]" * 100_000
TEXTS = {
    "trailing data": PORTFOLIO + " {}",
    "trailing text": PORTFOLIO + "x",
    "a second object": PORTFOLIO + PORTFOLIO,
    "trailing comma": PORTFOLIO[:-1] + ",}",
    "trailing comma in an empty object": "{,}",
    "BOM": "\ufeff" + PORTFOLIO,
    "an array": "[" + PORTFOLIO + "]",
    "a number": "5",
    "a string": '"holdings"',
    "null": "null",
    "NaN at the top": "NaN",
    "empty": "",
    "whitespace": " \n\t",
    "an open brace": "{",
    "an empty object": " {\n} \r\n",
    "a bare key": '{"schema_version"}',
    "no value": '{"schema_version": }',
    "no colon": '{"schema_version" "1"}',
    "a number key": '{1: "1"}',
    "single quotes": "{'schema_version': '1'}",
    "a bad escape in a key": '{"schema\\x": "1"}',
    "a control character in a key": '{"schema\n": "1"}',
    "a value with no separator": '{"schema_version": "1" "network_id": "btc"}',
    "deep nesting": '{"schema_version": "1", "network_id": "btc", "holdings": ' + NESTED + "}",
    "deep nesting in the last member": '{"schema_version": "1", "network_id": "btc", "x": ' + NESTED + "}",
    "a 5,000-digit number": (
        '{"schema_version": "1", "network_id": "btc", "holdings": [{"amount": 1' + "0" * 4999 + "}]}"
    ),
    "NaN in a row": PORTFOLIO.replace('"-1"', "NaN"),
    "Infinity in a row": PORTFOLIO.replace('"-1"', "-Infinity"),
}


@pytest.mark.parametrize("text", TEXTS.values(), ids=TEXTS)
def test_malformed_text_gives_the_whole_decodes_outcome(tmp_path, text):
    _check_text(tmp_path, "portfolio", text)


@pytest.mark.parametrize("name", ["trailing data", "BOM", "deep nesting", "a 5,000-digit number"])
def test_validate_prints_the_whole_decodes_issue(tmp_path, name):
    path = tmp_path / "q.json"
    path.write_text(TEXTS[name], encoding="utf-8")
    expected = whole(TEXTS[name], "q.json", ingestion.parse_portfolio_json)
    result = CliRunner().invoke(main, ["validate", str(path), "--network", "btc", "--consensus", "pow"])
    assert (result.exit_code, result.stdout) == (1, f"q.json: {expected[2]} [schema_mismatch]\n")


@pytest.mark.parametrize("kind", KINDS)
def test_utf8_bytes_parse_as_their_text(kind):
    text, _, parse = KINDS[kind]
    assert outcome(lambda: parse(text.encode(), "q.json")) == outcome(lambda: parse(text, "q.json"))
    assert outcome(lambda: parse(b"\xff" + text.encode(), "q.json")) == (
        "schema_mismatch",
        "q.json",
        "not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
    )


def _text(*members):
    return "{" + ", ".join(f"{json.dumps(key)}: {json.dumps(value)}" for key, value in members) + "}"


def test_a_section_given_twice_is_its_last(tmp_path):
    head = [("schema_version", "1"), ("network_id", "btc")]
    last_not_an_array = _text(*head, ("holdings", [BAD_HOLDING]), ("transactions", []), ("holdings", 5))
    assert _check_text(tmp_path, "portfolio", last_not_an_array) == (
        "invalid", ["q.json:holdings: must be an array [schema_mismatch]"]
    )
    last_an_array = _text(*head, ("holdings", 5), ("holdings", [HOLDING, BAD_HOLDING]))
    assert _check_text(tmp_path, "portfolio", last_an_array) == (
        "invalid", ["q.json:holdings row 2 column 'amount': negative value not allowed: '-1' [row_invalid]"]
    )
    assert validated(tmp_path, last_not_an_array) == ["a.json:holdings: must be an array [schema_mismatch]"]


def test_a_schema_version_given_twice_is_its_last(tmp_path):
    sections = [("network_id", "btc"), ("holdings", [HOLDING])]
    assert _check_text(tmp_path, "portfolio", _text(("schema_version", "1"), *sections, ("schema_version", "2"))) == (
        "schema_mismatch", "q.json", "unsupported schema_version '2'"
    )
    last_supported = _text(("schema_version", "2"), *sections, ("schema_version", "1"))
    assert _check_text(tmp_path, "portfolio", last_supported).holdings[0].entity_id == "h"


def test_holdings_and_apps_make_a_portfolio(tmp_path):
    text = _text(("schema_version", "1"), ("apps", [BAD_APP]), ("network_id", "btc"), ("holdings", [BAD_HOLDING]))
    assert validated(tmp_path, text) == [
        "a.json:holdings row 1 column 'amount': negative value not allowed: '-1' [row_invalid]"
    ]
    with pytest.raises(DatasetInvalid) as raised:  # a kind's loader reads only its own sections
        ingestion.load_portfolio_json(tmp_path / "a.json")
    assert len(raised.value.issues) == 1


def test_apps_and_l2s_make_apps_and_fix_no_layer2_kind(tmp_path):
    later = _text(("schema_version", "1"), ("l2s", [entry("zk", "2021-01-02", pow_internal("2021-01-02"), "pow")]))
    apps = _text(("schema_version", "1"), ("l2s", [L2_ENTRY]), ("apps", []), ("token_holdings", []))
    assert validated(tmp_path, apps, later) == []
    # the same entry in a layer-2 file fixes zk to pos, so the later declaration conflicts
    assert validated(tmp_path, L2, later) == [
        "b.json:l2s row 1 column 'consensus': conflicting consensus for zk, declared pos in a.json [join_invalid]"
    ]


@pytest.mark.parametrize(
    "tail, reason",
    [
        ([("schema_version", "2")], "unsupported schema_version '2'"),
        ([("schema_version", "1"), ("network_id", None)], "missing network_id"),
        ([("schema_version", "1")], "missing network_id"),
    ],
    ids=["schema_version", "network_id null", "network_id absent"],
)
def test_a_bad_header_after_the_sections_hides_their_row_issues(tmp_path, tail, reason):
    text = _text(("holdings", [BAD_HOLDING]), ("transactions", [{"date": "x"}]), *tail)
    assert _check_text(tmp_path, "portfolio", text) == ("schema_mismatch", "q.json", reason)
    assert validated(tmp_path, text) == [f"a.json: {reason} [schema_mismatch]"]


def test_an_object_the_walk_refuses_but_json_loads_reads_is_read_again_from_the_start(monkeypatch):
    # the walk's scanner refuses the last member, which json.loads, reading the text whole, does not
    real_scan = ingestion._SCAN

    def scan(text, at):
        if text.startswith('[{"entity_id": "t"', at):
            raise ValueError("refused")
        return real_scan(text, at)

    monkeypatch.setattr(ingestion, "_SCAN", scan)
    head = [("schema_version", "1"), ("network_id", "btc")]
    text = _text(*head, ("holdings", [HOLDING]), ("transactions", [TRANSACTION]))
    portfolio = ingestion.parse_portfolio_json(text, "q.json")
    assert portfolio == ingestion.parse_portfolio_json(json.loads(text), "q.json")
    assert (len(portfolio.holdings), len(portfolio.transactions)) == (1, 1)


def test_a_load_peaks_below_the_whole_decode(tmp_path):
    """Loading a 365 x 100 portfolio file peaks below nine tenths of ``json.loads`` of its text.

    The holdings are records before the transactions are decoded, so the
    peak holds the text, the holding records and the transactions' tree,
    not the text and both sections' trees at once.
    """
    path = tmp_path / "portfolio.json"
    path.write_text(realistic_portfolio_json(random.Random(5), "pow", "bitcoin", dt.date(2021, 1, 1), 365, 100))
    tracemalloc.start()
    try:
        json.loads(path.read_text())
        decode_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        portfolio = ingestion.load_portfolio_json(path)
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(portfolio.holdings), len(portfolio.transactions)) == (36_500, 36_500)
    assert load_peak < 0.9 * decode_peak, (load_peak, decode_peak)


CELLS = st.one_of(
    st.sampled_from(["1", "0.5", "-1", "1.5x", "", "2021-01-01", "2021-13-01", "e"]),
    st.integers(-3, 3), st.none(), st.booleans(), st.floats(allow_nan=False, allow_infinity=False),
)
HOLDING_ROWS = st.lists(
    st.one_of(
        st.fixed_dictionaries({"entity_id": CELLS, "date": st.sampled_from(["2021-01-01", "x"]), "amount": CELLS}),
        CELLS,
    ),
    max_size=4,
)
TRANSACTION_ROWS = st.lists(
    st.fixed_dictionaries({"entity_id": st.just("t"), "date": st.just("2021-01-01")},
                          optional={"fee_paid": CELLS, "tx_count": CELLS, "gas_used": CELLS}),
    max_size=4,
)
SECTION = {
    "holdings": st.one_of(HOLDING_ROWS, CELLS),
    "transactions": st.one_of(TRANSACTION_ROWS, CELLS),
    "apps": st.lists(st.fixed_dictionaries({"app_id": st.just("dex"), "date": st.just("2021-01-01"),
                                            "app_fee_share": CELLS, "app_tx_count": CELLS}), max_size=3),
    "token_holdings": st.lists(st.fixed_dictionaries({"entity_id": st.just("h"), "app_id": st.just("dex"),
                                                      "date": st.just("2021-01-01"), "amount": CELLS}), max_size=3),
    "schema_version": st.sampled_from(["1", "1.2", "2", ""]),
    "network_id": st.sampled_from(["btc", ""]),
}


@st.composite
def documents(draw):
    keys = draw(st.lists(st.sampled_from(sorted(SECTION)), unique=True, min_size=1))
    return {key: draw(SECTION[key]) for key in draw(st.permutations(keys))}


@settings(max_examples=200, deadline=None)
@given(documents(), st.sampled_from(["portfolio", "apps"]), st.sampled_from([None, 0, 2]))
def test_a_text_loads_as_its_object_does(document, kind, indent):
    parse = KINDS[kind][2]
    text = json.dumps(document, indent=indent)
    assert outcome(lambda: parse(text, "q.json")) == outcome(lambda: parse(copy.deepcopy(document), "q.json"))
