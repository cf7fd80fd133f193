"""The sections of a JSON document: each must be an array, and its rows are freed as they are read.

A load drops each row from the decoded document once the row's record is
built, so loading a portfolio costs little memory beyond its decoded tree;
row numbers and issues are those of the rows' places in the file.
"""

import datetime as dt
import json
import random
import tracemalloc

import pytest
from click.testing import CliRunner

from carbon_ledger import DatasetInvalid, ingestion
from carbon_ledger.cli import main
from conftest import realistic_portfolio_json
from test_validate_allocate import POW_DAYS

HOLDING = {"entity_id": "h", "date": "2021-01-01", "amount": "1"}
PORTFOLIO = {"schema_version": "1", "network_id": "btc", "holdings": [HOLDING], "transactions": []}
APPS = {"schema_version": "1", "apps": [], "token_holdings": []}
L2 = {"schema_version": "1", "l2s": []}

# (document, section): every section of every kind of document
SECTIONS = [(PORTFOLIO, "holdings"), (PORTFOLIO, "transactions"), (APPS, "apps"), (APPS, "token_holdings"),
            (L2, "l2s")]
NOT_ARRAYS = [5, None, "ab", {"x": 1}, True]


@pytest.fixture
def runner():
    return CliRunner()


def _write(path, document):
    path.write_text(json.dumps(document))
    return path


@pytest.mark.parametrize("value", NOT_ARRAYS, ids=repr)
@pytest.mark.parametrize("document, section", SECTIONS, ids=[key for _, key in SECTIONS])
def test_validate_reports_a_section_that_is_not_an_array_once(runner, tmp_path, document, section, value):
    path = _write(tmp_path / "q.json", {**document, section: value})
    result = runner.invoke(main, ["validate", str(path), "--network", "btc", "--consensus", "pow"])
    assert result.exit_code == 1
    assert result.stdout == f"q.json:{section}: must be an array [schema_mismatch]\n"


@pytest.mark.parametrize("value", NOT_ARRAYS, ids=repr)
@pytest.mark.parametrize("section", ["holdings", "transactions"])
def test_allocate_reports_a_section_that_is_not_an_array(runner, tmp_path, section, value):
    days = tmp_path / "d.csv"
    days.write_text(POW_DAYS)
    portfolio = _write(tmp_path / "q.json", {**PORTFOLIO, section: value})
    args = ["allocate", "--days", str(days), "--network", "btc", "--consensus", "pow",
            "--portfolio", str(portfolio), "--method", "holding"]
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == f"q.json:{section}: must be an array [schema_mismatch]\n"


def test_a_bad_section_does_not_hide_the_rows_of_another(tmp_path):
    document = {**PORTFOLIO, "holdings": 5, "transactions": [{"entity_id": "t", "date": "x"}]}
    with pytest.raises(DatasetInvalid) as raised:
        ingestion.load_portfolio_json(_write(tmp_path / "q.json", document))
    assert [issue.render() for issue in raised.value.issues] == [
        "q.json:holdings: must be an array [schema_mismatch]",
        "q.json:transactions row 1 column 'date': not an ISO-8601 date: 'x' [row_invalid]",
    ]


def test_rows_are_dropped_as_read_and_keep_their_numbers():
    holdings = [HOLDING, 5, dict(HOLDING, date="2021-01-02"), ["h"], dict(HOLDING, amount="-1")]
    with pytest.raises(DatasetInvalid) as raised:
        ingestion.parse_portfolio_json({**PORTFOLIO, "holdings": holdings}, "q.json")
    assert [issue.render() for issue in raised.value.issues] == [
        "q.json:holdings row 2: holding must be an object [row_invalid]",
        "q.json:holdings row 4: holding must be an object [row_invalid]",
        "q.json:holdings row 5 column 'amount': negative value not allowed: '-1' [row_invalid]",
    ]
    assert holdings == [None] * 5  # the document is single-use


def test_a_load_peaks_at_the_decoded_tree():
    """Loading a decoded 365 x 100 portfolio adds under a tenth of its tree's size to the traced peak.

    Were the records built while the whole tree stayed alive, the peak would
    rise by the size of the records, about two thirds of the tree's.
    """
    text = realistic_portfolio_json(random.Random(5), "pow", "bitcoin", dt.date(2021, 1, 1), 365, 100)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        document = json.loads(text)
        loaded = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        portfolio = ingestion.parse_portfolio_json(document, "portfolio.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(portfolio.holdings), len(portfolio.transactions)) == (36_500, 36_500)
    tree = loaded - before
    assert peak - loaded < tree / 10, (peak - loaded, tree)
