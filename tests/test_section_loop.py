"""A section's generated loop against its one-row reader.

``spec.read_rows`` reads a whole JSON array in one generated loop, and
``spec.reader`` is the same body run on one row. For a section mixing clean
rows, every odd cell in every column, rows that are not objects and rows
missing a column, the loop must give the records (same repr) and the issues
(same order, row number, column, reason and code) that the reader gives row by
row, and leave every slot of the array None.
"""

import pytest

from carbon_ledger import DatasetInvalid, ingestion
from carbon_ledger.ingestion import RowProblem, ValidationIssue, parse_apps_json, parse_portfolio_json
from test_compiled_spec import ODD_CELLS, valid_cell

SPECS = {
    "holdings": ingestion._HOLDING,
    "transactions": ingestion._TRANSACTION,
    "token_holdings": ingestion._TOKEN_HOLDING,
}


def mixed_rows(spec):
    clean = {column.name: valid_cell(column.kind) for column in spec.columns}
    rows = [clean, None, [], "row", 5]
    for column in spec.columns:
        rows.append({key: value for key, value in clean.items() if key != column.name})
        rows += [{**clean, column.name: cell} for cell in ODD_CELLS]
        rows.append(clean)
    return rows


def row_by_row(spec, rows, coin_decimals, source):
    records, issues = [], []
    for row_no, row in enumerate(rows, start=1):
        try:
            records.append(spec.reader(row, coin_decimals))
        except RowProblem as problem:
            issues.append(ValidationIssue(source, problem.code, problem.reason, row_no, problem.column))
    return records, issues


@pytest.mark.parametrize("coin_decimals", [0, 2, 18])
@pytest.mark.parametrize("key", SPECS)
def test_loop_agrees_with_reader_row_by_row(key, coin_decimals):
    spec = SPECS[key]
    expected_records, expected_issues = row_by_row(spec, mixed_rows(spec), coin_decimals, key)
    assert expected_records and expected_issues
    rows, issues = mixed_rows(spec), []
    records = spec.read_rows(rows, coin_decimals, key, issues)
    assert list(map(repr, records)) == list(map(repr, expected_records))
    assert records == expected_records
    assert issues == expected_issues
    assert rows == [None] * len(rows)


@pytest.mark.parametrize("key", SPECS)
def test_public_loader_reports_the_loops_issues(key):
    spec = SPECS[key]
    rows = mixed_rows(spec)
    _, expected = row_by_row(spec, rows, 18, f"file.json:{key}")
    document = {"schema_version": "1", "network_id": "net", key: rows}
    parse = parse_apps_json if key == "token_holdings" else parse_portfolio_json
    with pytest.raises(DatasetInvalid) as excinfo:
        parse(document, "file.json")
    assert list(excinfo.value.issues) == expected
    assert rows == [None] * len(rows)


def test_one_row_reader_raises_the_rows_problem():
    with pytest.raises(RowProblem) as excinfo:
        ingestion._TRANSACTION.reader({"entity_id": "e", "date": "2021-01-01", "tx_count": 0}, 18)
    assert (excinfo.value.column, excinfo.value.reason) == ("tx_count", "must be a positive count")
