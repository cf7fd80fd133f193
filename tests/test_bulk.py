"""``ingestion.bulk()``: the cyclic GC is paused while records are built, and always restored."""

import gc
import json

import pytest

from carbon_ledger import DatasetInvalid, SchemaMismatch
from carbon_ledger.ingestion import _collect, bulk, parse_portfolio_json

BAD_ROW = {
    "schema_version": "1",
    "network_id": "bitcoin",
    "holdings": [{"entity_id": "alice", "date": "2021-01-01", "amount": "-1"}],
}


@pytest.fixture(autouse=True)
def restore_gc():
    yield
    gc.enable()


def test_row_loop_runs_with_gc_paused():
    assert gc.isenabled()
    seen = _collect("rows", [(1, None), (2, None)], lambda row: gc.isenabled(), [])
    assert seen == [False, False]
    assert gc.isenabled()


@pytest.mark.parametrize(
    "text, error",
    [(json.dumps(BAD_ROW), DatasetInvalid), ('{"schema_version": "1", ', SchemaMismatch)],
    ids=["dataset_invalid", "schema_mismatch"],
)
def test_gc_back_on_after_failed_load(text, error):
    with pytest.raises(error):
        parse_portfolio_json(text, "portfolio.json")
    assert gc.isenabled()


def test_gc_back_on_after_error_inside():
    with pytest.raises(RuntimeError):
        with bulk():
            raise RuntimeError("boom")
    assert gc.isenabled()


def test_callers_disable_is_kept():
    gc.disable()
    with pytest.raises(DatasetInvalid):
        parse_portfolio_json(json.dumps(BAD_ROW), "portfolio.json")
    with bulk():
        pass
    assert not gc.isenabled()


def test_nested_use():
    with bulk():
        with bulk():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()
