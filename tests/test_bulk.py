"""``ingestion.bulk()``: the cyclic GC is paused while records are built, and always restored.

Each CLI command runs inside one such pause, which also covers the join and
allocation, and leaves the collector as the caller had it.
"""

import gc
import json

import pytest
from click.testing import CliRunner

from carbon_ledger import DatasetInvalid, SchemaMismatch, engine, ingestion
from carbon_ledger.cli import main
from carbon_ledger.ingestion import bulk, parse_network_csv, parse_portfolio_json, serialize_network_csv
from conftest import POW, bitcoin_2021_days

BAD_ROW = {
    "schema_version": "1",
    "network_id": "bitcoin",
    "holdings": [{"entity_id": "alice", "date": "2021-01-01", "amount": "-1"}],
}


@pytest.fixture(autouse=True)
def restore_gc():
    yield
    gc.enable()


def test_row_loop_runs_with_gc_paused(monkeypatch):
    seen = []
    day = ingestion._day

    def recording(values, consensus):
        seen.append(gc.isenabled())
        return day(values, consensus)

    monkeypatch.setattr(ingestion, "_day", recording)
    assert gc.isenabled()
    dataset = parse_network_csv(serialize_network_csv(bitcoin_2021_days()[:3]), "days.csv", "bitcoin", POW)
    assert len(dataset.days) == 3
    assert seen == [False, False, False]
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


@pytest.fixture
def bundle(tmp_path):
    days = tmp_path / "days.csv"
    days.write_text(serialize_network_csv(bitcoin_2021_days()[:2]))
    holdings = [{"entity_id": "a", "date": "2021-01-01", "amount": "1"}]
    portfolio = tmp_path / "portfolio.json"
    portfolio.write_text(json.dumps({"schema_version": "1", "network_id": "bitcoin", "holdings": holdings}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(BAD_ROW))
    network = ["--network", "bitcoin", "--consensus", "pow"]
    allocate = ["allocate", "--days", str(days), *network, "--method", "holding", "--portfolio"]
    return {
        "validate-ok": (["validate", str(days), str(portfolio), *network], 0),
        "validate-invalid": (["validate", str(days), str(bad), *network], 1),
        "allocate-ok": ([*allocate, str(portfolio)], 0),
        "allocate-invalid": ([*allocate, str(bad)], 1),
    }


@pytest.mark.parametrize("caller_gc", [True, False], ids=["caller-on", "caller-off"])
@pytest.mark.parametrize("case", ["validate-ok", "validate-invalid", "allocate-ok", "allocate-invalid"])
def test_cli_command_runs_in_one_pause_and_restores_gc(bundle, monkeypatch, caller_gc, case):
    seen = []

    def recording(module, name):
        original = getattr(module, name)

        def call(*args, **kwargs):
            seen.append((name, gc.isenabled()))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, call)

    recording(ingestion, "load_portfolio_json")
    recording(ingestion, "join_issues")
    recording(engine, "allocate_portfolio")
    argv, code = bundle[case]
    if not caller_gc:
        gc.disable()
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == code, result.output
    assert gc.isenabled() is caller_gc
    assert seen and all(not enabled for _, enabled in seen), seen
