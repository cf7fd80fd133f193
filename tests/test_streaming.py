"""The streamed result writer: chunks that join to the old documents, bounded writes, no output on failure."""

import datetime as dt
import json
import os
import random
import stat
import tempfile
import threading
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import click
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from carbon_ledger import cli, engine, report
from carbon_ledger.cli import main
from carbon_ledger.model import CoinAmount, HoldingRecord, Method, Portfolio, TransactionRecord
from conftest import POS, POW, random_pos_day, random_pow_day, realistic_days_csv, realistic_portfolio_json
from test_validate_allocate import bundles, write_portfolio

START = dt.date(2021, 1, 1)
CHUNK = report.CHUNK_ROWS
_ENTITY, _CARBON, _BASIS, _SOURCE, _SCOPE = (
    report._RESULT_COLUMNS.index(column) for column in ("entity_id", "carbon_g", "basis", "weight_source", "scope")
)


def whole_json(network_id, allocation, sig_digits, with_carbon) -> str:
    """``report.allocation_to_json`` as it was when it built the whole document: the oracle."""
    rows = []
    for cells in report._result_rows(allocation.results, sig_digits, with_carbon):
        cells[_ENTITY] = report._json_str(cells[_ENTITY])
        cells[_CARBON] = f'"{cells[_CARBON]}"' if cells[_CARBON] else "null"
        cells[_BASIS] = report._json_str(cells[_BASIS])
        cells[_SOURCE] = report._json_str(cells[_SOURCE]) if cells[_SOURCE] else "null"
        cells[_SCOPE] = report._json_str(cells[_SCOPE])
        rows.append(report._JSON_RESULT % tuple(cells))
    results = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
    summary = json.dumps(report.summary_to_obj(allocation.summary, sig_digits, with_carbon), indent=2)
    summary = summary.replace("\n", "\n  ")
    return (
        f'{{\n  "schema_version": "1",\n  "network_id": {report._json_str(network_id)},\n'
        f'  "method": "{allocation.method.value}",\n  "results": {results},\n'
        f'  "summary": {summary}\n}}\n'
    )


def whole_csv(results, sig_digits, with_carbon) -> str:
    """``report.results_to_csv`` as it was when it built the whole document: the oracle."""
    lines = [",".join(report._RESULT_COLUMNS)]
    lines += [report._csv_line(cells) for cells in report._result_rows(results, sig_digits, with_carbon)]
    return "\n".join(lines) + "\n"


def _allocation(seed, kind, count, method, with_factor, network_id="net"):
    """``count`` results over three days, every third record a transaction when the method allocates them."""
    rng = random.Random(seed)
    dates = [START + dt.timedelta(days=i) for i in range(3)]
    make = random_pow_day if kind == "pow" else random_pos_day
    days = [make(rng, date) for date in dates]
    if with_factor:
        days = [replace(day, emission_factor=Fraction(rng.randint(1, 10**9), 10**6)) for day in days]
    holdings, transactions = [], []
    for index in range(count):
        entity, date = f"e{index:04d}", dates[index % 3]
        if method is Method.TRANSACTION_BASED or (method is Method.HYBRID and index % 3 == 0):
            transactions.append(TransactionRecord(entity, date, tx_count=1))
        else:
            holdings.append(HoldingRecord(entity, date, CoinAmount(Fraction(rng.randint(0, 10**6), 100))))
    portfolio = Portfolio(network_id, tuple(holdings), tuple(transactions))
    params = POW if kind == "pow" else POS
    allocation = engine.allocate_portfolio(days, params, portfolio, method)
    assert len(allocation.results) == count
    return allocation


# zero results, one, just under, exactly and just over one chunk, and a few chunks
COUNTS = st.sampled_from([0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1]) | st.integers(0, 3 * CHUNK)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    kind=st.sampled_from(["pow", "pos"]),
    count=COUNTS,
    method=st.sampled_from(list(Method)),
    with_factor=st.booleans(),
    sig_digits=st.integers(1, 12),
    with_carbon=st.booleans(),
    network_id=st.text(max_size=6),
)
def test_chunks_join_to_the_whole_documents(
    seed, kind, count, method, with_factor, sig_digits, with_carbon, network_id
):
    allocation = _allocation(seed, kind, count, method, with_factor, network_id)
    batches = -(-count // CHUNK)  # chunks that hold results

    json_chunks = list(report.allocation_json_chunks(network_id, allocation, sig_digits, with_carbon))
    assert "".join(json_chunks) == whole_json(network_id, allocation, sig_digits, with_carbon)
    assert report.allocation_to_json(network_id, allocation, sig_digits, with_carbon) == "".join(json_chunks)
    assert len(json_chunks) == batches + 1  # the last one closes the list and carries the summary
    assert all(chunk.count('"entity_id": ') <= CHUNK for chunk in json_chunks)

    csv_chunks = list(report.results_csv_chunks(allocation.results, sig_digits, with_carbon))
    assert "".join(csv_chunks) == whole_csv(allocation.results, sig_digits, with_carbon)
    assert report.results_to_csv(allocation.results, sig_digits, with_carbon) == "".join(csv_chunks)
    assert len(csv_chunks) == batches + 1  # the first one is the header
    assert all(chunk.endswith("\n") for chunk in csv_chunks)


@pytest.fixture(scope="module")
def wide_inputs(tmp_path_factory):
    """The 60 x 60 PoS document: 7,200 results."""
    root = tmp_path_factory.mktemp("wide")
    rng = random.Random(5)
    start = dt.date(2022, 9, 15)
    (root / "days.csv").write_text(realistic_days_csv(rng, "pos", start, 60))
    (root / "portfolio.json").write_text(realistic_portfolio_json(rng, "pos", "ethereum", start, 60, 60))
    return root


def _wide_argv(root, *extra):
    return [
        "allocate", "--days", str(root / "days.csv"), "--network", "ethereum", "--consensus", "pos",
        "--portfolio", str(root / "portfolio.json"), "--method", "hybrid", "--carbon", *extra,
    ]


def test_stdout_is_written_one_chunk_at_a_time(wide_inputs, monkeypatch):
    writes = []
    echo = click.echo

    def recording_echo(message=None, *args, **kwargs):
        if not kwargs.get("err"):
            writes.append(message)
        return echo(message, *args, **kwargs)

    monkeypatch.setattr(click, "echo", recording_echo)
    result = CliRunner().invoke(main, _wide_argv(wide_inputs))
    assert result.exit_code == 0, result.output
    document = result.stdout
    assert "".join(writes) == document
    assert len(writes) == -(-7200 // CHUNK) + 1
    assert max(chunk.count('"entity_id": ') for chunk in writes) == CHUNK
    assert max(map(len, writes)) < len(document) / 20


def test_out_file_is_written_one_chunk_at_a_time(wide_inputs, tmp_path, monkeypatch):
    writes = []

    class RecordingFile:
        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.handle.__exit__(*exc)

        def write(self, text):
            writes.append(len(text))
            return self.handle.write(text)

    monkeypatch.setattr(cli, "open", lambda *args, **kwargs: RecordingFile(open(*args, **kwargs)), raising=False)
    out = tmp_path / "results.csv"
    result = CliRunner().invoke(main, _wide_argv(wide_inputs, "--format", "csv", "--out", str(out)))
    assert result.exit_code == 0, result.output
    assert result.stdout == ""
    document = out.read_text(encoding="utf-8")
    assert len(document.splitlines()) == 7201
    summary = (tmp_path / "results.csv.summary.json").read_text(encoding="utf-8")
    assert len(writes) == -(-7200 // CHUNK) + 2  # header, result chunks, the sidecar
    assert writes[0] == len(",".join(report._RESULT_COLUMNS)) + 1
    assert writes[-1] == len(summary)
    assert max(writes) < len(document) / 20
    assert sorted(path.name for path in tmp_path.iterdir()) == ["results.csv", "results.csv.summary.json"]


def test_a_failed_write_leaves_no_file_and_keeps_the_old_one(tmp_path):
    out = tmp_path / "r.csv"
    out.write_text("old\n")

    def chunks():
        yield "a,b\n"
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        cli._emit(chunks(), str(out), summary="{}\n")
    assert out.read_text() == "old\n"
    assert [path.name for path in tmp_path.iterdir()] == ["r.csv"]

    with pytest.raises(OSError, match="disk full"):
        cli._emit(chunks(), str(tmp_path / "new.csv"))
    assert [path.name for path in tmp_path.iterdir()] == ["r.csv"]


def test_out_replaces_an_existing_file_whole(tmp_path):
    out = tmp_path / "r.csv"
    out.write_text("a much longer earlier document\n" * 100)
    cli._emit(iter(["a,b\n", "1,2\n"]), str(out), summary="{}\n")
    assert out.read_text() == "a,b\n1,2\n"
    assert (tmp_path / "r.csv.summary.json").read_text() == "{}\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["r.csv", "r.csv.summary.json"]


def test_out_writes_through_a_symlink_and_keeps_the_mode(tmp_path):
    real = tmp_path / "real.csv"
    real.write_text("old\n")
    real.chmod(0o600)
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    cli._emit(iter(["a,b\n", "1,2\n"]), str(link))
    assert link.is_symlink()
    assert real.read_text() == "a,b\n1,2\n"
    assert stat.S_IMODE(real.stat().st_mode) == 0o600
    assert sorted(path.name for path in tmp_path.iterdir()) == ["link.csv", "real.csv"]


def test_out_writes_a_fifo_in_place(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    read = []
    reader = threading.Thread(target=lambda: read.append(fifo.read_text()), daemon=True)
    reader.start()
    cli._emit(iter(["a,b\n", "1,2\n"]), str(fifo))
    reader.join(timeout=10)
    assert read == ["a,b\n1,2\n"]
    assert [path.name for path in tmp_path.iterdir()] == ["pipe"]


def test_a_sidecar_that_cannot_be_written_leaves_the_document_as_it_was(tmp_path):
    out = tmp_path / "r.csv"
    out.write_text("old\n")
    (tmp_path / "r.csv.summary.json").mkdir()
    with pytest.raises(IsADirectoryError):
        cli._emit(iter(["a,b\n"]), str(out), summary="{}\n")
    assert out.read_text() == "old\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["r.csv", "r.csv.summary.json"]


@settings(max_examples=60, deadline=None)
@given(bundle=bundles(), method=st.sampled_from(["holding", "transaction", "hybrid"]))
def test_a_failed_allocate_writes_nothing(bundle, method):
    consensus, days_csv, transactions, holdings = bundle
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as directory:
        root = Path(directory)
        (root / "d.csv").write_text(days_csv)
        portfolio = write_portfolio(root / "p.json", transactions, holdings)
        outputs = root / "out"
        outputs.mkdir()
        base = ["allocate", "--days", str(root / "d.csv"), "--network", "btc", "--consensus", consensus,
                "--portfolio", str(portfolio), "--method", method]
        codes = set()
        for fmt in ("json", "csv"):
            printed = runner.invoke(main, [*base, "--format", fmt])
            out = outputs / f"r.{fmt}"
            written = runner.invoke(main, [*base, "--format", fmt, "--out", str(out)])
            codes |= {printed.exit_code, written.exit_code}
            assert written.stdout == ""
            if printed.exit_code != 0:
                assert printed.stdout == ""
            else:
                assert out.read_text(encoding="utf-8") == printed.stdout
        names = sorted(path.name for path in outputs.iterdir())
        assert codes in ({0}, {1})
        assert names == ([] if codes == {1} else ["r.csv", "r.csv.summary.json", "r.json"])
