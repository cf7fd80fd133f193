"""Cold start: importing the CLI runs ``dataclasses`` for two types and generates no section loop.

Every command pays for ``import carbon_ledger.cli`` before it reads a byte, so
that import decorates only ``NetworkDay`` and ``ValidationIssue`` (tests call
``dataclasses.replace`` and ``asdict`` on them) and compiles no ``<… reader>``
loop: each spec generates its loop when a section is first read. An
``allocate`` then generates exactly the days, holding and transaction loops.
Counted in a fresh interpreter, with ``dataclasses._process_class`` and
``compile`` wrapped before the package is imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import carbon_ledger
from test_validate_allocate import HEADER, write_portfolio

COUNTING = r"""
import builtins, dataclasses, json, sys

decorated, compiled = [], []
process_class, compile_ = dataclasses._process_class, builtins.compile


def counted_process_class(cls, *args, **kwargs):
    if cls.__module__.startswith("carbon_ledger"):
        decorated.append(cls.__qualname__)
    return process_class(cls, *args, **kwargs)


def counted_compile(source, filename, *args, **kwargs):
    if filename.endswith(" reader>"):
        compiled.append(filename)
    return compile_(source, filename, *args, **kwargs)


dataclasses._process_class, builtins.compile = counted_process_class, counted_compile
import carbon_ledger.cli

at_import = len(compiled)
carbon_ledger.cli.main(sys.argv[1:], standalone_mode=False)
print(json.dumps({"decorated": decorated, "at_import": compiled[:at_import], "run": compiled[at_import:]}))
"""


def counted_run(*args: str) -> dict:
    src = str(Path(carbon_ledger.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", COUNTING, *args], env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_import_decorates_two_dataclasses_and_allocate_compiles_three_loops(tmp_path):
    days = tmp_path / "days.csv"
    days.write_text(HEADER + "\n2021-01-01,1000,6,1,100,,10,,,\n")
    portfolio = write_portfolio(
        tmp_path / "portfolio.json",
        transactions=[{"entity_id": "a", "date": "2021-01-01", "fee_paid": "0.5"}],
        holdings=[{"entity_id": "a", "date": "2021-01-01", "amount": "10"}],
    )
    out = tmp_path / "out.json"
    counts = counted_run(
        "allocate", "--days", str(days), "--network", "btc", "--consensus", "pow",
        "--portfolio", str(portfolio), "--method", "hybrid", "--out", str(out),
    )
    assert sorted(counts["decorated"]) == ["NetworkDay", "ValidationIssue"]
    assert counts["at_import"] == []
    assert sorted(counts["run"]) == ["<holding reader>", "<network day reader>", "<transaction reader>"]
    assert len(json.loads(out.read_text())["results"]) == 2
