"""The CLI as a process: ``python -m carbon_ledger.cli`` ends through ``cli.script``.

Once ``main`` exits with an int code, the script runs the ``atexit``
callbacks, flushes stdout and stderr and ends with ``os._exit``: each case
here runs a real process and expects ``CliRunner``'s codes and bytes, a
whole ``--out`` file, and exit 2 with one line when the reader of stdout
has gone. A trace or profile hook takes the normal exit, so ``cProfile``
still writes its file.
"""

import datetime as dt
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import carbon_ledger
from carbon_ledger import CoinAmount, HoldingRecord, Portfolio, serialize_network_csv, serialize_portfolio
from carbon_ledger.cli import main
from conftest import bitcoin_2021_days

SRC = str(Path(carbon_ledger.__file__).parents[1])


def _env(unbuffered: bool = False) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "carbon_ledger.cli", *args], env=_env(), capture_output=True)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("exit")
    (root / "btc.csv").write_text(serialize_network_csv(bitcoin_2021_days()[:31]))
    holdings = tuple(
        HoldingRecord(f"e{i}", dt.date(2021, 1, 1) + dt.timedelta(days=i % 31), CoinAmount(i + 1)) for i in range(300)
    )
    (root / "good.json").write_text(serialize_portfolio(Portfolio("bitcoin", holdings)))
    (root / "bad.json").write_text(
        '{"schema_version": "1", "network_id": "bitcoin", "holdings": [{"entity_id": "e", "date": "2021-01-01",'
        ' "amount": "-1"}, {"entity_id": "e", "date": "2021-01-02", "amount": "1.5x"}], "transactions": []}'
    )
    return root


def _allocate(root: Path, portfolio: str = "good.json") -> list[str]:
    days = ["--days", str(root / "btc.csv"), "--network", "bitcoin", "--consensus", "pow"]
    return ["allocate", *days, "--portfolio", str(root / portfolio), "--method", "holding"]


def _validate(root: Path, *names: str) -> list[str]:
    return ["validate", *(str(root / name) for name in names), "--network", "bitcoin", "--consensus", "pow"]


@pytest.mark.parametrize(
    "command, code",
    [
        (lambda root: _validate(root, "btc.csv", "good.json"), 0),
        (lambda root: [*_validate(root, "btc.csv", "good.json"), "--json"], 0),
        (_allocate, 0),
        (lambda root: _validate(root, "btc.csv", "bad.json"), 1),
        (lambda root: [*_validate(root, "btc.csv", "bad.json"), "--json"], 1),
        (lambda root: _allocate(root, "bad.json"), 1),
        (lambda root: ["series", "--network", "bitcoin", "--consensus", "pow"], 2),
    ],
    ids=["validate", "validate-json", "allocate", "invalid", "invalid-json", "allocate-invalid", "usage"],
)
def test_codes_and_bytes_are_the_cli_runners(inputs, command, code):
    args = command(inputs)
    done, runner = _cli(*args), CliRunner().invoke(main, args)
    assert (done.returncode, done.stdout, done.stderr) == (code, runner.stdout_bytes, runner.stderr_bytes)


def test_out_file_is_whole(inputs, tmp_path):
    out = tmp_path / "allocation.json"
    done = _cli(*_allocate(inputs), "--out", str(out))
    assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
    assert out.read_bytes() == CliRunner().invoke(main, _allocate(inputs)).stdout_bytes
    assert [path.name for path in tmp_path.iterdir()] == ["allocation.json"]


@pytest.mark.parametrize(
    "command, unbuffered, code",
    [(lambda root: _validate(root, "btc.csv"), False, 2), (lambda root: _validate(root, "btc.csv"), True, 2),
     (_allocate, False, 2), (_allocate, True, 2)],
    ids=["short", "short-unbuffered", "long", "long-unbuffered"],
)
def test_a_pipe_closed_early_exits_as_before(inputs, command, unbuffered, code):
    # buffered or not, the write's flush fails; what the buffer still holds is dropped, so no flush at exit fails again
    argv = [sys.executable, "-m", "carbon_ledger.cli", *command(inputs)]
    with subprocess.Popen(argv, env=_env(unbuffered), stdout=subprocess.PIPE, stderr=subprocess.PIPE) as process:
        process.stdout.close()  # before the process has imported the package, so before its first write
        written = process.stderr.read()
    assert (process.returncode, written) == (code, b"[Errno 32] Broken pipe\n")


def test_atexit_callbacks_run_and_teardown_is_skipped():
    # a __main__ global's finalizer runs in the interpreter's teardown, which the script skips
    program = (
        "import atexit, os, sys\n"
        "from carbon_ledger.cli import script\n"
        "class Finalized:\n"
        "    def __del__(self): os.write(1, b'teardown\\n')\n"
        "kept = Finalized()\n"
        "atexit.register(print, 'atexit')\n"
        "sys.argv[1:] = ['--version']\n"
        "script() if sys.argv[0] == '-c' else None\n"
    )
    done = subprocess.run([sys.executable, "-c", program], env=_env(), capture_output=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, b"carbon-ledger, version 0.1.0\natexit\n", b"")
    alone = subprocess.run([sys.executable, "-c", program.replace("'-c'", "''")], env=_env(), capture_output=True)
    assert (alone.returncode, alone.stdout, alone.stderr) == (0, b"atexit\nteardown\n", b"")


def test_cprofile_still_writes_its_file(tmp_path):
    # a profile hook takes the normal exit, so cProfile writes its file once the script's SystemExit reaches it
    profile = tmp_path / "cli.prof"
    command = [sys.executable, "-m", "cProfile", "-o", str(profile), "-m", "carbon_ledger.cli", "--version"]
    done = subprocess.run(command, env=_env(), capture_output=True)
    assert (done.returncode, done.stdout) == (0, b"carbon-ledger, version 0.1.0\n")
    assert profile.stat().st_size > 0
