"""Golden output bytes: SHA-256 of every rendered output on a seeded fixture.

The fixture carries realistic precision (6-decimal energy, shares and
emission factors, 8-decimal coin quantities, supply and lost-coin fraction
changing every day), so the rendered rationals are large. A change that
alters any output byte, for example in rounding or rendering, fails here;
a pure speed-up must leave every hash as it is.
"""

import datetime as dt
import hashlib
import random

import pytest
from click.testing import CliRunner

from carbon_ledger.cli import main
from conftest import realistic_days_csv, realistic_portfolio_json

START = dt.date(2021, 3, 1)
DAYS = 21
ENTITIES = 3

GOLDEN_SHA256 = {
    "allocate.json": "7f3461ec0ca8278345efd243f3258742dc4a7dce1aac6254b853f082e46b4ac5",
    "allocate.csv": "567f7939ae8485035e465442fc7c50d2fc9258360e707e2a53d77a07e72d73ff",
    "allocate.csv.summary.json": "2e62c65169783207dac38d53d731cb7b56ef2e4c2b0ee7305778dd47d9b5ecc0",
    "compare.csv": "c2ca986fe03043a0dfc02940a67dea50087fff9975b16b60dce3ca78447a2c70",
    "compare.txt": "4d65b0bf8744c5090474d0d7fb3bdfb2089ec7df5fc018877fe67fa234ba460c",
    "series.csv": "2eef17c2b89c787079b3a5ae3c8f47848ccd200207bf28c579913f4d20b435d8",
    "series.json": "f835b384f0374aa85afc9e6b2a5872338616369e50d5fdc54c36fa1e7d66b7bb",
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    rng = random.Random(20210301)
    pow_csv = root / "btc.csv"
    pow_csv.write_text(realistic_days_csv(rng, "pow", START, DAYS))
    pos_csv = root / "eth.csv"
    pos_csv.write_text(realistic_days_csv(rng, "pos", START, DAYS))
    portfolio = root / "portfolio.json"
    portfolio.write_text(realistic_portfolio_json(rng, "pow", "bitcoin", START, DAYS, ENTITIES))

    btc = ["--days", str(pow_csv), "--network", "bitcoin", "--consensus", "pow"]
    eth = ["--days", str(pos_csv), "--network", "ethereum", "--consensus", "pos"]
    allocate = ["allocate", *btc, "--portfolio", str(portfolio), "--method", "hybrid", "--carbon"]
    commands = {
        "allocate.json": allocate,
        "allocate.csv": [*allocate, "--format", "csv", "--sig-digits", "9"],
        "compare.csv": ["compare", *btc, *eth, "--format", "csv", "--carbon"],
        "compare.txt": ["compare", *btc, *eth],
        "series.csv": ["series", *btc],
        "series.json": ["series", *eth, "--format", "json", "--sig-digits", "12"],
    }
    produced = {}
    runner = CliRunner()
    for name, args in commands.items():
        out = root / name
        result = runner.invoke(main, [*args, "--out", str(out)])
        assert result.exit_code == 0, (name, result.output)
        produced[name] = out.read_bytes()
    produced["allocate.csv.summary.json"] = (root / "allocate.csv.summary.json").read_bytes()
    return produced


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_output_bytes_match_golden_hash(outputs, name):
    assert hashlib.sha256(outputs[name]).hexdigest() == GOLDEN_SHA256[name]
