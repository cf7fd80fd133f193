"""One hostile value in one cell of a clean bundle: every failure is an exit code, never a traceback.

A two-day proof-of-work or proof-of-stake bundle (days CSV, portfolio, apps
and layer-2 file) is clean as built. One value (an empty string, a negative,
an exponent, a float, a boolean, null, an array, an object, a 5,000-digit
token, a lone surrogate, an impossible date, a form feed, arrays nested past
the recursion limit) replaces one cell, or one top-level value, of one file.
``validate`` and ``allocate`` under each method then exit 0, 1 or 2 with no
uncaught exception, and whatever ``validate`` passes, ``allocate`` allocates.
"""

import json
import tempfile
from pathlib import Path

from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from carbon_ledger.cli import main
from test_validate_allocate import HEADER

LONG = "1" * 5000  # beyond the interpreter's default 4,300-digit limit
NESTED = "[" * 100_000 + "]" * 100_000  # deeper than the recursion limit

# (CSV text, JSON literal) of each hostile value
HOSTILE = [
    ("", '""'), ("-1", "-1"), ("-1", '"-1"'), ("1e5", "1e5"), ("1e5", '"1e5"'), ("1.5", "1.5"),
    ("true", "true"), ("null", "null"), ("[]", "[]"), ("{}", "{}"), (LONG, LONG), (LONG, f'"{LONG}"'),
    ("\ud800", '"\\ud800"'), ("2021-02-30", '"2021-02-30"'), ("1\f0", '"1\\f0"'), ("\f", '"\\f"'),
    ("0", "0"), ("2", '"2"'), (NESTED, NESTED),
]
SENTINEL = "@@hostile@@"
DATES = ("2021-01-01", "2021-01-02")


def _days(consensus):
    share = "0.1" if consensus == "pos" else ""
    reward = "" if consensus == "pos" else "6"
    return [f"{date},1000,{reward},1,100,,10,100,{share},500".split(",") for date in DATES]


def _documents():
    internal = {"energy_wh": "1", "block_reward": "1", "tx_fees_total": "1", "coin_supply": "10", "tx_count": 2,
                "pos_tx_share": "0.1"}
    return {
        "portfolio": {
            "schema_version": "1",
            "network_id": "btc",
            "holdings": [{"entity_id": "h", "date": date, "amount": "1"} for date in DATES],
            "transactions": [
                {"entity_id": "t", "date": date, "fee_paid": "0.5", "gas_used": "10", "tx_count": 2}
                for date in DATES
            ],
        },
        "apps": {
            "schema_version": "1",
            "apps": [
                {"app_id": "dex", "date": date, "app_fee_share": "0.5", "token_supply": "1000",
                 "app_tx_count": 3}
                for date in DATES
            ],
            "token_holdings": [
                {"entity_id": "h", "app_id": "dex", "date": date, "amount": "10"} for date in DATES
            ],
        },
        "l2": {
            "schema_version": "1",
            "l2s": [
                {"l2_id": "rollup", "date": date, "l1_fee_share": "0.2", "infra_energy_wh": "30",
                 "internal_day": dict(internal, date=date)}
                for date in DATES
            ],
        },
    }


@st.composite
def bundles(draw):
    """A clean bundle's files as text, with one hostile value put into one of them."""
    consensus = draw(st.sampled_from(["pow", "pos"]))
    csv_text, literal = draw(st.sampled_from(HOSTILE))
    rows, documents = _days(consensus), _documents()
    target = draw(st.sampled_from(["days", *documents]))
    if target == "days":
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = csv_text
    else:
        node = documents[target]
        while True:  # walk down to a cell, or stop at any object on the way
            key = draw(st.sampled_from(sorted(node)))
            child = node[key]
            if isinstance(child, list):
                child = draw(st.sampled_from(child))
            if not isinstance(child, dict) or draw(st.booleans()):
                break
            node = child
        node[key] = SENTINEL
    files = {
        name: json.dumps(document).replace(f'"{SENTINEL}"', literal) for name, document in documents.items()
    }
    files["days"] = HEADER + "\n" + "\n".join(",".join(row) for row in rows) + "\n"
    return consensus, files


def _invoke(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code in (0, 1, 2), (args, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (args, result.exc_info)
    assert "Traceback" not in result.output
    return result


@settings(max_examples=300, deadline=None)
@given(bundles())
def test_one_hostile_cell_never_escapes(bundle):
    consensus, files = bundle
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as directory:
        paths = {}
        for name, text in files.items():
            paths[name] = Path(directory) / (f"{name}.csv" if name == "days" else f"{name}.json")
            paths[name].write_bytes(text.encode("utf-8", "surrogatepass"))
        common = ["--network", "btc", "--consensus", consensus]
        validated = _invoke(runner, ["validate", *map(str, paths.values()), *common])
        for method in ("holding", "transaction", "hybrid"):
            args = ["allocate", "--days", str(paths["days"]), *common, "--portfolio", str(paths["portfolio"])]
            allocated = _invoke(runner, [*args, "--method", method])
            if validated.exit_code == 0:
                assert allocated.exit_code == 0, (method, allocated.output)
