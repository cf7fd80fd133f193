"""The four workloads: what each generates, how its CLI op is spelled, how it is checked.

Sizes and precision are fixed per workload; only values change with the
seed. ``WHY`` records why each workload exists.

Inputs are generated in a child process (``python3 perfbench/workloads.py
NAME SEED DIR``): a child's reported peak RSS starts at the high-water mark of
the process that spawned it, so the benchmark process itself must stay small.
"""

from __future__ import annotations

import datetime as dt
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import gen

WHY = {
    "alloc-wide": "PoS hybrid+carbon JSON, 60 days x 60 entities (7,200 records, gas basis), days from a "
    "warm --remote cache: per-record engine and rendering work dominate; summary stays small",
    "alloc-year": "PoW hybrid+carbon CSV --out, 365 days x 8 entities (5,840 records): the paper's "
    "one-year horizon, where period-summary rationals grow with the number of distinct days",
    "validate-bundle": "PoW validate --json, 365 days x 100 entities (73,000 records) + 2 apps x 10 token "
    "holders + 2 L2s: parsing and join only, largest RSS",
    "series-remote": "PoS series JSON over 1,826 days via --remote with an empty --cache-dir per op: "
    "one HTTP request and 1,826 cache writes per op",
}

NAMES = tuple(WHY)


@dataclass(frozen=True)
class Shape:
    kind: str
    network: str
    start: dt.date
    days: int
    entities: int = 0
    apps: int = 0
    token_holders_per_app: int = 0
    l2s: int = 0

    def dates(self) -> list[dt.date]:
        return gen.day_range(self.start, self.days)

    def records(self) -> int:
        """Input records: holdings plus transactions, or days when there is no portfolio."""
        return self.days * self.entities * 2 if self.entities else self.days


SHAPES = {
    "alloc-wide": Shape("pos", "ethereum", dt.date(2022, 9, 15), 60, entities=60),
    "alloc-year": Shape("pow", "bitcoin", dt.date(2021, 1, 1), 365, entities=8),
    "validate-bundle": Shape("pow", "bitcoin", dt.date(2021, 1, 1), 365, entities=100, apps=2,
                             token_holders_per_app=10, l2s=2),
    "series-remote": Shape("pos", "ethereum", dt.date(2019, 1, 1), 1826),
}

PRECISION = {
    "energy_wh": gen.ENERGY_PLACES,
    "emission_factor_g_per_kwh": gen.ENERGY_PLACES,
    "coin_quantities": gen.COIN_PLACES,
    "shares": gen.SHARE_PLACES,
}


def _write_json(path: Path, document: dict) -> None:
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def generate(name: str, seed: int, root: Path) -> None:
    """Write ``name``'s inputs for ``seed`` under ``root``.

    ``days.json`` always holds the day list as the remote index serves it;
    the CLI reads ``days.csv`` instead where the workload uses ``--days``.
    """
    shape, rng = SHAPES[name], random.Random(f"{name}:{seed}")
    root.mkdir(parents=True, exist_ok=True)
    dates = shape.dates()
    days = gen.network_days(rng, shape.kind, dates)
    (root / "days.json").write_bytes(gen.days_document(days))
    (root / "days.csv").write_text(gen.days_csv(days), encoding="utf-8")
    if shape.entities:
        _write_json(root / "portfolio.json", gen.portfolio(rng, shape.kind, shape.network, dates, shape.entities))
    if shape.apps:
        _write_json(root / "apps.json", gen.apps(rng, dates, shape.apps, shape.token_holders_per_app))
    if shape.l2s:
        _write_json(root / "l2.json", gen.layer2s(rng, dates, shape.l2s))


def index_documents(name: str, root: Path) -> dict[tuple[str, str, str], bytes]:
    """The loopback index's responses for this workload: its whole day range."""
    shape = SHAPES[name]
    dates = shape.dates()
    return {(shape.network, dates[0].isoformat(), dates[-1].isoformat()): (root / "days.json").read_bytes()}


@dataclass(frozen=True)
class Prepared:
    """How to run and check one op on generated inputs."""

    argv: Callable[[Path], list[str]]
    check: Callable[[Path], list[str]]
    records: int
    outputs: tuple[str, ...]
    out_file: str | None
    requests_per_op: int
    warm_cache_argv: list[str] | None
    sizes: dict


def prepare(name: str, root: Path, base_url: str) -> Prepared:
    """Ops and checks over the inputs ``generate`` wrote under ``root``."""
    shape = SHAPES[name]
    dates = shape.dates()
    span = ["--from", dates[0].isoformat(), "--to", dates[-1].isoformat()]
    network = ["--network", shape.network, "--consensus", shape.kind]
    portfolio = root / "portfolio.json"

    def days() -> list[dict]:
        return json.loads(_read(root / "days.json"))["days"]

    def check_allocation(rows_and_summary) -> list[str]:
        rows, summary = rows_and_summary
        pf = json.loads(_read(portfolio))
        return checks.check_allocation(rows, summary, days(), pf, shape.kind, shape.network)

    sizes = {k: v for k, v in vars(shape).items() if k not in ("network", "start") and v}
    common = dict(records=shape.records(), out_file=None, requests_per_op=0, warm_cache_argv=None, sizes=sizes)
    if name == "alloc-wide":
        remote = ["--remote", base_url, "--cache-dir", str(root / "cache"), *network, *span]
        return Prepared(
            argv=lambda op: ["allocate", *remote, "--portfolio", str(portfolio), "--method", "hybrid", "--carbon"],
            check=lambda op: check_allocation(checks.allocation_from_json(_read(op / "stdout"))),
            outputs=("stdout",),
            **{**common, "warm_cache_argv": ["series", *remote]},
        )
    if name == "alloc-year":
        def check(op: Path) -> list[str]:
            sidecar = op / "results.csv.summary.json"
            if not sidecar.exists():
                return ["summary sidecar results.csv.summary.json missing"]
            return check_allocation(checks.allocation_from_csv(_read(op / "results.csv"), _read(sidecar)))

        return Prepared(
            argv=lambda op: ["allocate", "--days", str(root / "days.csv"), *network, "--portfolio", str(portfolio),
                             "--method", "hybrid", "--carbon", "--format", "csv", "--out", str(op / "results.csv")],
            check=check,
            outputs=("stdout", "results.csv", "results.csv.summary.json"),
            **{**common, "out_file": "results.csv"},
        )
    if name == "validate-bundle":
        files = [str(root / f) for f in ("days.csv", "portfolio.json", "apps.json", "l2.json")]
        return Prepared(
            argv=lambda op: ["validate", *files, *network, "--json"],
            check=lambda op: checks.check_validate(_read(op / "stdout")),
            outputs=("stdout",),
            **common,
        )
    if name == "series-remote":
        return Prepared(
            argv=lambda op: ["series", "--remote", base_url, "--cache-dir", str(op / "cache"), *network, *span,
                             "--format", "json"],
            check=lambda op: checks.check_series(_read(op / "stdout"), days()),
            outputs=("stdout",),
            **{**common, "requests_per_op": 1},
        )
    raise ValueError(f"unknown workload {name!r}")


if __name__ == "__main__":
    generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
