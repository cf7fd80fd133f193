"""File ingestion: parse, validate, and join every input dataset.

Network telemetry arrives as wide CSV, one row per UTC day; portfolios, app
registries, and layer-2 descriptors arrive as JSON with all decimals encoded
as strings. Parsing is exact (no float round-trip anywhere) and validation
reports the complete list of row-addressed problems, one issue per invalid
row, rather than stopping at the first. Serializers emit the canonical form
(sorted rows, normalized decimals) so that load/serialize round-trips are
byte-identical.
"""

from __future__ import annotations

import datetime as _dt
import json
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Any, Mapping

from .apps import AppDay, TokenHolding
from .errors import DatasetInvalid, MissingDay, SchemaMismatch, ValidationIssue
from .layer2 import Layer2Day
from .model import (
    CoinAmount,
    Consensus,
    ConsensusParams,
    Energy,
    HoldingRecord,
    NetworkDay,
    Portfolio,
    Share,
    TransactionRecord,
)
from .numeric import decimal_str, fraction_digits, parse_decimal

SCHEMA_MAJOR = 1
DEFAULT_COIN_DECIMALS = 18

NETWORK_CSV_COLUMNS = (
    "date",
    "energy_wh",
    "block_reward",
    "tx_fees_total",
    "coin_supply",
    "lost_coin_fraction",
    "tx_count",
    "gas_total",
    "pos_tx_share",
    "emission_factor_g_per_kwh",
)


@dataclass(frozen=True)
class Dataset:
    """Validated, immutable in-memory form of one network's inputs."""

    network_id: str
    consensus: ConsensusParams
    days: tuple[NetworkDay, ...]
    apps: tuple[AppDay, ...] = ()
    l2s: tuple[Layer2Day, ...] = ()
    schema_version: str = "1"

    def day_map(self) -> dict[_dt.date, NetworkDay]:
        return {d.date: d for d in self.days}


@dataclass(frozen=True)
class AppBundle:
    """Loaded app registry: per-day app telemetry plus token holdings."""

    apps: tuple[AppDay, ...]
    token_holdings: tuple[TokenHolding, ...]


@dataclass(frozen=True)
class L2Bundle:
    """Loaded layer-2 descriptors; ``consensus`` holds per-L2 overrides."""

    entries: tuple[Layer2Day, ...]
    consensus: dict[str, Consensus]


class _RowIssue(Exception):
    """Internal control flow: first problem found in a row."""

    def __init__(self, column: str | None, reason: str, code: str = "row_invalid"):
        self.column = column
        self.reason = reason
        self.code = code
        super().__init__(reason)


def _check_schema_version(document: Mapping[str, Any], source: str) -> str:
    version = document.get("schema_version")
    if not isinstance(version, str) or not version:
        raise SchemaMismatch(f"{source}: missing schema_version")
    major = version.split(".", 1)[0]
    if not major.isdigit() or int(major) != SCHEMA_MAJOR:
        raise SchemaMismatch(f"{source}: unsupported schema_version {version!r}")
    return version


def _token_of(value: Any, column: str) -> str | None:
    """Normalize a JSON or CSV cell to a decimal token, or None when absent."""
    if value is None:
        return None
    if isinstance(value, bool):
        raise _RowIssue(column, "decimal must be a string, not a boolean")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        raise _RowIssue(column, "decimal must be a string to avoid float mangling")
    if isinstance(value, str):
        return value if value != "" else None
    raise _RowIssue(column, f"unsupported value type {type(value).__name__}")


def _decimal_cell(
    value: Any,
    column: str,
    *,
    required: bool = False,
    max_fraction_digits: int | None = None,
) -> Fraction | None:
    token = _token_of(value, column)
    if token is None:
        if required:
            raise _RowIssue(column, "value required")
        return None
    try:
        parsed = parse_decimal(token)
    except ValueError:
        raise _RowIssue(column, f"not a plain decimal: {token!r}") from None
    if parsed < 0:
        raise _RowIssue(column, f"negative value not allowed: {token!r}")
    if max_fraction_digits is not None and fraction_digits(token) > max_fraction_digits:
        raise _RowIssue(
            column,
            f"{token!r} has more than {max_fraction_digits} fractional digits; "
            "precision exceeds the smallest denomination",
        )
    return parsed


def _count_cell(value: Any, column: str, *, required: bool = False) -> int | None:
    token = _token_of(value, column)
    if token is None:
        if required:
            raise _RowIssue(column, "value required")
        return None
    if not token.isdigit():
        raise _RowIssue(column, f"not a non-negative integer: {token!r}")
    return int(token)


def _date_cell(value: Any, column: str = "date") -> _dt.date:
    token = _token_of(value, column)
    if token is None:
        raise _RowIssue(column, "value required")
    try:
        return _dt.date.fromisoformat(token)
    except ValueError:
        raise _RowIssue(column, f"not an ISO-8601 date: {token!r}") from None


def _share_cell(value: Any, column: str, *, required: bool = False) -> Share | None:
    parsed = _decimal_cell(value, column, required=required)
    if parsed is None:
        return None
    if parsed > 1:
        raise _RowIssue(column, f"must be within [0, 1], got {parsed}")
    return Share(parsed)


def day_from_fields(
    fields: Mapping[str, Any],
    consensus: ConsensusParams,
    coin_decimals: int = DEFAULT_COIN_DECIMALS,
) -> NetworkDay:
    """Build one validated NetworkDay from named cells.

    Raises the internal row issue on the first problem; shared by the CSV
    loader and the remote client so both validate identically.
    """
    date = _date_cell(fields.get("date"))
    energy = _decimal_cell(fields.get("energy_wh"), "energy_wh", required=True)
    block_reward = _decimal_cell(
        fields.get("block_reward"), "block_reward", max_fraction_digits=coin_decimals
    )
    tx_fees_total = _decimal_cell(
        fields.get("tx_fees_total"), "tx_fees_total", max_fraction_digits=coin_decimals
    )
    coin_supply = _decimal_cell(
        fields.get("coin_supply"), "coin_supply", required=True, max_fraction_digits=coin_decimals
    )
    if coin_supply == 0:
        raise _RowIssue("coin_supply", "must be > 0")
    lost = _share_cell(fields.get("lost_coin_fraction"), "lost_coin_fraction")
    if lost is not None and lost.value >= 1:
        raise _RowIssue("lost_coin_fraction", "must be < 1")
    tx_count = _count_cell(fields.get("tx_count"), "tx_count", required=True)
    gas_total = _decimal_cell(fields.get("gas_total"), "gas_total")
    pos_tx_share = _share_cell(fields.get("pos_tx_share"), "pos_tx_share")
    emission_factor = _decimal_cell(
        fields.get("emission_factor_g_per_kwh"), "emission_factor_g_per_kwh"
    )

    if tx_count == 0:
        if tx_fees_total:
            raise _RowIssue("tx_fees_total", "must be 0 on a day with no transactions")
        if gas_total:
            raise _RowIssue("gas_total", "must be 0 on a day with no transactions")

    try:
        day = NetworkDay(
            date=date,
            energy=Energy(energy),
            coin_supply=CoinAmount(coin_supply),
            tx_count=tx_count,
            block_reward=CoinAmount(block_reward) if block_reward is not None else None,
            tx_fees_total=CoinAmount(tx_fees_total) if tx_fees_total is not None else None,
            lost_coin_fraction=lost if lost is not None else Share(Fraction(0)),
            gas_total=gas_total,
            pos_tx_share=pos_tx_share,
            emission_factor=emission_factor,
        )
    except ValueError as exc:
        raise _RowIssue(None, str(exc)) from None

    problems = day.consensus_problems(consensus.kind)
    if problems:
        column, reason = problems[0]
        raise _RowIssue(column, reason)
    return day


def parse_network_csv(
    text: str,
    source: str,
    network_id: str,
    consensus: ConsensusParams,
    coin_decimals: int = DEFAULT_COIN_DECIMALS,
) -> Dataset:
    """Parse a network-day CSV document into a partial dataset (days only)."""
    lines = text.splitlines()
    if not lines:
        raise SchemaMismatch(f"{source}: empty file")
    header = tuple(lines[0].split(","))
    if header != NETWORK_CSV_COLUMNS:
        raise SchemaMismatch(
            f"{source}: header {','.join(header)!r} does not match "
            f"{','.join(NETWORK_CSV_COLUMNS)!r}"
        )

    issues: list[ValidationIssue] = []
    days: list[NetworkDay] = []
    seen: set[_dt.date] = set()
    for row_no, line in enumerate(lines[1:], start=1):
        if line == "":
            continue
        cells = line.split(",")
        if len(cells) != len(NETWORK_CSV_COLUMNS):
            issues.append(
                ValidationIssue(
                    source=source,
                    code="row_invalid",
                    reason=f"expected {len(NETWORK_CSV_COLUMNS)} cells, got {len(cells)}",
                    row=row_no,
                )
            )
            continue
        fields = dict(zip(NETWORK_CSV_COLUMNS, cells))
        try:
            date = _date_cell(fields.get("date"))
            if date in seen:
                raise _RowIssue("date", f"duplicate date {date.isoformat()}", "duplicate_date")
            day = day_from_fields(fields, consensus, coin_decimals)
        except _RowIssue as problem:
            issues.append(
                ValidationIssue(
                    source=source,
                    code=problem.code,
                    reason=problem.reason,
                    row=row_no,
                    column=problem.column,
                )
            )
            continue
        seen.add(date)
        days.append(day)
    if issues:
        raise DatasetInvalid(issues)
    days.sort(key=lambda d: d.date)
    return Dataset(network_id=network_id, consensus=consensus, days=tuple(days))


def load_network_csv(
    path: str | Path,
    network_id: str,
    consensus: ConsensusParams,
    coin_decimals: int = DEFAULT_COIN_DECIMALS,
) -> Dataset:
    path = Path(path)
    return parse_network_csv(
        path.read_text(encoding="utf-8"), path.name, network_id, consensus, coin_decimals
    )


def _load_json_document(text: str, source: str) -> dict[str, Any]:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaMismatch(f"{source}: not valid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise SchemaMismatch(f"{source}: top level must be an object")
    return document


def _entity_cell(entry: Mapping[str, Any], key: str = "entity_id") -> str:
    value = entry.get(key)
    if not isinstance(value, str) or not value:
        raise _RowIssue(key, "non-empty string required")
    return value


def parse_portfolio_json(
    text: str, source: str, coin_decimals: int = DEFAULT_COIN_DECIMALS
) -> Portfolio:
    """Parse and validate a portfolio document."""
    document = _load_json_document(text, source)
    _check_schema_version(document, source)
    network_id = document.get("network_id")
    if not isinstance(network_id, str) or not network_id:
        raise SchemaMismatch(f"{source}: missing network_id")

    issues: list[ValidationIssue] = []
    holdings: list[HoldingRecord] = []
    for row_no, entry in enumerate(document.get("holdings", []), start=1):
        try:
            if not isinstance(entry, dict):
                raise _RowIssue(None, "holding must be an object")
            amount = _decimal_cell(
                entry.get("amount"), "amount", required=True, max_fraction_digits=coin_decimals
            )
            holdings.append(
                HoldingRecord(
                    entity_id=_entity_cell(entry),
                    date=_date_cell(entry.get("date")),
                    amount=CoinAmount(amount),
                )
            )
        except _RowIssue as problem:
            issues.append(
                ValidationIssue(
                    source=f"{source}:holdings",
                    code=problem.code,
                    reason=problem.reason,
                    row=row_no,
                    column=problem.column,
                )
            )

    transactions: list[TransactionRecord] = []
    for row_no, entry in enumerate(document.get("transactions", []), start=1):
        try:
            if not isinstance(entry, dict):
                raise _RowIssue(None, "transaction must be an object")
            fee = _decimal_cell(
                entry.get("fee_paid"), "fee_paid", max_fraction_digits=coin_decimals
            )
            gas = _decimal_cell(entry.get("gas_used"), "gas_used")
            count = _count_cell(entry.get("tx_count"), "tx_count")
            if count == 0:
                raise _RowIssue("tx_count", "must be a positive count")
            if fee is None and gas is None and count is None:
                count = 1
            transactions.append(
                TransactionRecord(
                    entity_id=_entity_cell(entry),
                    date=_date_cell(entry.get("date")),
                    fee_paid=CoinAmount(fee) if fee is not None else None,
                    gas_used=gas,
                    tx_count=count,
                )
            )
        except _RowIssue as problem:
            issues.append(
                ValidationIssue(
                    source=f"{source}:transactions",
                    code=problem.code,
                    reason=problem.reason,
                    row=row_no,
                    column=problem.column,
                )
            )

    if issues:
        raise DatasetInvalid(issues)
    return Portfolio(
        network_id=network_id, holdings=tuple(holdings), transactions=tuple(transactions)
    )


def load_portfolio_json(
    path: str | Path, coin_decimals: int = DEFAULT_COIN_DECIMALS
) -> Portfolio:
    path = Path(path)
    return parse_portfolio_json(path.read_text(encoding="utf-8"), path.name, coin_decimals)


def parse_apps_json(text: str, source: str, coin_decimals: int = DEFAULT_COIN_DECIMALS) -> AppBundle:
    """Parse and validate an app registry document."""
    document = _load_json_document(text, source)
    _check_schema_version(document, source)

    issues: list[ValidationIssue] = []
    apps: list[AppDay] = []
    seen: set[tuple[str, _dt.date]] = set()
    for row_no, entry in enumerate(document.get("apps", []), start=1):
        try:
            if not isinstance(entry, dict):
                raise _RowIssue(None, "app must be an object")
            app_id = _entity_cell(entry, "app_id")
            date = _date_cell(entry.get("date"))
            if (app_id, date) in seen:
                raise _RowIssue("date", f"duplicate app day {app_id} {date}", "duplicate_date")
            share = _share_cell(entry.get("app_fee_share"), "app_fee_share", required=True)
            supply = _decimal_cell(
                entry.get("token_supply"), "token_supply", max_fraction_digits=coin_decimals
            )
            if supply == 0:
                raise _RowIssue("token_supply", "must be > 0 when present")
            count = _count_cell(entry.get("app_tx_count"), "app_tx_count", required=True)
            seen.add((app_id, date))
            apps.append(
                AppDay(
                    app_id=app_id,
                    date=date,
                    app_fee_share=share,
                    app_tx_count=count,
                    token_supply=CoinAmount(supply) if supply is not None else None,
                )
            )
        except _RowIssue as problem:
            issues.append(
                ValidationIssue(
                    source=f"{source}:apps",
                    code=problem.code,
                    reason=problem.reason,
                    row=row_no,
                    column=problem.column,
                )
            )

    token_holdings: list[TokenHolding] = []
    for row_no, entry in enumerate(document.get("token_holdings", []), start=1):
        try:
            if not isinstance(entry, dict):
                raise _RowIssue(None, "token holding must be an object")
            amount = _decimal_cell(
                entry.get("amount"), "amount", required=True, max_fraction_digits=coin_decimals
            )
            token_holdings.append(
                TokenHolding(
                    entity_id=_entity_cell(entry),
                    app_id=_entity_cell(entry, "app_id"),
                    date=_date_cell(entry.get("date")),
                    amount=CoinAmount(amount),
                )
            )
        except _RowIssue as problem:
            issues.append(
                ValidationIssue(
                    source=f"{source}:token_holdings",
                    code=problem.code,
                    reason=problem.reason,
                    row=row_no,
                    column=problem.column,
                )
            )

    if issues:
        raise DatasetInvalid(issues)
    return AppBundle(apps=tuple(apps), token_holdings=tuple(token_holdings))


def load_apps_json(path: str | Path, coin_decimals: int = DEFAULT_COIN_DECIMALS) -> AppBundle:
    path = Path(path)
    return parse_apps_json(path.read_text(encoding="utf-8"), path.name, coin_decimals)


def parse_l2_json(
    text: str,
    source: str,
    host_consensus: ConsensusParams,
    coin_decimals: int = DEFAULT_COIN_DECIMALS,
) -> L2Bundle:
    """Parse and validate layer-2 descriptors.

    Each entry may declare its own ``consensus`` (a PoS layer-2 can anchor
    to a PoW layer-1); entries without one are validated against the host's.
    """
    document = _load_json_document(text, source)
    _check_schema_version(document, source)

    issues: list[ValidationIssue] = []
    entries: list[Layer2Day] = []
    consensus_map: dict[str, Consensus] = {}
    seen: set[tuple[str, _dt.date]] = set()
    for row_no, entry in enumerate(document.get("l2s", []), start=1):
        try:
            if not isinstance(entry, dict):
                raise _RowIssue(None, "layer-2 entry must be an object")
            l2_id = _entity_cell(entry, "l2_id")
            date = _date_cell(entry.get("date"))
            if (l2_id, date) in seen:
                raise _RowIssue("date", f"duplicate layer-2 day {l2_id} {date}", "duplicate_date")
            share = _share_cell(entry.get("l1_fee_share"), "l1_fee_share", required=True)
            infra = _decimal_cell(entry.get("infra_energy_wh"), "infra_energy_wh", required=True)
            kind_token = entry.get("consensus")
            if kind_token is not None:
                if not isinstance(kind_token, str) or kind_token not in ("pow", "pos"):
                    raise _RowIssue("consensus", f"must be 'pow' or 'pos', got {kind_token!r}")
                if consensus_map.get(l2_id, Consensus(kind_token)) is not Consensus(kind_token):
                    raise _RowIssue("consensus", f"conflicting consensus for {l2_id}")
                consensus_map[l2_id] = Consensus(kind_token)
            internal = entry.get("internal_day")
            if not isinstance(internal, dict):
                raise _RowIssue("internal_day", "object required")
            kind = ConsensusParams(consensus_map.get(l2_id, host_consensus.kind))
            internal_day = day_from_fields(internal, kind, coin_decimals)
            if internal_day.date != date:
                raise _RowIssue("internal_day", "internal day date must match entry date")
            seen.add((l2_id, date))
            entries.append(
                Layer2Day(
                    l2_id=l2_id,
                    date=date,
                    l1_fee_share=share,
                    infra_energy=Energy(infra),
                    internal_day=internal_day,
                )
            )
        except _RowIssue as problem:
            issues.append(
                ValidationIssue(
                    source=f"{source}:l2s",
                    code=problem.code,
                    reason=problem.reason,
                    row=row_no,
                    column=problem.column,
                )
            )
    if issues:
        raise DatasetInvalid(issues)
    return L2Bundle(entries=tuple(entries), consensus=consensus_map)


def load_l2_json(
    path: str | Path,
    host_consensus: ConsensusParams,
    coin_decimals: int = DEFAULT_COIN_DECIMALS,
) -> L2Bundle:
    path = Path(path)
    return parse_l2_json(
        path.read_text(encoding="utf-8"), path.name, host_consensus, coin_decimals
    )


def assemble_dataset(
    network_id: str,
    consensus: ConsensusParams,
    days: tuple[NetworkDay, ...],
    apps: tuple[AppDay, ...] = (),
    l2s: tuple[Layer2Day, ...] = (),
    schema_version: str = "1",
) -> Dataset:
    """Join per-file pieces into one dataset, enforcing cross-file invariants."""
    dataset = Dataset(
        network_id=network_id,
        consensus=consensus,
        days=days,
        apps=apps,
        l2s=l2s,
        schema_version=schema_version,
    )
    issues = join_issues(dataset)
    if issues:
        raise DatasetInvalid(issues)
    return dataset


def join_issues(
    dataset: Dataset,
    portfolio: Portfolio | None = None,
    token_holdings: tuple[TokenHolding, ...] = (),
) -> list[ValidationIssue]:
    """Cross-dataset validation; returns the complete issue list."""
    issues: list[ValidationIssue] = []
    day_map = dataset.day_map()

    def join_issue(source: str, reason: str, column: str | None = None):
        issues.append(
            ValidationIssue(source=source, code="join_invalid", reason=reason, column=column)
        )

    share_by_date: dict[_dt.date, Fraction] = {}
    app_map: dict[tuple[str, _dt.date], AppDay] = {}
    for app in dataset.apps:
        if app.date not in day_map:
            join_issue("apps", f"{app.app_id}: no network day for {app.date}", "date")
        share_by_date[app.date] = share_by_date.get(app.date, Fraction(0)) + app.app_fee_share.value
        app_map[(app.app_id, app.date)] = app
    for date, total in sorted(share_by_date.items()):
        if total > 1:
            join_issue(
                "apps", f"{date}: app fee shares sum to {total} > 1", "app_fee_share"
            )

    for l2 in dataset.l2s:
        if l2.date not in day_map:
            join_issue("l2s", f"{l2.l2_id}: no network day for {l2.date}", "date")

    for holding in token_holdings:
        app = app_map.get((holding.app_id, holding.date))
        if app is None:
            join_issue(
                "token_holdings",
                f"{holding.entity_id}: no app day for {holding.app_id} on {holding.date}",
                "app_id",
            )
        elif app.token_supply is None:
            join_issue(
                "token_holdings",
                f"{holding.app_id} has no token supply on {holding.date}",
                "amount",
            )
        elif holding.amount.value > app.token_supply.value:
            join_issue(
                "token_holdings",
                f"{holding.entity_id}: amount {holding.amount.value} exceeds token supply "
                f"{app.token_supply.value}",
                "amount",
            )

    if portfolio is not None:
        if portfolio.network_id != dataset.network_id:
            join_issue(
                "portfolio",
                f"portfolio is for {portfolio.network_id!r}, dataset is "
                f"{dataset.network_id!r}",
                "network_id",
            )
        # the bound engine.holding_share enforces, computed once per day
        effective_supply = {date: day.effective_supply() for date, day in day_map.items()}
        for holding in portfolio.holdings:
            supply = effective_supply.get(holding.date)
            if supply is None:
                join_issue(
                    "portfolio.holdings",
                    f"{holding.entity_id}: no network day for {holding.date}",
                    "date",
                )
            elif holding.amount.value > supply:
                join_issue(
                    "portfolio.holdings",
                    f"{holding.entity_id}: amount {holding.amount.value} exceeds coin supply "
                    f"net of lost coins {supply} on {holding.date}",
                    "amount",
                )
        for tx in portfolio.transactions:
            if tx.date not in day_map:
                join_issue(
                    "portfolio.transactions",
                    f"{tx.entity_id}: no network day for {tx.date}",
                    "date",
                )
    return issues


def fill_forward(
    days: tuple[NetworkDay, ...] | list[NetworkDay], wanted: set[_dt.date]
) -> tuple[NetworkDay, ...]:
    """Synthesize missing wanted days by carrying the latest prior day forward.

    Synthesized days are flagged ``filled_forward`` so allocations built on
    them carry the flag in their audit. Dates before the first available day
    cannot be filled and raise ``MissingDay``.
    """
    by_date = {d.date: d for d in days}
    ordered = sorted(by_date)
    unfillable = [date for date in wanted if date not in by_date and (not ordered or date < ordered[0])]
    if unfillable:
        raise MissingDay(unfillable)
    merged = dict(by_date)
    for date in sorted(wanted):
        if date in merged:
            continue
        prior = max(d for d in ordered if d < date)
        merged[date] = replace(by_date[prior], date=date, filled_forward=True)
    return tuple(merged[d] for d in sorted(merged))


def _opt(value: Fraction | None) -> str:
    return decimal_str(value) if value is not None else ""


def serialize_network_csv(days: tuple[NetworkDay, ...] | list[NetworkDay]) -> str:
    """Canonical CSV: rows sorted by date, normalized decimals, LF endings."""
    lines = [",".join(NETWORK_CSV_COLUMNS)]
    for day in sorted(days, key=lambda d: d.date):
        lines.append(
            ",".join(
                (
                    day.date.isoformat(),
                    decimal_str(day.energy.wh),
                    _opt(day.block_reward.value if day.block_reward is not None else None),
                    _opt(day.tx_fees_total.value if day.tx_fees_total is not None else None),
                    decimal_str(day.coin_supply.value),
                    decimal_str(day.lost_coin_fraction.value)
                    if day.lost_coin_fraction.value != 0
                    else "",
                    str(day.tx_count),
                    _opt(day.gas_total),
                    _opt(day.pos_tx_share.value if day.pos_tx_share is not None else None),
                    _opt(day.emission_factor),
                )
            )
        )
    return "\n".join(lines) + "\n"


def _canonical_json(document: dict[str, Any]) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def serialize_portfolio(portfolio: Portfolio) -> str:
    """Canonical portfolio JSON: sorted records, decimals as strings."""
    holdings = [
        {
            "entity_id": h.entity_id,
            "date": h.date.isoformat(),
            "amount": decimal_str(h.amount.value),
        }
        for h in sorted(portfolio.holdings, key=lambda h: (h.date, h.entity_id))
    ]
    transactions = []
    for t in sorted(portfolio.transactions, key=lambda t: (t.date, t.entity_id)):
        entry: dict[str, Any] = {"entity_id": t.entity_id, "date": t.date.isoformat()}
        if t.fee_paid is not None:
            entry["fee_paid"] = decimal_str(t.fee_paid.value)
        if t.gas_used is not None:
            entry["gas_used"] = decimal_str(t.gas_used)
        if t.tx_count is not None:
            entry["tx_count"] = t.tx_count
        transactions.append(entry)
    return _canonical_json(
        {
            "schema_version": "1",
            "network_id": portfolio.network_id,
            "holdings": holdings,
            "transactions": transactions,
        }
    )


def serialize_apps(bundle: AppBundle) -> str:
    """Canonical app registry JSON."""
    apps = []
    for app in sorted(bundle.apps, key=lambda a: (a.date, a.app_id)):
        entry: dict[str, Any] = {
            "app_id": app.app_id,
            "date": app.date.isoformat(),
            "app_fee_share": decimal_str(app.app_fee_share.value),
            "app_tx_count": app.app_tx_count,
        }
        if app.token_supply is not None:
            entry["token_supply"] = decimal_str(app.token_supply.value)
        apps.append(entry)
    token_holdings = [
        {
            "entity_id": h.entity_id,
            "app_id": h.app_id,
            "date": h.date.isoformat(),
            "amount": decimal_str(h.amount.value),
        }
        for h in sorted(bundle.token_holdings, key=lambda h: (h.date, h.app_id, h.entity_id))
    ]
    return _canonical_json(
        {"schema_version": "1", "apps": apps, "token_holdings": token_holdings}
    )


def _day_fields(day: NetworkDay) -> dict[str, Any]:
    fields: dict[str, Any] = {
        "date": day.date.isoformat(),
        "energy_wh": decimal_str(day.energy.wh),
        "coin_supply": decimal_str(day.coin_supply.value),
        "tx_count": day.tx_count,
    }
    if day.block_reward is not None:
        fields["block_reward"] = decimal_str(day.block_reward.value)
    if day.tx_fees_total is not None:
        fields["tx_fees_total"] = decimal_str(day.tx_fees_total.value)
    if day.lost_coin_fraction.value != 0:
        fields["lost_coin_fraction"] = decimal_str(day.lost_coin_fraction.value)
    if day.gas_total is not None:
        fields["gas_total"] = decimal_str(day.gas_total)
    if day.pos_tx_share is not None:
        fields["pos_tx_share"] = decimal_str(day.pos_tx_share.value)
    if day.emission_factor is not None:
        fields["emission_factor_g_per_kwh"] = decimal_str(day.emission_factor)
    return fields


def serialize_l2(bundle: L2Bundle) -> str:
    """Canonical layer-2 JSON."""
    entries = []
    for l2 in sorted(bundle.entries, key=lambda e: (e.date, e.l2_id)):
        entry: dict[str, Any] = {
            "l2_id": l2.l2_id,
            "date": l2.date.isoformat(),
            "l1_fee_share": decimal_str(l2.l1_fee_share.value),
            "infra_energy_wh": decimal_str(l2.infra_energy.wh),
            "internal_day": _day_fields(l2.internal_day),
        }
        if l2.l2_id in bundle.consensus:
            entry["consensus"] = bundle.consensus[l2.l2_id].value
        entries.append(entry)
    return _canonical_json({"schema_version": "1", "l2s": entries})
