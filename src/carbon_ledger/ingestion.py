"""File ingestion: parse, validate, and join every input dataset.

Network telemetry arrives as wide CSV, one row per UTC day; portfolios, app
registries, and layer-2 descriptors arrive as JSON with all decimals encoded
as strings. Each record type declares its columns once (``_Spec``); that one
spec parses a row, names its first bad column, and writes the record back in
canonical form (sorted rows, normalized decimals), so load/serialize
round-trips are byte-identical by construction. Parsing is exact (no float
round-trip anywhere) and validation reports every invalid row's first
problem, rather than stopping at the first bad row.

Documents are decoded and their records built inside ``bulk()``, with the
cyclic garbage collector paused: those objects hold no cycles, and each
full collection would otherwise rescan every record built so far.
"""

from __future__ import annotations

import datetime as _dt
import functools
import gc
import json
import re
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple

from .apps import AppDay, TokenHolding
from .errors import DatasetInvalid, SchemaMismatch, ValidationIssue
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
from .numeric import decimal_str, split_decimal

SCHEMA_MAJOR = 1
DEFAULT_COIN_DECIMALS = 18


@dataclass(frozen=True)
class Dataset:
    """Validated, immutable in-memory form of one network's inputs."""

    network_id: str
    consensus: ConsensusParams
    days: tuple[NetworkDay, ...]
    apps: tuple[AppDay, ...] = ()
    l2s: tuple[Layer2Day, ...] = ()

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


class RowProblem(Exception):
    """The first problem found in a row: its column (None for the whole row) and why."""

    def __init__(self, column: str | None, reason: str, code: str = "row_invalid"):
        self.column = column
        self.reason = reason
        self.code = code
        super().__init__(reason)


@contextmanager
def bulk() -> Iterator[None]:
    """Pause the cyclic garbage collector while a document is decoded or its records built.

    Those objects are acyclic, so a collection would free none of them while
    rescanning them all. The collector is re-enabled on exit, also on error,
    and only if it was on at entry: nested use and a caller's own
    ``gc.disable()`` are kept.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# Exactly YYYY-MM-DD in ASCII digits: on Python 3.11+ ``date.fromisoformat``
# also reads ``20210101`` and week dates such as ``2021-W01-5``, which would
# not serialize back to the text they were read from.
_ISO_DATE = re.compile(r"\d{4}-\d{2}-\d{2}", re.ASCII)


@functools.lru_cache(maxsize=4096)
def parse_date(token: str) -> _dt.date:
    """The calendar date of a ``YYYY-MM-DD`` token; ValueError for anything else.

    Memoised, with a bound: records repeat their dates (a year of records has
    365 distinct ones).
    """
    if _ISO_DATE.fullmatch(token) is None:
        raise ValueError(f"not an ISO-8601 date: {token!r}")
    return _dt.date.fromisoformat(token)


# Cell parsers: a JSON or CSV cell in, a record value (None when absent) out.


def _token(value: Any, column: str) -> str | None:
    """Normalize a JSON or CSV cell to a decimal token, or None when absent."""
    if isinstance(value, str):
        return value if value != "" else None
    if value is None:
        return None
    if isinstance(value, bool):
        raise RowProblem(column, "decimal must be a string, not a boolean")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        raise RowProblem(column, "decimal must be a string to avoid float mangling")
    raise RowProblem(column, f"unsupported value type {type(value).__name__}")


def _decimal(value: Any, column: str, coin_decimals: int | None = None) -> Fraction | None:
    """A non-negative decimal; with ``coin_decimals``, no finer than the smallest coin unit."""
    if isinstance(value, str) and value:
        token = value
    elif (token := _token(value, column)) is None:
        return None
    try:
        parsed, places = split_decimal(token)
    except ValueError:
        raise RowProblem(column, f"not a plain decimal: {token!r}") from None
    if parsed.numerator < 0:
        raise RowProblem(column, f"negative value not allowed: {token!r}")
    if coin_decimals is not None and places > coin_decimals:
        detail = "precision exceeds the smallest denomination"
        raise RowProblem(column, f"{token!r} has more than {coin_decimals} fractional digits; {detail}")
    return parsed


def _coin(value: Any, column: str, coin_decimals: int) -> CoinAmount | None:
    parsed = _decimal(value, column, coin_decimals)
    return None if parsed is None else CoinAmount(parsed)


def _energy(value: Any, column: str, coin_decimals: int) -> Energy | None:
    parsed = _decimal(value, column)
    return None if parsed is None else Energy(parsed)


def _share(value: Any, column: str, coin_decimals: int) -> Share | None:
    parsed = _decimal(value, column)
    if parsed is not None and parsed.numerator > parsed.denominator:
        raise RowProblem(column, f"must be within [0, 1], got {parsed}")
    return None if parsed is None else Share(parsed)


def _is_digits(token: str) -> bool:
    """True for a non-empty run of ASCII digits (``str.isdigit`` also takes '²' and '٣')."""
    return token.isascii() and token.isdigit()


def _count(value: Any, column: str, coin_decimals: int) -> int | None:
    token = _token(value, column)
    if token is not None and not _is_digits(token):
        raise RowProblem(column, f"not a non-negative integer: {token!r}")
    return None if token is None else int(token)


def _date(value: Any, column: str, coin_decimals: int) -> _dt.date | None:
    token = _token(value, column)
    try:
        return None if token is None else parse_date(token)
    except ValueError:
        raise RowProblem(column, f"not an ISO-8601 date: {token!r}") from None


def _id(value: Any, column: str, coin_decimals: int) -> str:
    if not isinstance(value, str) or not value:
        raise RowProblem(column, "non-empty string required")
    return value


# Cell kinds: (parser, renderer). A renderer gives the JSON cell; a CSV cell is its str().
_DATE = (_date, _dt.date.isoformat)
_ID = (_id, str)
_DECIMAL = (lambda value, column, coin_decimals: _decimal(value, column), decimal_str)
_ENERGY = (_energy, lambda energy: decimal_str(energy.wh))
_COIN = (_coin, lambda amount: decimal_str(amount.value))
_SHARE = (_share, lambda share: decimal_str(share.value))
_COUNT = (_count, int)


class _Column(NamedTuple):
    """One column: its JSON key or CSV header, record attribute, cell kind, and what absence means.

    An absent cell is a problem when ``required`` and reads as ``default``
    otherwise; a value equal to ``default`` is written back as absent.
    ``bound`` is a (predicate, reason) check on a present value.
    """

    name: str
    attr: str
    parse: Callable
    render: Callable
    required: bool
    default: Any
    bound: tuple[Callable, str] | None


def _column(name, kind, required=False, *, attr=None, default=None, bound=None) -> _Column:
    return _Column(name, attr or name, *kind, required, default, bound)


class _Spec:
    """A record type's columns, in the order a row's cells are checked.

    ``noun`` names a row that is not an object. The first ``key`` columns
    identify a record and must be unique in a document (``duplicate`` names
    one in the problem); ``order`` lists the attributes that sort output.
    """

    def __init__(self, noun, columns, order, key=None, duplicate=""):
        self.noun, self.columns, self.key, self.duplicate = noun, columns, key, duplicate
        self.names = tuple(column.name for column in columns)
        self.sort_key = attrgetter(*order)

    def read(self, row: Any, coin_decimals: int, seen: set[tuple] | None = None) -> dict[str, Any]:
        """A row's record values by attribute; raises RowProblem at its first problem.

        Runs once per cell of every record, so each column's absence, default
        and bound are handled here inline.
        """
        if not isinstance(row, dict):
            raise RowProblem(None, f"{self.noun} must be an object")
        values: dict[str, Any] = {}
        cell, key_index = row.get, self.key
        for index, (name, attr, parse, _, required, default, bound) in enumerate(self.columns):
            if index == key_index and seen and (key := tuple(values.values())) in seen:
                reason = f"duplicate {self.duplicate} {' '.join(map(str, key))}"
                raise RowProblem("date", reason, "duplicate_date")
            value = parse(cell(name), name, coin_decimals)
            if value is None:
                if required:
                    raise RowProblem(name, "value required")
                value = default
            elif bound is not None and not bound[0](value):
                raise RowProblem(name, bound[1])
            values[attr] = value
        return values

    def fields(self, record: Any) -> dict[str, Any]:
        """The record as a canonical JSON object; absent columns are left out."""
        fields = {}
        for column in self.columns:
            value = getattr(record, column.attr)
            if value != column.default:
                fields[column.name] = column.render(value)
        return fields

    def dump(self, records: Iterable[Any]) -> list[dict[str, Any]]:
        return [self.fields(record) for record in sorted(records, key=self.sort_key)]


def _nonzero(coins: CoinAmount) -> bool:
    return coins.value.numerator != 0


_DAY = _Spec(
    "network day",
    (
        _column("date", _DATE, True),
        _column("energy_wh", _ENERGY, True, attr="energy"),
        _column("block_reward", _COIN),
        _column("tx_fees_total", _COIN),
        _column("coin_supply", _COIN, True, bound=(_nonzero, "must be > 0")),
        _column(
            "lost_coin_fraction",
            _SHARE,
            default=Share(0),
            bound=(lambda lost: lost.value.numerator < lost.value.denominator, "must be < 1"),
        ),
        _column("tx_count", _COUNT, True),
        _column("gas_total", _DECIMAL),
        _column("pos_tx_share", _SHARE),
        _column("emission_factor_g_per_kwh", _DECIMAL, attr="emission_factor"),
    ),
    order=("date",), key=1, duplicate="date",
)
_HOLDING = _Spec(
    "holding",
    (_column("amount", _COIN, True), _column("entity_id", _ID), _column("date", _DATE, True)),
    order=("date", "entity_id"),
)
_TRANSACTION = _Spec(
    "transaction",
    (
        _column("fee_paid", _COIN),
        _column("gas_used", _DECIMAL),
        _column("tx_count", _COUNT, bound=(lambda count: count != 0, "must be a positive count")),
        _column("entity_id", _ID),
        _column("date", _DATE, True),
    ),
    order=("date", "entity_id"),
)
_APP = _Spec(
    "app",
    (
        _column("app_id", _ID), _column("date", _DATE, True),
        _column("app_fee_share", _SHARE, True),
        _column("token_supply", _COIN, bound=(_nonzero, "must be > 0 when present")),
        _column("app_tx_count", _COUNT, True),
    ),
    order=("date", "app_id"), key=2, duplicate="app day",
)
_TOKEN_HOLDING = _Spec(
    "token holding",
    (
        _column("amount", _COIN, True),
        _column("entity_id", _ID),
        _column("app_id", _ID),
        _column("date", _DATE, True),
    ),
    order=("date", "app_id", "entity_id"),
)
_L2 = _Spec(
    "layer-2 entry",
    (
        _column("l2_id", _ID), _column("date", _DATE, True),
        _column("l1_fee_share", _SHARE, True),
        _column("infra_energy_wh", _ENERGY, True, attr="infra_energy"),
    ),
    order=("date", "l2_id"), key=2, duplicate="layer-2 day",
)

NETWORK_CSV_COLUMNS = _DAY.names


def _collect(source: str, rows: Iterable[tuple[int, Any]], parse: Callable, issues: list) -> list:
    """The one row loop: parse each numbered row; a problem becomes that row's issue."""
    records = []
    with bulk():
        for row_no, row in rows:
            try:
                records.append(parse(row))
            except RowProblem as problem:
                issue = ValidationIssue(source, problem.code, problem.reason, row_no, problem.column)
                issues.append(issue)
    return records


def _sections(document: dict[str, Any], source: str, **parsers: Callable) -> list[list]:
    """Records of each named array of a JSON document, or every row's issue raised at once."""
    issues: list[ValidationIssue] = []
    records = [
        _collect(f"{source}:{key}", enumerate(document.get(key, []), start=1), parse, issues)
        for key, parse in parsers.items()
    ]
    if issues:
        raise DatasetInvalid(issues)
    return records


class Decoded(NamedTuple):
    """A JSON file already decoded; the ``load_*_json`` functions take it in place of its path."""

    name: str
    document: Any


def _json_document(text: str | Any, source: str) -> dict[str, Any]:
    """The schema-checked document of a JSON text, or of an already decoded one."""
    document = text
    if isinstance(text, str):
        try:
            with bulk():
                document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaMismatch(f"{source}: not valid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise SchemaMismatch(f"{source}: top level must be an object")
    version = document.get("schema_version")
    if not isinstance(version, str) or not version:
        raise SchemaMismatch(f"{source}: missing schema_version")
    major = version.split(".", 1)[0]
    if not _is_digits(major) or int(major) != SCHEMA_MAJOR:
        raise SchemaMismatch(f"{source}: unsupported schema_version {version!r}")
    return document


def _read(path: str | Path | Decoded) -> tuple[Any, str]:
    """A file's text (a ``Decoded`` file's document) and its name, the source of its issues."""
    if isinstance(path, Decoded):
        return path.document, path.name
    path = Path(path)
    return path.read_text(encoding="utf-8"), path.name


def _day(values: dict[str, Any], consensus: ConsensusParams) -> NetworkDay:
    """The day a row's values describe, once its cross-column rules hold."""
    if values["tx_count"] == 0:
        if values["tx_fees_total"] is not None and values["tx_fees_total"].value:
            raise RowProblem("tx_fees_total", "must be 0 on a day with no transactions")
        if values["gas_total"]:
            raise RowProblem("gas_total", "must be 0 on a day with no transactions")
    day = NetworkDay(**values)
    problems = day.consensus_problems(consensus.kind)
    if problems:
        raise RowProblem(*problems[0])
    return day


def day_from_fields(
    fields: Mapping[str, Any], consensus: ConsensusParams, coin_decimals: int = DEFAULT_COIN_DECIMALS
) -> NetworkDay:
    """Build one validated NetworkDay from named cells.

    Raises ``RowProblem`` on the first problem; shared by the CSV and layer-2
    loaders and the remote client so all of them validate identically.
    """
    return _day(_DAY.read(fields, coin_decimals), consensus)


def day_to_fields(day: NetworkDay) -> dict[str, Any]:
    """The JSON object ``day_from_fields`` reads back as ``day``."""
    return _DAY.fields(day)


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
        expected = ",".join(NETWORK_CSV_COLUMNS)
        raise SchemaMismatch(f"{source}: header {','.join(header)!r} does not match {expected!r}")
    seen: set[tuple] = set()

    def parse_line(line: str) -> NetworkDay:
        cells = line.split(",")
        if len(cells) != len(NETWORK_CSV_COLUMNS):
            raise RowProblem(None, f"expected {len(NETWORK_CSV_COLUMNS)} cells, got {len(cells)}")
        day = _day(_DAY.read(dict(zip(NETWORK_CSV_COLUMNS, cells)), coin_decimals, seen), consensus)
        seen.add((day.date,))
        return day

    issues: list[ValidationIssue] = []
    rows = ((row_no, line) for row_no, line in enumerate(lines[1:], start=1) if line)
    days = _collect(source, rows, parse_line, issues)
    if issues:
        raise DatasetInvalid(issues)
    return Dataset(network_id, consensus, tuple(sorted(days, key=_DAY.sort_key)))


def load_network_csv(
    path: str | Path, network_id: str, consensus: ConsensusParams, coin_decimals: int = DEFAULT_COIN_DECIMALS
) -> Dataset:
    return parse_network_csv(*_read(path), network_id, consensus, coin_decimals)


def _transaction(values: dict[str, Any]) -> TransactionRecord:
    # a record with no basis at all stands for one transaction
    if values["fee_paid"] is None and values["gas_used"] is None and values["tx_count"] is None:
        values["tx_count"] = 1
    return TransactionRecord(**values)


def parse_portfolio_json(text: str, source: str, coin_decimals: int = DEFAULT_COIN_DECIMALS) -> Portfolio:
    """Parse and validate a portfolio document."""
    document = _json_document(text, source)
    network_id = document.get("network_id")
    if not isinstance(network_id, str) or not network_id:
        raise SchemaMismatch(f"{source}: missing network_id")
    holdings, transactions = _sections(
        document,
        source,
        holdings=lambda row: HoldingRecord(**_HOLDING.read(row, coin_decimals)),
        transactions=lambda row: _transaction(_TRANSACTION.read(row, coin_decimals)),
    )
    return Portfolio(network_id, tuple(holdings), tuple(transactions))


def load_portfolio_json(path: str | Path | Decoded, coin_decimals: int = DEFAULT_COIN_DECIMALS) -> Portfolio:
    return parse_portfolio_json(*_read(path), coin_decimals)


def parse_apps_json(text: str, source: str, coin_decimals: int = DEFAULT_COIN_DECIMALS) -> AppBundle:
    """Parse and validate an app registry document."""
    seen: set[tuple] = set()

    def parse_app(row: Any) -> AppDay:
        app = AppDay(**_APP.read(row, coin_decimals, seen))
        seen.add((app.app_id, app.date))
        return app

    apps, token_holdings = _sections(
        _json_document(text, source),
        source,
        apps=parse_app,
        token_holdings=lambda row: TokenHolding(**_TOKEN_HOLDING.read(row, coin_decimals)),
    )
    return AppBundle(tuple(apps), tuple(token_holdings))


def load_apps_json(path: str | Path | Decoded, coin_decimals: int = DEFAULT_COIN_DECIMALS) -> AppBundle:
    return parse_apps_json(*_read(path), coin_decimals)


def parse_l2_json(
    text: str, source: str, host_consensus: ConsensusParams, coin_decimals: int = DEFAULT_COIN_DECIMALS
) -> L2Bundle:
    """Parse and validate layer-2 descriptors.

    Each entry may declare its own ``consensus`` (a PoS layer-2 can anchor
    to a PoW layer-1); entries without one are validated against the host's.
    """
    consensus_map: dict[str, Consensus] = {}
    seen: set[tuple] = set()

    def parse_entry(row: Any) -> Layer2Day:
        values = _L2.read(row, coin_decimals, seen)
        l2_id, date = values["l2_id"], values["date"]
        kind = row.get("consensus")
        if kind is not None:
            if not isinstance(kind, str) or kind not in ("pow", "pos"):
                raise RowProblem("consensus", f"must be 'pow' or 'pos', got {kind!r}")
            if consensus_map.setdefault(l2_id, Consensus(kind)) is not Consensus(kind):
                raise RowProblem("consensus", f"conflicting consensus for {l2_id}")
        internal = row.get("internal_day")
        if not isinstance(internal, dict):
            raise RowProblem("internal_day", "object required")
        params = ConsensusParams(consensus_map.get(l2_id, host_consensus.kind))
        internal_day = day_from_fields(internal, params, coin_decimals)
        if internal_day.date != date:
            raise RowProblem("internal_day", "internal day date must match entry date")
        seen.add((l2_id, date))
        return Layer2Day(internal_day=internal_day, **values)

    (entries,) = _sections(_json_document(text, source), source, l2s=parse_entry)
    return L2Bundle(entries=tuple(entries), consensus=consensus_map)


def load_l2_json(
    path: str | Path | Decoded, host_consensus: ConsensusParams, coin_decimals: int = DEFAULT_COIN_DECIMALS
) -> L2Bundle:
    return parse_l2_json(*_read(path), host_consensus, coin_decimals)


def join_issues(
    dataset: Dataset,
    portfolio: Portfolio | None = None,
    token_holdings: tuple[TokenHolding, ...] = (),
) -> list[ValidationIssue]:
    """Cross-dataset validation; returns the complete issue list."""
    issues: list[ValidationIssue] = []
    day_map = dataset.day_map()

    def join_issue(source: str, reason: str, column: str) -> None:
        issues.append(ValidationIssue(source, "join_invalid", reason, column=column))

    def no_day(source: str, who: str, date: _dt.date) -> None:
        join_issue(source, f"{who}: no network day for {date}", "date")

    share_by_date: dict[_dt.date, Fraction] = {}
    app_map: dict[tuple[str, _dt.date], AppDay] = {}
    for app in dataset.apps:
        if app.date not in day_map:
            no_day("apps", app.app_id, app.date)
        share_by_date[app.date] = share_by_date.get(app.date, Fraction(0)) + app.app_fee_share.value
        app_map[(app.app_id, app.date)] = app
    for date, total in sorted(share_by_date.items()):
        if total > 1:
            join_issue("apps", f"{date}: app fee shares sum to {total} > 1", "app_fee_share")

    for l2 in dataset.l2s:
        if l2.date not in day_map:
            no_day("l2s", l2.l2_id, l2.date)

    for holding in token_holdings:
        who, amount = holding.entity_id, holding.amount.value
        app = app_map.get((holding.app_id, holding.date))
        if app is None:
            reason = f"{who}: no app day for {holding.app_id} on {holding.date}"
            join_issue("token_holdings", reason, "app_id")
        elif app.token_supply is None:
            reason = f"{holding.app_id} has no token supply on {holding.date}"
            join_issue("token_holdings", reason, "amount")
        elif amount > app.token_supply.value:
            reason = f"{who}: amount {amount} exceeds token supply {app.token_supply.value}"
            join_issue("token_holdings", reason, "amount")

    if portfolio is not None:
        if portfolio.network_id != dataset.network_id:
            reason = f"portfolio is for {portfolio.network_id!r}, dataset is {dataset.network_id!r}"
            join_issue("portfolio", reason, "network_id")
        # the bound the engine's holding share enforces, computed once per day
        effective_supply = {date: day.effective_supply() for date, day in day_map.items()}
        for holding in portfolio.holdings:
            supply = effective_supply.get(holding.date)
            if supply is None:
                no_day("portfolio.holdings", holding.entity_id, holding.date)
            elif holding.amount.value > supply:
                net = f"coin supply net of lost coins {supply} on {holding.date}"
                reason = f"{holding.entity_id}: amount {holding.amount.value} exceeds {net}"
                join_issue("portfolio.holdings", reason, "amount")
        for tx in portfolio.transactions:
            if tx.date not in day_map:
                no_day("portfolio.transactions", tx.entity_id, tx.date)
    return issues


def serialize_network_csv(days: tuple[NetworkDay, ...] | list[NetworkDay]) -> str:
    """Canonical CSV: rows sorted by date, normalized decimals, LF endings."""
    lines = [",".join(NETWORK_CSV_COLUMNS)]
    for fields in _DAY.dump(days):
        lines.append(",".join(str(fields.get(name, "")) for name in NETWORK_CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _canonical_json(**document: Any) -> str:
    """A schema-1 JSON document: sorted keys, two-space indent, final newline."""
    return json.dumps({"schema_version": "1", **document}, indent=2, sort_keys=True) + "\n"


def serialize_portfolio(portfolio: Portfolio) -> str:
    """Canonical portfolio JSON: sorted records, decimals as strings."""
    return _canonical_json(
        network_id=portfolio.network_id,
        holdings=_HOLDING.dump(portfolio.holdings),
        transactions=_TRANSACTION.dump(portfolio.transactions),
    )


def serialize_apps(bundle: AppBundle) -> str:
    """Canonical app registry JSON."""
    return _canonical_json(
        apps=_APP.dump(bundle.apps), token_holdings=_TOKEN_HOLDING.dump(bundle.token_holdings)
    )


def serialize_l2(bundle: L2Bundle) -> str:
    """Canonical layer-2 JSON."""
    entries = []
    for l2 in sorted(bundle.entries, key=_L2.sort_key):
        entry = dict(_L2.fields(l2), internal_day=day_to_fields(l2.internal_day))
        if l2.l2_id in bundle.consensus:
            entry["consensus"] = bundle.consensus[l2.l2_id].value
        entries.append(entry)
    return _canonical_json(l2s=entries)
