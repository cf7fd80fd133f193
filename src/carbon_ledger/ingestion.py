"""File ingestion: parse, validate, and join every input dataset.

Every input rule lives here: ``validate_files`` checks a set of files in one
call, and the remote client reads responses and cache entries through public
names. Every network day, from any source, is read by one days loop.

Network telemetry arrives as wide CSV, one row per UTC day; portfolios, app
registries, and layer-2 descriptors arrive as JSON with all decimals encoded
as strings. Each record type declares its columns once (``_Spec``); that one
spec parses a row, names its first bad column, and writes the record back in
canonical form (sorted rows, normalized decimals), so load/serialize
round-trips are byte-identical by construction. Parsing is exact (no float
round-trip anywhere) and validation reports every invalid row's first
problem, rather than stopping at the first bad row.

Each spec's section loop is generated as straight-line source on its first use, once,
one local per column, as ``dataclasses`` builds ``__init__`` (an import compiles none,
and ``allocate`` only the days, holding and transaction loops): it reads a JSON array
with no call per row, builds a clean cell (a plain non-negative decimal, told with no
regex, a ``YYYY-MM-DD`` date, a non-empty id, a non-negative int count) inline, a coin
amount with no Python call, and hands every other cell to its column's parser, so every
row problem still comes from one place; the spec's row reader is that loop run on one
row. It is the only row loop: a days CSV's lines are read by it as dicts, and a record
that needs more than its columns (a network day's consensus rule, a layer-2 entry's
internal day) is made by the ``finish`` hook the loop calls on each row; a keyed
record's key counts as seen only once that record is built.

Documents are decoded and their records built inside ``bulk()``, with the
cyclic garbage collector paused: those objects hold no cycles, and each
full collection would otherwise rescan every record built so far. The CLI
runs each whole command inside one such pause.

A JSON file is decoded one top-level member at a time (``_members``), by the
pieces of ``json.loads``, and ``_read_members`` is the one place a section
becomes records: as soon as it is decoded, each row dropped as its record is
built, so the next section's tree reuses the freed rows' memory. Each kind
lists its sections once, in a table of section loops that the walk reads and
``_sections`` gathers from. A portfolio's load peaks at its text, its holding
records and its transactions' tree, not at the text and both trees. Layer-2
entries are read only once their document's schema holds, and text that
``json.loads`` does not read as an object is decoded whole again, for its
error. ``validate`` walks each file once and parses the document it walked.
"""

from __future__ import annotations

import datetime as _dt
import functools
import gc
import json
import re
from contextlib import contextmanager
from fractions import Fraction
from itertools import accumulate, repeat
from operator import attrgetter, mul
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple

from .apps import AppDay, TokenHolding, check_app_day, claimed_fee_share, token_quantities
from .engine import BASIS_ORDER, holding_quantities, transaction_quantities
from .errors import (
    BasisUnavailable, DatasetInvalid, InvalidValue, NoTransactions, NotAToken, RowProblem, SchemaMismatch,
    ShareOverflow, ValidationIssue,
)
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
    Value,
)
from .numeric import decimal_str, split_decimal

SCHEMA_MAJOR = 1
DEFAULT_COIN_DECIMALS = 18
# 10**places for each fraction length a clean decimal token can have (``_decimal_cell``): read, not computed, per cell
_TENS = tuple(accumulate(repeat(10, 640), mul, initial=1))


class Dataset(Value):
    """Validated, immutable in-memory form of one network's inputs."""

    __slots__ = ("network_id", "consensus", "days", "apps", "l2s")
    _defaults = {"apps": (), "l2s": ()}

    def day_map(self) -> dict[_dt.date, NetworkDay]:
        return {d.date: d for d in self.days}


class AppBundle(Value):
    """Loaded app registry: per-day app telemetry (``apps``) plus ``token_holdings``."""

    __slots__ = ("apps", "token_holdings")


class L2Bundle(Value):
    """Loaded layer-2 descriptors, ``entries``; ``consensus`` maps an L2 id to the kind its entries declare."""

    __slots__ = ("entries", "consensus")


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
def _iso_date(token: str) -> _dt.date | None:
    """The calendar date of a ``YYYY-MM-DD`` token, or None for anything else.

    Memoised, with a bound: records repeat their dates (a year of records has
    365 distinct ones).
    """
    if _ISO_DATE.fullmatch(token) is None:
        return None
    try:
        return _dt.date.fromisoformat(token)
    except ValueError:
        return None


def parse_date(token: str) -> _dt.date:
    """The calendar date of a ``YYYY-MM-DD`` token; InvalidValue (a ValueError) for anything else."""
    date = _iso_date(token)
    if date is None:
        raise InvalidValue(f"not an ISO-8601 date: {token!r}")
    return date


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
    if (token := _token(value, column)) is None:
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
    if (token := _token(value, column)) is None:
        return None
    if not _is_digits(token):
        raise RowProblem(column, f"not a non-negative integer: {token!r}")
    try:
        return int(token)
    except ValueError:  # beyond the interpreter's integer digit limit
        raise RowProblem(column, f"integer of {len(token)} digits is too long") from None


def _date(value: Any, column: str, coin_decimals: int) -> _dt.date | None:
    if (token := _token(value, column)) is None:
        return None
    if (date := _iso_date(token)) is None:
        raise RowProblem(column, f"not an ISO-8601 date: {token!r}")
    return date


def _id(value: Any, column: str, coin_decimals: int) -> str:
    if not isinstance(value, str) or not value:
        raise RowProblem(column, "non-empty string required")
    try:
        value.encode("utf-8")  # a lone surrogate (JSON's "\ud800") has no UTF-8 form: no CSV could hold it
    except UnicodeEncodeError:
        raise RowProblem(column, f"not encodable as UTF-8: {value!r}") from None
    return value


def _inline(value: str, clean: str) -> str:
    """Source of a cell: ``value`` (a statement) when ``clean`` holds, None when absent, else the parser's."""
    return f"if {clean}:\n    {value}\nelif v is None:\n    {{x}} = None\nelse:\n    {{x}} = {{parse}}"


def _decimal_cell(value: str, clean: str = "") -> str:
    """``_inline`` for a decimal kind; ``clean`` adds to the test of a token the parsers take as it is.

    That is ASCII: an optional ``+`` and digits (``w``), then an optional point and digits (``f``), in at most 640
    characters, within any digit limit int() can have. ``value`` reads ``w``, ``f`` and the exact value ``{q}``.
    """
    token = '((w := (p := v.partition("."))[0]).isdigit() or w[:1] == "+" and w[1:].isdigit())'
    test = f'v.__class__ is str and len(v) <= 640 and v.isascii() and {token} and ((f := p[2]).isdigit() or not p[1])'
    return _inline(value.replace("{q}", "Fraction(int(w + f), _TENS[len(f)])"), test + clean)


class _Kind(NamedTuple):
    """A cell kind: its parser and renderer, and the source a generated reader inlines for a cell.

    A renderer gives the JSON cell; a CSV cell is its str(). ``source`` is statements on the
    cell ``v`` that set the column's local ``{x}``: an absent or clean cell's value is built
    there as the parser would build it (a coin amount from its two integers, calling no Python
    code), and every other cell is the parser's (``{parse}``), so every RowProblem comes from it.
    """

    parse: Callable
    render: Callable
    source: str


_DATE = _Kind(_date, _dt.date.isoformat, _inline("{x} = _iso_date(v) or {parse}", "v.__class__ is str"))
_ID = _Kind(_id, str, "{x} = v if v.__class__ is str and v and v.isascii() else {parse}")
_DECIMAL = _Kind(lambda value, column, coin_decimals: _decimal(value, column), decimal_str, _decimal_cell("{x} = {q}"))
_ENERGY = _Kind(_energy, lambda energy: decimal_str(energy.wh), _decimal_cell("{x} = Energy({q})"))
_COIN = _Kind(_coin, lambda amount: decimal_str(amount.value), _decimal_cell(
    "{x} = _new(CoinAmount); _units({x}, int(w + f)); _scale({x}, _TENS[n])", " and (n := len(f)) <= coin_decimals"
))
_SHARE = _Kind(_share, lambda share: decimal_str(share.value), _decimal_cell(
    "{x} = Share(q) if (q := {q}).numerator <= q.denominator else {parse}"
))
_COUNT = _Kind(_count, int, _inline("{x} = v", "v.__class__ is int and v >= 0"))


class _Column(NamedTuple):
    """One column: its JSON key or CSV header, record attribute, cell kind, and what absence means.

    An absent cell is a problem when ``required`` and reads as ``default``
    otherwise; a value equal to ``default`` is written back as absent.
    ``bound`` is a (predicate, reason) check on a present value. The record
    type checks it again, but only once the whole row is read: the ``bound``
    makes a row report its first problem in column order.
    """

    name: str
    attr: str
    kind: _Kind
    required: bool
    default: Any
    bound: tuple[Callable, str] | None


def _column(name, kind, required=False, *, attr=None, default=None, bound=None) -> _Column:
    return _Column(name, attr or name, kind, required, default, bound)


class _Spec:
    """A record type's columns, in the order a row's cells are checked.

    ``noun`` names a row that is not an object. The first ``key`` columns
    identify a record and must be unique in a document and across the files
    ``_merge`` joins (``duplicate`` names one in the problem); ``order`` lists
    the attributes that sort output.
    ``build`` makes the record from its values by attribute. A ``record``
    class is made instead without its ``__init__``, its slots set directly,
    after the source ``fill`` (on the column values ``x0``, ``x1``, ...):
    the columns and ``fill`` hold every rule its ``__init__`` checks.
    ``read_rows`` is the section loop, generated from the columns when first
    read, and ``reader`` its one-row case; both take a ``finish(record, row)``
    that makes the final record (days and layer-2 entries build a dict of
    their values for it), after which the row's key counts as seen. A spec
    called is its section loop, so it is its own entry in a sections table.
    """

    def __init__(self, noun, columns, order, build=None, key=None, duplicate="", record=None, fill=""):
        self.noun, self.columns, self.key, self.duplicate = noun, columns, key, duplicate
        self.build, self.record, self.fill = build or record, record, fill
        self.names = tuple(column.name for column in columns)
        self.sort_key = attrgetter(*order)

    @functools.cached_property
    def read_rows(self) -> Callable:
        return _reader(self)

    def __call__(self, rows: list, coin_decimals: int, source=None, issues=None, finish=None, seen=None) -> list:
        return self.read_rows(rows, coin_decimals, source, issues, finish, seen)

    def reader(self, row: Any, coin_decimals: int, seen: set | None = None, finish: Callable | None = None) -> Any:
        return self.read_rows([row], coin_decimals, None, None, finish, seen)[0]

    def fields(self, record: Any) -> dict[str, Any]:
        """The record as a canonical JSON object; absent columns are left out."""
        fields = {}
        for column in self.columns:
            value = getattr(record, column.attr)
            if value != column.default:
                fields[column.name] = column.kind.render(value)
        return fields

    def dump(self, records: Iterable[Any]) -> list[dict[str, Any]]:
        return [self.fields(record) for record in sorted(records, key=self.sort_key)]


def _reader(spec: _Spec) -> Callable:
    """The spec's section loop, generated as ``dataclasses`` builds ``__init__`` when ``read_rows`` is first read.

    ``read_rows(rows, coin_decimals, source=None, issues=None, finish=None,
    seen=None)`` returns the records of a JSON array, setting each slot to
    None as its row is taken: a row's RowProblem becomes its ValidationIssue
    (1-based row) in ``issues``, or is raised when ``issues`` is None.
    Per column, in order: at the key index, the test of the key so far
    against the keys seen; the cell, built inline when clean and by its
    parser otherwise; then its absence (required or default) or its bound.
    The record is then ``finish(record, row)`` when a ``finish`` is given,
    and only once that is built does a keyed spec's key count as seen. The
    loop adds keys to its own copy of ``seen``, never to the caller's set.
    """
    names = {
        "RowProblem": RowProblem, "ValidationIssue": ValidationIssue, "Fraction": Fraction, "Energy": Energy,
        "_units": CoinAmount.units.__set__, "_scale": CoinAmount.scale.__set__, "Share": Share, "_new": object.__new__,
        "CoinAmount": CoinAmount, "_TENS": _TENS, "_iso_date": _iso_date, "_build": spec.build, "_record": spec.record,
    }
    body = ["if not isinstance(row, dict):", f"    raise RowProblem(None, {spec.noun + ' must be an object'!r})"]
    body.append("get = row.get")
    key = "".join(f"x{i}, " for i in range(spec.key or 0))
    for index, (name, _, kind, required, default, bound) in enumerate(spec.columns):
        x, parse = f"x{index}", f"_parse{index}(v, {name!r}, coin_decimals)"
        if index == spec.key:
            reason = f"{f'duplicate {spec.duplicate} '!r} + ' '.join(map(str, ({key})))"
            body += [f"if seen and ({key}) in seen:", f"    raise RowProblem('date', {reason}, 'duplicate_date')"]
        names[f"_parse{index}"] = kind.parse
        body += [f"v = get({name!r})", *kind.source.replace("{x}", x).replace("{parse}", parse).split("\n")]
        if required:
            body += [f"if {x} is None:", f"    raise RowProblem({name!r}, 'value required')"]
        elif default is not None:
            names[f"_default{index}"] = default
            body += [f"if {x} is None:", f"    {x} = _default{index}"]
        if bound is not None:
            names[f"_bound{index}"] = bound[0]
            test = "elif" if required or default is not None else f"if {x} is not None and"
            body += [f"{test} not _bound{index}({x}):", f"    raise RowProblem({name!r}, {bound[1]!r})"]
    if spec.record is None:
        body.append(f"r = _build({', '.join(f'{c.attr}=x{i}' for i, c in enumerate(spec.columns))})")
    else:
        body += [spec.fill, "r = _new(_record)"] if spec.fill else ["r = _new(_record)"]
        for index, column in enumerate(spec.columns):
            names[f"_set{index}"] = getattr(spec.record, column.attr).__set__
            body.append(f"_set{index}(r, x{index})")
    body += ["if finish is not None:", "    r = finish(r, row)"]
    if key:
        body.append(f"seen.add(({key}))")
    body.append("append(r)")
    lines = [
        "def read_rows(rows, coin_decimals, source=None, issues=None, finish=None, seen=None):",
        "    records = []",
        "    append = records.append",
        *(["    seen = set() if seen is None else set(seen)"] if key else []),
        "    for index in range(len(rows)):",
        "        row, rows[index] = rows[index], None",
        "        try:",
        *("            " + line for line in body),
        "        except RowProblem as problem:",
        "            if issues is None:",
        "                raise",
        "            issues.append(ValidationIssue(source, problem.code, problem.reason, index + 1, problem.column))",
        "    return records",
    ]
    exec(compile("\n".join(lines), f"<{spec.noun} reader>", "exec"), names)
    return names["read_rows"]


def _transaction(fee_paid, gas_used, tx_count, entity_id, date) -> TransactionRecord:
    # a record with no basis at all stands for one transaction (the spec's ``fill`` for its reader)
    if fee_paid is None and gas_used is None and tx_count is None:
        tx_count = 1
    return TransactionRecord(entity_id, date, fee_paid, gas_used, tx_count)


_DAY = _Spec(
    "network day",
    (
        _column("date", _DATE, True),
        _column("energy_wh", _ENERGY, True, attr="energy"),
        _column("block_reward", _COIN),
        _column("tx_fees_total", _COIN),
        _column("coin_supply", _COIN, True, bound=(bool, "must be > 0")),
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
    order=("date",), build=dict, key=1, duplicate="date",
)
_HOLDING = _Spec(
    "holding",
    (_column("amount", _COIN, True), _column("entity_id", _ID), _column("date", _DATE, True)),
    order=("date", "entity_id"), record=HoldingRecord,
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
    order=("date", "entity_id"), build=_transaction, record=TransactionRecord,
    fill="if x0 is None and x1 is None and x2 is None: x2 = 1",
)
_APP = _Spec(
    "app",
    (
        _column("app_id", _ID), _column("date", _DATE, True),
        _column("app_fee_share", _SHARE, True),
        _column("token_supply", _COIN, bound=(bool, "must be > 0 when present")),
        _column("app_tx_count", _COUNT, True),
    ),
    order=("date", "app_id"), record=AppDay, key=2, duplicate="app day",
)
_TOKEN_HOLDING = _Spec(
    "token holding",
    (
        _column("amount", _COIN, True),
        _column("entity_id", _ID),
        _column("app_id", _ID),
        _column("date", _DATE, True),
    ),
    order=("date", "app_id", "entity_id"), record=TokenHolding,
)
_L2 = _Spec(
    "layer-2 entry",
    (
        _column("l2_id", _ID), _column("date", _DATE, True),
        _column("l1_fee_share", _SHARE, True),
        _column("infra_energy_wh", _ENERGY, True, attr="infra_energy"),
    ),
    order=("date", "l2_id"), build=dict, key=2, duplicate="layer-2 day",
)

NETWORK_CSV_COLUMNS = _DAY.names
# a JSON kind's sections, each a key and its section loop: the walk reads them and the kind's parser gathers them
_PORTFOLIO_SECTIONS = {"holdings": _HOLDING, "transactions": _TRANSACTION}
_APP_SECTIONS = {"apps": _APP, "token_holdings": _TOKEN_HOLDING}


class _Read(NamedTuple):
    """A section already read by its section loop: its records and its rows' issues."""

    records: list
    issues: list


def _sections(document: dict[str, Any], source: str, sections: Mapping) -> list[list]:
    """Records of each section of ``sections`` in a document ``_read_members`` walked with that table.

    An absent section has none; one the walk left as it was is not an array. Every issue is raised at once.
    """
    issues: list[ValidationIssue] = []
    records = []
    for key in sections:
        read = document.get(key, _Read([], []))
        if not isinstance(read, _Read):
            read = _Read([], [ValidationIssue(f"{source}:{key}", "schema_mismatch", "must be an array")])
        issues += read.issues
        records.append(read.records)
    if issues:
        raise DatasetInvalid(issues)
    return records


def _merge(spec: _Spec, suffix: str, files: Iterable[tuple[str, Iterable]], issues: list[ValidationIssue]) -> tuple:
    """The records of one keyed section (days, app days or layer-2 days) of several files as one.

    ``files`` are ``(name, records)`` pairs. A record whose key an earlier file gave is dropped, as a
    ``duplicate_date`` issue of the later file (its name plus ``suffix``) in ``spec``'s key columns and noun.
    """
    attrs = [column.attr for column in spec.columns[: spec.key]]
    merged, first_file = {}, {}
    for name, records in files:
        for record in records:
            if (key := tuple(getattr(record, attr) for attr in attrs)) in merged:
                reason = f"duplicate {spec.duplicate} {' '.join(map(str, key))}, also in {first_file[key]}"
                issues.append(ValidationIssue(name + suffix, "duplicate_date", reason, column="date"))
            else:
                merged[key], first_file[key] = record, name
    return tuple(merged.values())


# the stdlib's pieces of ``json.loads``: its C scanner where there is one, its string reader and its whitespace
_SCAN = json.JSONDecoder().scan_once
_SPACE = json.decoder.WHITESPACE.match


def _members(text: str | bytes, source: str) -> Iterator[tuple[str, Any]]:
    """The (key, value) members of a JSON object's text, each value decoded only once the one before it is taken.

    Keys are read by ``json.decoder.scanstring``, values by the scanner ``json.loads`` runs and the gaps by its
    whitespace pattern, so a text that ``json.loads`` reads as an object is read here to the same values; a key
    given twice is given twice, the later last. The text is dropped once its closing brace and trailing whitespace
    are checked, before the last member is given. On any other text, ``_decode`` reads it whole: its error is the
    issue, and an object it does read (UTF-8 bytes too) is given again from its first member.
    """
    try:
        at = _SPACE(text, 0).end() + 1
        if text[at - 1 : at] != "{":
            raise ValueError
        at, last = _SPACE(text, at).end(), None
        if text[at : at + 1] != "}":
            while True:
                if text[at : at + 1] != '"':
                    raise ValueError
                key, at = json.decoder.scanstring(text, at + 1)
                at = _SPACE(text, at).end()
                if text[at : at + 1] != ":":
                    raise ValueError
                value, at = _SCAN(text, _SPACE(text, at + 1).end())
                at = _SPACE(text, at).end()
                if text[at : at + 1] != ",":
                    break
                yield key, value
                at = _SPACE(text, at + 1).end()
            last = key, value
        if text[at : at + 1] != "}" or _SPACE(text, at + 1).end() != len(text):
            raise ValueError
    except (ValueError, RecursionError, StopIteration, TypeError):  # no value where one must be; UTF-8 bytes
        yield from _decode(text, source).items()
        return
    del text
    if last is not None:
        yield last


def _read_members(members: Iterable[tuple[str, Any]], source: str, coin_decimals: int, sections: Mapping) -> dict:
    """A JSON document from its members; an array under a key of ``sections`` is read by its loop as it is given.

    This is the one place a section becomes records: its records and issues (a ``_Read``, which ``_sections``
    gathers), its rows freed before the next member is decoded; a later member of the same key replaces it.
    """
    document = {}
    with bulk():
        for key, value in members:
            if key in sections and isinstance(value, list):
                value = _Read(sections[key](value, coin_decimals, f"{source}:{key}", issues := []), issues)
            document[key] = value
    return document


def _decode(text: str | bytes, source: str) -> dict[str, Any]:
    """The top-level object of a JSON text, or of its UTF-8 bytes, decoded whole."""
    try:
        with bulk():
            document = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except UnicodeDecodeError as exc:
        raise SchemaMismatch(source, f"not UTF-8 text: {exc}") from None
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError, too long a number, or nesting too deep
        raise SchemaMismatch(source, f"not valid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise SchemaMismatch(source, "top level must be an object")
    return document


def json_document(text: str | bytes | dict[str, Any], source: str) -> dict[str, Any]:
    """The schema-checked document of a JSON text or its UTF-8 bytes, or of its top-level object already decoded."""
    document = text if isinstance(text, dict) else _decode(text, source)
    version = document.get("schema_version")
    if not isinstance(version, str) or not version:
        raise SchemaMismatch(source, "missing schema_version")
    major = version.split(".", 1)[0]
    if not _is_digits(major) or int(major) != SCHEMA_MAJOR:
        raise SchemaMismatch(source, f"unsupported schema_version {version!r}")
    return document


def _schema_checked(text: str | dict[str, Any], source: str, coin_decimals: int, sections: Mapping) -> dict[str, Any]:
    """``json_document`` of a JSON text or top-level object whose ``sections`` are read as they are given."""
    members = text.items() if isinstance(text, dict) else _members(text, source)
    return json_document(_read_members(members, source, coin_decimals, sections), source)


def _read(path: str | Path) -> tuple[str, str]:
    """A file's text and its name, the source of its issues."""
    path = Path(path)
    try:
        return path.read_text(encoding="utf-8"), path.name
    except UnicodeDecodeError as exc:
        raise SchemaMismatch(path.name, f"not UTF-8 text: {exc}") from None


def _document(path: str | Path, coin_decimals: int, sections: Mapping) -> tuple[dict[str, Any], str]:
    """A JSON file's walked members and its name; the file's text is held by the walk alone, which frees it."""
    name = Path(path).name
    return _read_members(_members(_read(path)[0], name), name, coin_decimals, sections), name


def _day(values: dict[str, Any], consensus: ConsensusParams) -> NetworkDay:
    """The day a row's values describe, once the columns its consensus needs are sound."""
    day = NetworkDay(**values)
    problems = day.consensus_problems(consensus.kind)
    if problems:
        raise RowProblem(*problems[0])
    return day


def _read_days(consensus: ConsensusParams, rows: list, coin_decimals: int, source=None, issues=None) -> list:
    """The one days section loop (``read_rows``): each row's values become a day under ``consensus``."""
    return _DAY.read_rows(rows, coin_decimals, source, issues, lambda values, row: _day(values, consensus))


def day_from_fields(
    fields: Mapping[str, Any], consensus: ConsensusParams, coin_decimals: int = DEFAULT_COIN_DECIMALS
) -> NetworkDay:
    """Build one validated NetworkDay from named cells: a days row read alone.

    Raises ``RowProblem`` on the first problem; reads each remote cache entry
    and layer-2 ``internal_day``, so a day validates the same everywhere.
    """
    return _read_days(consensus, [fields], coin_decimals)[0]


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
    lines = re.split(r"\r\n?|\n", text) if text else []  # not splitlines(), which also splits at \f, \v, ...
    if not lines:
        raise SchemaMismatch(source, "empty file")
    header = tuple(lines[0].split(","))
    if header != NETWORK_CSV_COLUMNS:
        expected = ",".join(NETWORK_CSV_COLUMNS)
        raise SchemaMismatch(source, f"header {','.join(header)!r} does not match {expected!r}")
    width = len(NETWORK_CSV_COLUMNS)
    issues: list[ValidationIssue] = []
    rows, numbers = [], []  # the loop numbers ``rows`` from 1; ``numbers`` holds their rows in the file
    with bulk():
        for number, line in enumerate(lines[1:], start=1):
            if not line:  # skipped, but counted
                continue
            cells = line.split(",")
            if len(cells) == width:
                rows.append(dict(zip(NETWORK_CSV_COLUMNS, cells)))
                numbers.append(number)
            else:
                reason = f"expected {width} cells, got {len(cells)}"
                issues.append(ValidationIssue(source, "row_invalid", reason, number))
        read_issues: list[ValidationIssue] = []
        days = _read_days(consensus, rows, coin_decimals, source, read_issues)
    issues += [ValidationIssue(i.source, i.code, i.reason, numbers[i.row - 1], i.column) for i in read_issues]
    issues.sort(key=attrgetter("row"))
    if issues:
        raise DatasetInvalid(issues)
    return Dataset(network_id, consensus, tuple(sorted(days, key=_DAY.sort_key)))


def load_network_csv(
    path: str | Path, network_id: str, consensus: ConsensusParams, coin_decimals: int = DEFAULT_COIN_DECIMALS
) -> Dataset:
    return parse_network_csv(*_read(path), network_id, consensus, coin_decimals)


def parse_portfolio_json(
    text: str | dict[str, Any], source: str, coin_decimals: int = DEFAULT_COIN_DECIMALS
) -> Portfolio:
    """Parse and validate a portfolio document: its JSON text, or its top-level object as ``_document`` walks it."""
    document = _schema_checked(text, source, coin_decimals, _PORTFOLIO_SECTIONS)
    network_id = document.get("network_id")
    if not isinstance(network_id, str) or not network_id:
        raise SchemaMismatch(source, "missing network_id")
    holdings, transactions = _sections(document, source, _PORTFOLIO_SECTIONS)
    return Portfolio(network_id, tuple(holdings), tuple(transactions))


def load_portfolio_json(path: str | Path, coin_decimals: int = DEFAULT_COIN_DECIMALS) -> Portfolio:
    return parse_portfolio_json(*_document(path, coin_decimals, _PORTFOLIO_SECTIONS), coin_decimals)


def parse_apps_json(
    text: str | dict[str, Any], source: str, coin_decimals: int = DEFAULT_COIN_DECIMALS
) -> AppBundle:
    """Parse and validate an app registry document: its JSON text, or its top-level object."""
    apps, token_holdings = _sections(_schema_checked(text, source, coin_decimals, _APP_SECTIONS), source, _APP_SECTIONS)
    return AppBundle(tuple(apps), tuple(token_holdings))


def load_apps_json(path: str | Path, coin_decimals: int = DEFAULT_COIN_DECIMALS) -> AppBundle:
    return parse_apps_json(*_document(path, coin_decimals, _APP_SECTIONS), coin_decimals)


def parse_days_json(
    document: dict[str, Any], network_id: str, consensus: ConsensusParams, coin_decimals: int = DEFAULT_COIN_DECIMALS
) -> tuple[NetworkDay, ...]:
    """The days of an index response's schema-checked document, which must hold a ``days`` array.

    Every issue, named ``<network_id>:days``, is raised at once as DatasetInvalid.
    """
    sections = {"days": functools.partial(_read_days, consensus)}
    walked = _read_members([("days", document.get("days"))], network_id, coin_decimals, sections)
    return tuple(_sections(walked, network_id, sections)[0])


def parse_l2_json(
    text: str | dict[str, Any],
    source: str,
    host_consensus: ConsensusParams,
    coin_decimals: int = DEFAULT_COIN_DECIMALS,
) -> L2Bundle:
    """Parse and validate layer-2 descriptors: their JSON text, or its top-level object.

    Each entry may declare its own ``consensus`` (a PoS layer-2 can anchor
    to a PoW layer-1). A layer-2's first valid entry fixes its kind, its own
    declaration or else the host's; each later entry is validated under that
    kind, and one that declares another is a conflict. An invalid entry fixes
    nothing. ``L2Bundle.consensus`` holds the declared kinds only.
    """
    return _parse_l2(text, source, host_consensus, coin_decimals, {})


def _parse_l2(text, source, host_consensus, coin_decimals, fixed: dict[str, tuple[Consensus, str, str]]) -> L2Bundle:
    """``parse_l2_json`` after the files that fixed the kinds in ``fixed`` (L2 id → kind, how, file); adds its own.

    The entry hook is the one place the first-valid-entry rule runs; a declaration against an earlier file's kind
    is a ``join_invalid`` problem naming that file.
    """
    declared: dict[str, Consensus] = {}
    own: set[str] = set()  # the L2 ids this file's entries fixed

    def entry(values: dict[str, Any], row: dict[str, Any]) -> Layer2Day:
        l2_id = values["l2_id"]
        kind = row.get("consensus")
        first = fixed.get(l2_id)
        if kind is not None:
            if not isinstance(kind, str) or kind not in ("pow", "pos"):
                raise RowProblem("consensus", f"must be 'pow' or 'pos', got {kind!r}")
            kind = Consensus(kind)
            if first is not None and first[0] is not kind:
                if l2_id in own:
                    raise RowProblem("consensus", f"conflicting consensus for {l2_id}")
                reason = f"conflicting consensus for {l2_id}, {first[1]} {first[0].value} in {first[2]}"
                raise RowProblem("consensus", reason, "join_invalid")
        internal = row.get("internal_day")
        if not isinstance(internal, dict):
            raise RowProblem("internal_day", "object required")
        params = ConsensusParams(first[0] if first else kind or host_consensus.kind)
        record = Layer2Day(internal_day=day_from_fields(internal, params, coin_decimals), **values)
        if first is None:
            fixed[l2_id] = params.kind, "declared" if kind is not None else "the host's", source
            own.add(l2_id)
        if kind is not None:
            declared[l2_id] = kind
        return record

    # read only once the whole document is checked: the hook writes to ``fixed``, and a repeated key's last array counts
    sections = {"l2s": functools.partial(_L2, finish=entry)}
    document = _schema_checked(text, source, coin_decimals, {})
    (entries,) = _sections(_read_members(document.items(), source, coin_decimals, sections), source, sections)
    return L2Bundle(tuple(entries), declared)


def load_l2_json(
    path: str | Path, host_consensus: ConsensusParams, coin_decimals: int = DEFAULT_COIN_DECIMALS
) -> L2Bundle:
    return parse_l2_json(*_document(path, coin_decimals, {}), host_consensus, coin_decimals)


def validate_files(
    paths: Iterable[str | Path], network_id: str, consensus: ConsensusParams, coin_decimals: int = DEFAULT_COIN_DECIMALS
) -> list[ValidationIssue]:
    """Every issue of a set of input files, alone and together, in ``validate``'s order; [] when all hold.

    A ``.csv`` file is days; a JSON file's keys make it a portfolio, else apps, else layer-2 descriptors.
    The apps and layer-2s join the days as one registry, then each portfolio joins them alone.
    """
    issues: list[ValidationIssue] = []
    days, portfolios, apps, l2s = [], [], [], []  # each kind's files, as (name, loaded)
    l2_kinds = {}  # L2 id → (its kind, how its first valid entry gave it, that entry's file), in argument order
    for path in map(Path, paths):
        try:
            if path.suffix == ".csv":
                days.append((path.name, load_network_csv(path, network_id, consensus, coin_decimals)))
                continue
            document, name = _document(path, coin_decimals, {**_PORTFOLIO_SECTIONS, **_APP_SECTIONS})
            if "holdings" in document or "transactions" in document:
                portfolios.append((name, parse_portfolio_json(document, name, coin_decimals)))
            elif "apps" in document or "token_holdings" in document:
                apps.append((name, parse_apps_json(document, name, coin_decimals)))
            elif "l2s" in document:
                l2s.append((name, _parse_l2(document, name, consensus, coin_decimals, l2_kinds)))
            else:
                raise SchemaMismatch(name, "unrecognized document kind")
        except SchemaMismatch as exc:
            issues.append(ValidationIssue(exc.source, "schema_mismatch", exc.reason))
        except DatasetInvalid as exc:
            issues.extend(exc.issues)

    merged_days = _merge(_DAY, "", [(name, dataset.days) for name, dataset in days], issues)
    merged_apps = _merge(_APP, ":apps", [(name, bundle.apps) for name, bundle in apps], issues)
    merged_l2s = _merge(_L2, ":l2s", [(name, bundle.entries) for name, bundle in l2s], issues)
    if days:
        dataset = Dataset(network_id, consensus, tuple(sorted(merged_days, key=_DAY.sort_key)))
        token_holdings = tuple(holding for _, bundle in apps for holding in bundle.token_holdings)
        registry = Dataset(network_id, consensus, dataset.days, merged_apps, merged_l2s)
        issues.extend(join_issues(registry, token_holdings=token_holdings))
        for _, portfolio in portfolios:
            issues.extend(join_issues(dataset, portfolio=portfolio))
    return issues


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

    # each bound is the allocators' own (``apps``, ``engine``), so a reason is their exception's text
    apps_by_date: dict[_dt.date, list[AppDay]] = {}
    app_map: dict[tuple[str, _dt.date], AppDay] = {}
    for app in dataset.apps:
        try:
            check_app_day(app, day_map[app.date])
        except KeyError:
            no_day("apps", app.app_id, app.date)
        except ShareOverflow as exc:
            join_issue("apps", str(exc), exc.column)
        apps_by_date.setdefault(app.date, []).append(app)
        app_map[(app.app_id, app.date)] = app
    for _, on_date in sorted(apps_by_date.items()):
        try:
            claimed_fee_share(on_date)
        except ShareOverflow as exc:
            join_issue("apps", str(exc), exc.column)

    for l2 in dataset.l2s:
        if l2.date not in day_map:
            no_day("l2s", l2.l2_id, l2.date)

    for holding in token_holdings:
        try:
            token_quantities(app_map[(holding.app_id, holding.date)], holding)
        except KeyError:
            reason = f"{holding.entity_id}: no app day for {holding.app_id} on {holding.date}"
            join_issue("token_holdings", reason, "app_id")
        except (NotAToken, ShareOverflow) as exc:
            join_issue("token_holdings", str(exc), "amount")

    if portfolio is not None:
        if portfolio.network_id != dataset.network_id:
            reason = f"portfolio is for {portfolio.network_id!r}, dataset is {dataset.network_id!r}"
            join_issue("portfolio", reason, "network_id")
        # the engine's share denominators, once per day: the effective supply's two integers and the fee,
        # gas and count totals
        supplies, totals = {}, {}
        for date, day in day_map.items():
            supply = day.effective_supply()
            supplies[date] = supply.numerator, supply.denominator
            fee_total = day.tx_fees_total.value if day.tx_fees_total is not None else None
            totals[date] = fee_total, day.gas_total, day.tx_count
        for holding in portfolio.holdings:
            try:
                numerator, denominator = supplies[holding.date]
                holding_quantities(holding, numerator, denominator)
            except KeyError:
                no_day("portfolio.holdings", holding.entity_id, holding.date)
            except ShareOverflow as exc:
                join_issue("portfolio.holdings", str(exc), exc.column)
        order = BASIS_ORDER[dataset.consensus.kind]
        for tx in portfolio.transactions:
            try:
                fee_total, gas_total, count_total = totals[tx.date]
                transaction_quantities(tx, order, fee_total, gas_total, count_total)
            except KeyError:
                no_day("portfolio.transactions", tx.entity_id, tx.date)
            except ShareOverflow as exc:
                join_issue("portfolio.transactions", str(exc), exc.column)
            except (NoTransactions, BasisUnavailable) as exc:
                join_issue("portfolio.transactions", str(exc), "date")
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
