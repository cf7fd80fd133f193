"""Exception hierarchy for the carbon-ledger engine and loaders."""

from __future__ import annotations

from dataclasses import dataclass


class CarbonLedgerError(Exception):
    """Base class for all domain errors raised by this package."""


class MalformedDay(CarbonLedgerError):
    """A network day cannot support the requested weighting: zero miner revenue, or a positive
    ``pos_tx_share`` on a day with no transactions."""


class MissingColumn(CarbonLedgerError):
    """A day lacks a column that the consensus mechanism makes mandatory."""


class ShareOverflow(CarbonLedgerError):
    """An entity's basis quantity exceeds the available pool denominator (``column``: its name, if known)."""

    def __init__(self, message: str, column: str | None = None):
        super().__init__(message)
        self.column = column


class NoTransactions(CarbonLedgerError):
    """A transaction record exists for a day or app that reports zero transactions."""


class BasisUnavailable(CarbonLedgerError):
    """None of the fee, gas, or count bases can be formed for a transaction record."""


class NotAToken(CarbonLedgerError):
    """A token-holding allocation was requested for an app without a token supply."""


class RowProblem(CarbonLedgerError, ValueError):
    """A record that breaks a rule: its column (None for the whole row), why, and the issue code.

    Raised by the record types and ingestion's cell parsers; a loader makes it
    that row's ``ValidationIssue``. The message is ``"<column>: <reason>"``.
    """

    def __init__(self, column: str | None, reason: str, code: str = "row_invalid"):
        self.column = column
        self.reason = reason
        self.code = code
        super().__init__(reason if column is None else f"{column}: {reason}")


class ArgumentMismatch(CarbonLedgerError, ValueError):
    """Library arguments that do not fit together: another day's weights, records, apps or
    layer-2 days, a method that does not allocate the activity, unordered days, weights
    that do not sum to 1, a result whose energy or carbon is not its audit's replay, an
    empty weight source (None stands for none), a significant-digit count below 1, a value
    with no finite decimal to render, or a period with no days in the dataset."""


class InvalidValue(CarbonLedgerError, ValueError):
    """A value outside its type's domain: a negative energy, carbon, coin amount or emission
    factor, a share outside [0, 1], an unknown energy unit, a token that is not a plain
    decimal or a ``YYYY-MM-DD`` date, or a network id that is not one safe path segment."""


class MissingDay(CarbonLedgerError):
    """Portfolio records reference dates with no matching network day."""

    def __init__(self, dates):
        self.dates = tuple(sorted(dates))
        listing = ", ".join(d.isoformat() for d in self.dates)
        super().__init__(f"no network day for: {listing}")


@dataclass(frozen=True)
class ValidationIssue:
    """One row-addressed validation failure found during ingestion.

    ``row`` is 1-based and counts data rows (the header is row 0); it is
    ``None`` for file-level problems. ``code`` is a stable machine-readable
    identifier (``row_invalid``, ``duplicate_date``, ``schema_mismatch``,
    ``join_invalid``).
    """

    source: str
    code: str
    reason: str
    row: int | None = None
    column: str | None = None

    def render(self) -> str:
        where = self.source
        if self.row is not None:
            where += f" row {self.row}"
        if self.column:
            where += f" column {self.column!r}"
        return f"{where}: {self.reason} [{self.code}]"


class IngestionError(CarbonLedgerError):
    """Base class for file/endpoint ingestion failures."""


class SchemaMismatch(IngestionError):
    """File header or top-level document shape does not match the schema.

    ``source`` names the file and ``reason`` says what is wrong; the message
    is ``"<source>: <reason>"``.
    """

    def __init__(self, source: str, reason: str):
        self.source = source
        self.reason = reason
        super().__init__(f"{source}: {reason}")


class DatasetInvalid(IngestionError):
    """One or more rows failed validation; carries the complete issue list."""

    def __init__(self, issues):
        self.issues: tuple[ValidationIssue, ...] = tuple(issues)
        super().__init__(
            "; ".join(issue.render() for issue in self.issues) or "dataset invalid"
        )


class RemoteError(IngestionError):
    """Base class for remote index client failures."""


class Unreachable(RemoteError):
    """The remote endpoint could not be reached."""


class MalformedResponse(RemoteError):
    """The remote endpoint answered with an unparseable or invalid payload."""


class RangeUnavailable(RemoteError):
    """The remote endpoint does not cover the requested date range."""
