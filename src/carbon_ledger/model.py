"""Domain types shared by every allocator: units, telemetry, records, results.

Design rules that everything below follows:

* Internal energy unit is watt-hours; carbon is grams CO2e. Display
  conversions happen at serialization, never mid-computation.
* Every quantity is an exact rational (see ``numeric``). Constructors
  validate range invariants and reject anything out of domain; a record
  type (a day or a transaction) raises ``RowProblem`` naming the input
  column that breaks its rule. Each check compares integers (a Fraction's
  numerator and denominator), since a Fraction comparison costs several
  Python calls and ingestion builds hundreds of thousands of these values.
* All types are immutable values, safe to share across concurrent tasks,
  and slotted: no per-instance ``__dict__``.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Union

from .errors import RowProblem
from .numeric import DEFAULT_SIG_DIGITS, format_sig, parse_decimal

Numeric = Union[Fraction, int, str]

ENERGY_UNITS: dict[str, Fraction] = {
    "Wh": Fraction(1),
    "kWh": Fraction(10**3),
    "MWh": Fraction(10**6),
    "GWh": Fraction(10**9),
    "TWh": Fraction(10**12),
}


def _as_fraction(value: Numeric) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_decimal(value)
    raise TypeError(f"expected Fraction, int, or decimal string, got {type(value).__name__}")


class Consensus(Enum):
    """Consensus mechanism; selects which telemetry columns are mandatory."""

    POW = "pow"
    POS = "pos"


@dataclass(frozen=True)
class ConsensusParams:
    """Weighting inputs per consensus kind.

    PoW weights come from the day's reward/fee split and PoS weights from the
    day's marginal transaction share, so no extra fields are needed beyond
    the kind itself; the type exists as the dispatch handle.
    """

    kind: Consensus


@dataclass(frozen=True, order=True, slots=True)
class Energy:
    """Non-negative electricity quantity, stored exactly in watt-hours."""

    wh: Fraction

    def __post_init__(self):
        if not isinstance(self.wh, Fraction):
            object.__setattr__(self, "wh", _as_fraction(self.wh))
        if self.wh.numerator < 0:
            raise ValueError(f"energy must be >= 0, got {self.wh}")

    @classmethod
    def of(cls, value: Numeric, unit: str = "Wh") -> "Energy":
        return cls(_as_fraction(value) * _unit_scale(unit))

    def value_in(self, unit: str) -> Fraction:
        return self.wh / _unit_scale(unit)

    def __add__(self, other: "Energy") -> "Energy":
        return Energy(self.wh + other.wh)

    def __mul__(self, factor) -> "Energy":
        if isinstance(factor, Share):
            factor = factor.value
        return Energy(self.wh * _as_fraction(factor))

    __rmul__ = __mul__


def _unit_scale(unit: str) -> Fraction:
    try:
        return ENERGY_UNITS[unit]
    except KeyError:
        raise ValueError(f"unknown energy unit {unit!r}; expected one of {sorted(ENERGY_UNITS)}") from None


def convert_energy(energy: Energy, unit: str, sig_digits: int = DEFAULT_SIG_DIGITS) -> str:
    """Display an energy in the given unit, rounded half-even to significant digits.

    The scaling is an exact power-of-1000 shift; only the final rendering rounds.
    """
    return format_sig(energy.value_in(unit), sig_digits)


@dataclass(frozen=True, order=True, slots=True)
class Carbon:
    """Non-negative mass of CO2-equivalent, in grams."""

    grams: Fraction

    def __post_init__(self):
        if not isinstance(self.grams, Fraction):
            object.__setattr__(self, "grams", _as_fraction(self.grams))
        if self.grams.numerator < 0:
            raise ValueError(f"carbon must be >= 0, got {self.grams}")


def carbonize(energy: Energy, factor_g_per_kwh: Numeric) -> Carbon:
    """Convert allocated electricity to emissions with a gCO2e/kWh factor."""
    factor = _as_fraction(factor_g_per_kwh)
    if factor < 0:
        raise ValueError(f"emission factor must be >= 0, got {factor}")
    return Carbon(energy.wh / 1000 * factor)


@dataclass(frozen=True, order=True, slots=True)
class Share:
    """Exact fraction in [0, 1]; the unit of all weights and pool shares."""

    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", _as_fraction(self.value))
        if not 0 <= self.value.numerator <= self.value.denominator:
            raise ValueError(f"share must be within [0, 1], got {self.value}")

    def complement(self) -> "Share":
        return Share(1 - self.value)


@dataclass(frozen=True, order=True, slots=True)
class CoinAmount:
    """Non-negative coin quantity in the network's native unit."""

    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", _as_fraction(self.value))
        if self.value.numerator < 0:
            raise ValueError(f"coin amount must be >= 0, got {self.value}")


class Method(Enum):
    """Allocation methodology."""

    HOLDING_BASED = "holding"
    TRANSACTION_BASED = "transaction"
    HYBRID = "hybrid"


class Activity(Enum):
    """What the entity did on the network that day."""

    HOLDING = "holding"
    TRANSACTION = "transaction"


@dataclass(frozen=True, slots=True)
class NetworkDay:
    """One UTC calendar day of validated network telemetry.

    ``block_reward``/``tx_fees_total`` drive PoW weighting; ``pos_tx_share``
    drives PoS weighting. Which of them is mandatory depends on consensus and
    is checked by ``consensus_problems`` (ingestion reports these per row).
    ``filled_forward`` marks days synthesized by the opt-in gap fill; it is
    metadata, never read by the arithmetic.
    """

    date: _dt.date
    energy: Energy
    coin_supply: CoinAmount
    tx_count: int
    block_reward: CoinAmount | None = None
    tx_fees_total: CoinAmount | None = None
    lost_coin_fraction: Share = field(default_factory=lambda: Share(Fraction(0)))
    gas_total: Fraction | None = None
    pos_tx_share: Share | None = None
    emission_factor: Fraction | None = None
    filled_forward: bool = False

    def __post_init__(self):
        if self.coin_supply.value.numerator <= 0:
            raise RowProblem("coin_supply", "must be > 0")
        if self.tx_count < 0:
            raise RowProblem("tx_count", "must be >= 0")
        if self.gas_total is not None and self.gas_total.numerator < 0:
            raise RowProblem("gas_total", "must be >= 0")
        if self.emission_factor is not None and self.emission_factor.numerator < 0:
            raise RowProblem("emission_factor_g_per_kwh", "must be >= 0")
        lost = self.lost_coin_fraction.value
        if lost.numerator >= lost.denominator:
            raise RowProblem("lost_coin_fraction", "must be < 1")
        if self.tx_count == 0:
            if self.tx_fees_total is not None and self.tx_fees_total.value.numerator != 0:
                raise RowProblem("tx_fees_total", "must be 0 on a day with no transactions")
            if self.gas_total is not None and self.gas_total.numerator != 0:
                raise RowProblem("gas_total", "must be 0 on a day with no transactions")

    def consensus_problems(self, kind: Consensus) -> list[tuple[str, str]]:
        """Per-consensus column problems as (column, reason) pairs; empty if clean."""
        problems: list[tuple[str, str]] = []
        if kind is Consensus.POW:
            if self.block_reward is None:
                problems.append(("block_reward", "required for proof-of-work days"))
            if self.tx_fees_total is None:
                problems.append(("tx_fees_total", "required for proof-of-work days"))
            if (
                self.block_reward is not None
                and self.tx_fees_total is not None
                and self.block_reward.value + self.tx_fees_total.value == 0
            ):
                problems.append(
                    ("block_reward", "zero total miner revenue; weighting undefined")
                )
        else:
            if self.pos_tx_share is None:
                problems.append(("pos_tx_share", "required for proof-of-stake days"))
            elif self.tx_count == 0 and self.pos_tx_share.value != 0:
                problems.append(("pos_tx_share", "must be 0 on a day with no transactions"))
        return problems

    def effective_supply(self) -> Fraction:
        """Circulating supply net of the lost-coin adjustment."""
        return self.coin_supply.value * (1 - self.lost_coin_fraction.value)


@dataclass(frozen=True, slots=True)
class HoldingRecord:
    """An entity's average balance on a network over one UTC day."""

    entity_id: str
    date: _dt.date
    amount: CoinAmount


@dataclass(frozen=True, slots=True)
class TransactionRecord:
    """An entity's transaction activity on one UTC day.

    At least one basis quantity must be present; ``tx_count`` stays None when
    the producer only knows fees or gas, so that the count fallback cannot
    fabricate activity.
    """

    entity_id: str
    date: _dt.date
    fee_paid: CoinAmount | None = None
    gas_used: Fraction | None = None
    tx_count: int | None = None

    def __post_init__(self):
        if self.fee_paid is None and self.gas_used is None and self.tx_count is None:
            raise RowProblem(None, "at least one of fee_paid, gas_used, tx_count required")
        if self.gas_used is not None and self.gas_used.numerator < 0:
            raise RowProblem("gas_used", "must be >= 0")
        if self.tx_count is not None and self.tx_count <= 0:
            raise RowProblem("tx_count", "must be a positive count")


@dataclass(frozen=True, slots=True)
class Portfolio:
    """Dated holdings and transactions of entities on one network."""

    network_id: str
    holdings: tuple[HoldingRecord, ...] = ()
    transactions: tuple[TransactionRecord, ...] = ()

    def dates(self) -> set[_dt.date]:
        return {r.date for r in self.holdings} | {r.date for r in self.transactions}

    def between(self, start: _dt.date | None, end: _dt.date | None) -> "Portfolio":
        """The records dated from ``start`` to ``end`` inclusive; None leaves a side open."""

        def within(record) -> bool:
            return (start is None or record.date >= start) and (end is None or record.date <= end)

        holdings, transactions = filter(within, self.holdings), filter(within, self.transactions)
        return Portfolio(self.network_id, tuple(holdings), tuple(transactions))


@dataclass(frozen=True, slots=True)
class AuditTrail:
    """Replayable multiplication chain behind one allocation.

    ``base_wh`` is the footprint the pool derives from (the network day's
    energy, or a layer-2 total). ``pool_factors`` are the ordered named
    weights that shrink it to the pool; ``entity_share`` is the entity's
    share of that pool. ``scope`` is the provenance chain, so nested
    (layer-2, app) allocations state where their base came from.
    """

    scope: tuple[str, ...]
    base_wh: Fraction
    pool_factors: tuple[tuple[str, Fraction], ...]
    entity_share: Fraction
    entity_basis: str
    weight_source: str | None = None
    filled_forward: bool = False

    @property
    def pool_weight(self) -> Fraction:
        """Combined weight taking the base footprint down to the pool."""
        weight = Fraction(1)
        for _, factor in self.pool_factors:
            weight *= factor
        return weight

    @property
    def pool_wh(self) -> Fraction:
        return self.base_wh * self.pool_weight

    def replay_wh(self) -> Fraction:
        """Recompute the allocated watt-hours from the recorded shares."""
        return self.pool_wh * self.entity_share


@dataclass(frozen=True, slots=True)
class AllocationResult:
    """Energy (and optionally carbon) attributed to one entity-day cell."""

    entity_id: str
    date: _dt.date
    method: Method
    activity: Activity
    energy: Energy
    audit: AuditTrail
    carbon: Carbon | None = None

    def sort_key(self) -> tuple:
        return (self.date, self.entity_id, self.activity.value)
