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
  and slotted: no per-instance ``__dict__``. An ``AllocationResult`` keeps
  what it reduces on first read; that cache never changes a value. Most
  derive what a frozen dataclass would generate from ``__slots__``
  (``Value``), so no import runs ``dataclasses`` for them; ``NetworkDay``
  stays a dataclass, so ``dataclasses.replace`` works on a day.
* Coin amounts are unreduced integer ratios, ``units / scale``, as results
  are ``quantity / total``: a coin cell is read as its digits over
  ``10**places``, the join and the allocators cross-multiply the integers,
  and a ``Fraction`` is built only when a caller reads ``CoinAmount.value``
  (or an error message prints one).
"""

from __future__ import annotations

import datetime as _dt
import operator
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from operator import attrgetter
from typing import Any, Callable, Union

from .errors import ArgumentMismatch, InvalidValue, RowProblem
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


class Value:
    """Base of the immutable value types: a frozen dataclass's ``__init__``, ``==``, hash and repr, from ``__slots__``.

    The fields are the ``__slots__``, in order. The constructor takes them
    positionally or by name, a field left out takes its ``_defaults`` entry,
    and ``__post_init__`` then checks them. Two values are equal when they
    are of one class and their fields are equal. Assignment raises
    ``AttributeError``, and a copy or pickle is rebuilt from the fields.
    """

    __slots__ = ()
    _defaults: dict[str, Any] = {}

    def __init__(self, *values, **named):
        fields, defaults = self.__slots__, self._defaults
        try:
            values += tuple(named.pop(name) if name in named else defaults[name] for name in fields[len(values) :])
        except KeyError as missing:
            raise TypeError(f"{self.__class__.__name__}() missing field {missing}") from None
        if named or len(values) != len(fields):
            raise TypeError(f"{self.__class__.__name__}() takes the fields {', '.join(fields)}")
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        """Check the fields once set: raise to reject them."""

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()


def _compared(compare: Callable[[Any, Any], bool], operands: Callable = lambda a, b: (a._fields(), b._fields())):
    """A comparison method: ``compare`` of ``operands(self, other)``, between two instances of one class.

    By default the operands are the two values' fields, as ``order=True`` compares.
    """

    def method(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return compare(*operands(self, other))

    return method


class _Ordered(Value):
    """A ``Value`` ordered by its fields."""

    __slots__ = ()
    __lt__ = _compared(operator.lt)
    __le__ = _compared(operator.le)
    __gt__ = _compared(operator.gt)
    __ge__ = _compared(operator.ge)


class Consensus(Enum):
    """Consensus mechanism; selects which telemetry columns are mandatory."""

    POW = "pow"
    POS = "pos"


class ConsensusParams(Value):
    """Weighting inputs per consensus kind: ``kind``.

    PoW weights come from the day's reward/fee split and PoS weights from the
    day's marginal transaction share, so no extra fields are needed beyond
    the kind itself; the type exists as the dispatch handle.
    """

    __slots__ = ("kind",)


class Energy(_Ordered):
    """Non-negative electricity quantity, stored exactly in watt-hours: ``wh``.

    The section loops build ``Energy`` and ``Share`` per row, so these two
    and ``Carbon`` set their one field in their own ``__init__``.
    """

    __slots__ = ("wh",)

    def __init__(self, wh: Numeric):
        wh = wh if isinstance(wh, Fraction) else _as_fraction(wh)
        if wh.numerator < 0:
            raise InvalidValue(f"energy must be >= 0, got {wh}")
        object.__setattr__(self, "wh", wh)

    @classmethod
    def of(cls, value: Numeric, unit: str = "Wh") -> "Energy":
        return cls(_as_fraction(value) * _unit_scale(unit))

    def value_in(self, unit: str) -> Fraction:
        return self.wh / _unit_scale(unit)


def _unit_scale(unit: str) -> Fraction:
    try:
        return ENERGY_UNITS[unit]
    except KeyError:
        raise InvalidValue(f"unknown energy unit {unit!r}; expected one of {sorted(ENERGY_UNITS)}") from None


def convert_energy(energy: Energy, unit: str, sig_digits: int = DEFAULT_SIG_DIGITS) -> str:
    """Display an energy in the given unit, rounded half-even to significant digits.

    The scaling is an exact power-of-1000 shift; only the final rendering rounds.
    """
    return format_sig(energy.value_in(unit), sig_digits)


class Carbon(_Ordered):
    """Non-negative mass of CO2-equivalent, in grams: ``grams``."""

    __slots__ = ("grams",)

    def __init__(self, grams: Numeric):
        grams = grams if isinstance(grams, Fraction) else _as_fraction(grams)
        if grams.numerator < 0:
            raise InvalidValue(f"carbon must be >= 0, got {grams}")
        object.__setattr__(self, "grams", grams)


def carbonize(energy: Energy, factor_g_per_kwh: Numeric) -> Carbon:
    """Convert allocated electricity to emissions with a gCO2e/kWh factor."""
    factor = _as_fraction(factor_g_per_kwh)
    if factor < 0:
        raise InvalidValue(f"emission factor must be >= 0, got {factor}")
    return Carbon(energy.wh / 1000 * factor)


class Share(_Ordered):
    """Exact fraction in [0, 1], ``value``; the unit of all weights and pool shares."""

    __slots__ = ("value",)

    def __init__(self, value: Numeric):
        value = value if isinstance(value, Fraction) else _as_fraction(value)
        if not 0 <= value.numerator <= value.denominator:
            raise InvalidValue(f"share must be within [0, 1], got {value}")
        object.__setattr__(self, "value", value)


def _cross(a: "CoinAmount", b: "CoinAmount") -> tuple[int, int]:
    """Two coin amounts' units over one denominator."""
    return a.units * b.scale, b.units * a.scale


class CoinAmount:
    """Non-negative coin quantity in the network's native unit.

    Held as two integers, ``units / scale``, not reduced (``of_units``): a coin cell
    with ``p`` fractional digits is its digits over ``10**p``. Both are read-only
    slots, read with no Python call. ``value`` is the reduced ``Fraction``, built
    when read. Equality, ordering and hashing are by value; only zero is falsy.
    """

    __slots__ = ("units", "scale")
    __setattr__, __delattr__ = Value.__setattr__, Value.__delattr__

    def __new__(cls, value: Numeric):
        value = _as_fraction(value)
        if value.numerator < 0:
            raise InvalidValue(f"coin amount must be >= 0, got {value}")
        return cls.of_units(value.numerator, value.denominator)

    @classmethod
    def of_units(cls, units: int, scale: int) -> "CoinAmount":
        """``units / scale`` as given: integers with ``units >= 0`` and ``scale > 0``, not checked."""
        amount = object.__new__(cls)
        object.__setattr__(amount, "units", units)
        object.__setattr__(amount, "scale", scale)
        return amount

    def __reduce__(self):
        return CoinAmount.of_units, (self.units, self.scale)

    @property
    def value(self) -> Fraction:
        return Fraction(self.units, self.scale)

    __eq__ = _compared(operator.eq, _cross)
    __lt__ = _compared(operator.lt, _cross)
    __le__ = _compared(operator.le, _cross)
    __gt__ = _compared(operator.gt, _cross)
    __ge__ = _compared(operator.ge, _cross)

    def __hash__(self):
        return hash(self.value)

    def __bool__(self):
        return self.units != 0

    def __repr__(self):
        return f"CoinAmount(value={self.value!r})"


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
    is checked by ``consensus_problems``, the one statement of these day rules:
    ingestion reports a row's first problem, and the hybrid weights raise it.
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
        if not self.coin_supply:
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
            if self.tx_fees_total:
                raise RowProblem("tx_fees_total", "must be 0 on a day with no transactions")
            if self.gas_total is not None and self.gas_total.numerator != 0:
                raise RowProblem("gas_total", "must be 0 on a day with no transactions")

    def consensus_problems(self, kind: Consensus) -> list[tuple[str, str]]:
        """Per-consensus column problems as (column, reason) pairs; empty if clean."""
        if kind is Consensus.POW:
            required = "required for proof-of-work days"
            problems = [(c, required) for c in ("block_reward", "tx_fees_total") if getattr(self, c) is None]
            if not problems and not self.block_reward and not self.tx_fees_total:
                problems.append(("block_reward", "zero total miner revenue; weighting undefined"))
            return problems
        if self.pos_tx_share is None:
            return [("pos_tx_share", "required for proof-of-stake days")]
        if self.tx_count == 0 and self.pos_tx_share.value != 0:
            return [("pos_tx_share", "must be 0 on a day with no transactions")]
        return []

    def effective_supply(self) -> Fraction:
        """Circulating supply net of the lost-coin adjustment."""
        lost = self.lost_coin_fraction.value
        units = self.coin_supply.units * (lost.denominator - lost.numerator)
        return Fraction(units, self.coin_supply.scale * lost.denominator)


class HoldingRecord(Value):
    """An entity's average balance on a network over one UTC day: ``entity_id``, ``date``, ``amount``."""

    __slots__ = ("entity_id", "date", "amount")


class TransactionRecord(Value):
    """An entity's transaction activity on one UTC day.

    At least one basis quantity must be present; ``tx_count`` stays None when
    the producer only knows fees or gas, so that the count fallback cannot
    fabricate activity.
    """

    __slots__ = ("entity_id", "date", "fee_paid", "gas_used", "tx_count")

    _defaults = dict.fromkeys(("fee_paid", "gas_used", "tx_count"))

    def __post_init__(self):
        if self.fee_paid is None and self.gas_used is None and self.tx_count is None:
            raise RowProblem(None, "at least one of fee_paid, gas_used, tx_count required")
        if self.gas_used is not None and self.gas_used.numerator < 0:
            raise RowProblem("gas_used", "must be >= 0")
        if self.tx_count is not None and self.tx_count <= 0:
            raise RowProblem("tx_count", "must be a positive count")


class Portfolio(Value):
    """Dated holdings and transactions of entities on one network."""

    __slots__ = ("network_id", "holdings", "transactions")

    _defaults = {"holdings": (), "transactions": ()}

    def dates(self) -> set[_dt.date]:
        return {r.date for r in self.holdings} | {r.date for r in self.transactions}

    def between(self, start: _dt.date | None, end: _dt.date | None) -> "Portfolio":
        """The records dated from ``start`` to ``end`` inclusive; None leaves a side open."""

        def within(record) -> bool:
            return (start is None or record.date >= start) and (end is None or record.date <= end)

        holdings, transactions = filter(within, self.holdings), filter(within, self.transactions)
        return Portfolio(self.network_id, tuple(holdings), tuple(transactions))


def _check_source(weight_source: str | None) -> None:
    if weight_source == "":
        raise ArgumentMismatch("weight_source is empty; None stands for no source")


class Pool(Value):
    """What every result drawing on one pool shares: where its energy comes from, the energy, its carbon.

    ``base_wh`` is the footprint the pool derives from (a network day's
    energy, or a layer-2 total), and the ordered named ``factors`` shrink it
    to the pool's ``wh``. ``scope``, ``weight_source`` and ``filled_forward``
    go into each result's audit. ``carbon_per_wh`` is the emission factor
    per watt-hour, None when the day has none. A pool is one object shared
    by its results, so pools compare (and hash) by identity. A
    ``weight_source`` is None or a non-empty name.
    """

    __slots__ = ("scope", "base_wh", "factors", "wh", "weight_source", "filled_forward", "carbon_per_wh")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __post_init__(self):
        _check_source(self.weight_source)

    def narrowed(self, factors: tuple[tuple[str, Fraction], ...]) -> "Pool":
        """This pool cut down by more named factors."""
        wh = self.wh
        for _, factor in factors:
            wh *= factor
        provenance = (self.scope, self.base_wh, self.factors + factors, wh)
        return Pool(*provenance, self.weight_source, self.filled_forward, self.carbon_per_wh)


class AuditTrail(Value):
    """Replayable multiplication chain behind one allocation.

    ``base_wh`` is the footprint the pool derives from (the network day's
    energy, or a layer-2 total). ``pool_factors`` are the ordered named
    weights that shrink it to the pool; ``entity_share`` is the entity's
    share of that pool. ``scope`` is the provenance chain, so nested
    (layer-2, app) allocations state where their base came from. A
    ``weight_source`` is None or a non-empty name.
    """

    __slots__ = (
        "scope", "base_wh", "pool_factors", "entity_share", "entity_basis", "weight_source", "filled_forward"
    )

    _defaults = {"weight_source": None, "filled_forward": False}

    def __post_init__(self):
        _check_source(self.weight_source)

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


_RESULT_FIELDS = ("entity_id", "date", "method", "activity", "energy", "audit", "carbon")


class AllocationResult:
    """Energy (and optionally carbon) attributed to one entity-day cell.

    A result is the entity's share ``quantity / total`` of ``pool``: two
    integers, not reduced, and the pool object its day's results share. The
    engine builds it that way (``share_of``); ``energy``, ``audit`` and
    ``carbon`` are reduced from them on first read and kept. Rendering and
    the period summary read the integers and the pool, so they build no
    ``Fraction`` per result.

    Built positionally from its seven values, a result keeps them and reads
    its pool and share off the audit. Its energy must then be the audit's
    replay, and its carbon zero on zero energy, or ``ArgumentMismatch`` is
    raised. Equality, hashing and repr read the seven values. The attributes
    are read-only.
    """

    __slots__ = (
        "_entity_id", "_date", "_method", "_activity", "_pool", "_quantity", "_total", "_basis", "_values"
    )

    def __init__(
        self,
        entity_id: str,
        date: _dt.date,
        method: Method,
        activity: Activity,
        energy: Energy,
        audit: AuditTrail,
        carbon: Carbon | None = None,
    ):
        pool_wh, share = audit.pool_wh, audit.entity_share
        wh = pool_wh * share
        if energy.wh != wh:
            raise ArgumentMismatch(f"energy {energy.wh} Wh is not the audit's replay, {wh} Wh")
        if carbon is not None and not wh and carbon.grams:
            raise ArgumentMismatch(f"carbon {carbon.grams} g on zero energy")
        factor = None if carbon is None else carbon.grams / wh if wh else Fraction(0)
        self._entity_id, self._date, self._method, self._activity = entity_id, date, method, activity
        provenance = (audit.scope, audit.base_wh, audit.pool_factors)
        self._pool = Pool(*provenance, pool_wh, audit.weight_source, audit.filled_forward, factor)
        self._quantity, self._total, self._basis = share.numerator, share.denominator, audit.entity_basis
        self._values = (energy, audit, carbon)

    @classmethod
    def share_of(
        cls,
        entity_id: str,
        date: _dt.date,
        method: Method,
        activity: Activity,
        pool: Pool,
        quantity: int,
        total: int,
        basis: str,
    ) -> "AllocationResult":
        """The entity's share ``quantity / total`` of ``pool`` (integers, 0 <= quantity <= total)."""
        result = object.__new__(cls)
        result._entity_id, result._date, result._method, result._activity = entity_id, date, method, activity
        result._pool, result._quantity, result._total, result._basis = pool, quantity, total, basis
        result._values = None
        return result

    entity_id = property(attrgetter("_entity_id"))
    date = property(attrgetter("_date"))
    method = property(attrgetter("_method"))
    activity = property(attrgetter("_activity"))
    pool = property(attrgetter("_pool"), doc="The pool the share is of, shared by its day's results.")
    quantity = property(attrgetter("_quantity"), doc="The share's numerator, not reduced.")
    total = property(attrgetter("_total"), doc="The share's denominator, not reduced.")
    basis = property(attrgetter("_basis"), doc="The share's basis (the audit's ``entity_basis``).")

    def _reduced(self) -> tuple[Energy, AuditTrail, Carbon | None]:
        if self._values is None:
            pool, share = self._pool, Fraction(self._quantity, self._total)
            wh = pool.wh * share
            provenance = (pool.scope, pool.base_wh, pool.factors)
            audit = AuditTrail(*provenance, share, self._basis, pool.weight_source, pool.filled_forward)
            carbon = Carbon(wh * pool.carbon_per_wh) if pool.carbon_per_wh is not None else None
            self._values = (Energy(wh), audit, carbon)
        return self._values

    @property
    def energy(self) -> Energy:
        return self._reduced()[0]

    @property
    def audit(self) -> AuditTrail:
        return self._reduced()[1]

    @property
    def carbon(self) -> Carbon | None:
        return self._reduced()[2]

    def _fields(self) -> tuple:
        return (self._entity_id, self._date, self._method, self._activity, *self._reduced())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(_RESULT_FIELDS, self._fields()))
        return f"AllocationResult({fields})"

    def sort_key(self) -> tuple:
        return (self._date, self._entity_id, self._activity.value)


# What a writer reads of a result, in one call: its pool, date, method, activity, entity, share
# (quantity and total, not reduced) and basis.
result_parts = attrgetter("_pool", "_date", "_method", "_activity", "_entity_id", "_quantity", "_total", "_basis")
