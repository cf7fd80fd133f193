"""Per-day and per-period allocation of network energy to holdings and transactions.

The three methodologies share one algebra: pick a pool (the whole day's energy
for the pure methods, a weighted slice for the hybrid), compute the entity's
share of that pool, multiply. PoW hybrid weights come from the day's split of
transaction fees vs. total miner revenue; PoS hybrid weights come from the
day's marginal transaction share. Everything is a pure function of its inputs;
results carry a replayable audit trail.

What every record of a day shares (pools, share denominators, carbon factor)
is computed once in a ``DayPlan``; each record then costs one share, kept as
two unreduced integers, and the plan's one result constructor. Network, app
and layer-2 results all come out of that constructor, and every pool a
library caller asks for is read off a plan. A result holds its pool object
and its two integers: the period summary adds the integers of each day's
shares that have one denominator before multiplying by the day's pool, the
renderer rounds the integer products, and only a library caller reading a
result's energy, audit or carbon reduces a ``Fraction``.
"""

from __future__ import annotations

import datetime as _dt
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable

from .errors import (
    ArgumentMismatch,
    BasisUnavailable,
    MalformedDay,
    MissingColumn,
    MissingDay,
    NoTransactions,
    ShareOverflow,
)
from .model import (
    Activity,
    AllocationResult,
    Carbon,
    Consensus,
    ConsensusParams,
    Energy,
    HoldingRecord,
    Method,
    NetworkDay,
    Pool,
    Portfolio,
    Share,
    TransactionRecord,
)

NETWORK_SCOPE = ("network",)

# Preferred basis per consensus: PoW follows the monetary incentive first,
# PoS the computational complexity first; count is the second-best proxy.
# Callers look an order up once, not per record: ``Enum.__hash__`` is a Python call.
BASIS_ORDER = {
    Consensus.POW: ("fee", "gas", "count"),
    Consensus.POS: ("gas", "fee", "count"),
}


@dataclass(frozen=True)
class MethodWeights:
    """Hybrid split of one day's energy between holdings and transactions."""

    date: _dt.date
    holding_weight: Share
    transaction_weight: Share
    source: str

    def __post_init__(self):
        if self.holding_weight.value + self.transaction_weight.value != 1:
            raise ArgumentMismatch("holding and transaction weights must sum to 1 exactly")


def fee_share(day: NetworkDay) -> Share:
    """Transaction fees as a share of total miner revenue on a PoW day."""
    if day.block_reward is None or day.tx_fees_total is None:
        raise MissingColumn(
            f"{day.date}: block_reward and tx_fees_total are required to compute a fee share"
        )
    revenue = day.block_reward.value + day.tx_fees_total.value
    if revenue == 0:
        raise MalformedDay(f"{day.date}: zero total miner revenue, fee share undefined")
    return Share(day.tx_fees_total.value / revenue)


def method_weights(day: NetworkDay, params: ConsensusParams) -> MethodWeights:
    """Hybrid weights for one day under the given consensus mechanism."""
    if params.kind is Consensus.POW:
        tx_weight = fee_share(day)
        source = "fee_share"
    else:
        if day.pos_tx_share is None:
            raise MissingColumn(f"{day.date}: pos_tx_share is required for proof-of-stake days")
        tx_weight = day.pos_tx_share
        source = "pos_tx_share"
    return MethodWeights(
        date=day.date,
        holding_weight=Share(1 - tx_weight.value),
        transaction_weight=tx_weight,
        source=source,
    )


@dataclass(frozen=True)
class DayPlan:
    """What every result of one day shares, computed once for the day.

    The two pools are shared by all results drawing on them.
    ``effective_supply`` and the fee, gas and count totals are the share
    denominators.
    """

    day: NetworkDay
    method: Method
    holding: Pool
    transaction: Pool
    effective_supply: Fraction
    fee_total: Fraction | None
    gas_total: Fraction | None
    count_total: int

    def pool(self, activity: Activity) -> Pool:
        return self.holding if activity is Activity.HOLDING else self.transaction

    def result(
        self, activity: Activity, entity_id: str, quantity: int, total: int, basis: str
    ) -> AllocationResult:
        """The one result constructor: the entity's share ``quantity / total`` of the activity's pool.

        The two integers need not be reduced; nothing is reduced until a
        library caller reads the result's energy, audit or carbon.
        """
        return AllocationResult.share_of(
            entity_id, self.day.date, self.method, activity, self.pool(activity), quantity, total, basis
        )


def plan_day(
    day: NetworkDay,
    weights: MethodWeights | None,
    method: Method,
    scope: tuple[str, ...] = NETWORK_SCOPE,
) -> DayPlan:
    """The day's pools and share denominators under ``method`` (hybrid needs the day's weights)."""
    if method is Method.HYBRID:
        if weights is None:
            raise ArgumentMismatch("hybrid allocation requires method weights")
        if weights.date != day.date:
            raise ArgumentMismatch(f"weights are for {weights.date}, day is {day.date}")
        source = weights.source
        holding_factors = (("holding_weight", weights.holding_weight.value),)
        transaction_factors = (("transaction_weight", weights.transaction_weight.value),)
    else:
        source, holding_factors, transaction_factors = None, (), ()
    base = day.energy.wh
    carbon_per_wh = day.emission_factor / 1000 if day.emission_factor is not None else None
    whole = Pool(scope, base, (), base, source, day.filled_forward, carbon_per_wh)
    return DayPlan(
        day=day,
        method=method,
        holding=whole.narrowed(holding_factors),
        transaction=whole.narrowed(transaction_factors),
        effective_supply=day.effective_supply(),
        fee_total=day.tx_fees_total.value if day.tx_fees_total is not None else None,
        gas_total=day.gas_total,
        count_total=day.tx_count,
    )


def holding_pool(day: NetworkDay, weights: MethodWeights) -> Energy:
    """Slice of the day's energy attributed to holdings under the hybrid split."""
    return Energy(plan_day(day, weights, Method.HYBRID).holding.wh)


def transaction_pool(day: NetworkDay, weights: MethodWeights) -> Energy:
    """Slice of the day's energy attributed to transactions under the hybrid split."""
    return Energy(plan_day(day, weights, Method.HYBRID).transaction.wh)


def _holding_result(plan: DayPlan, holding: HoldingRecord) -> AllocationResult:
    """Entity share of the (lost-coin-adjusted) circulating supply, as a result."""
    amount, effective = holding.amount, plan.effective_supply
    quantity, total = amount.units * effective.denominator, amount.scale * effective.numerator
    if quantity > total:
        raise ShareOverflow(f"{plan.day.date}: holding {amount.value} exceeds effective supply {effective}")
    return plan.result(Activity.HOLDING, holding.entity_id, quantity, total, "holding")


def transaction_result(plan: DayPlan, tx: TransactionRecord, order: tuple[str, ...]) -> AllocationResult:
    """The record's share of the transaction pool, on the basis ``transaction_quantities`` picks."""
    basis, quantity, total = transaction_quantities(tx, order, plan.fee_total, plan.gas_total, plan.count_total)
    return plan.result(Activity.TRANSACTION, tx.entity_id, quantity, total, basis)


def allocate_holding(
    day: NetworkDay,
    weights: MethodWeights | None,
    holding: HoldingRecord,
    method: Method,
    scope: tuple[str, ...] = NETWORK_SCOPE,
) -> AllocationResult:
    """Allocate one day's holding exposure under the holding-based or hybrid method."""
    if holding.date != day.date:
        raise ArgumentMismatch(f"holding dated {holding.date} does not match day {day.date}")
    if method not in (Method.HOLDING_BASED, Method.HYBRID):
        raise ArgumentMismatch(f"holdings are not allocated under {method.value}-based accounting")
    return _holding_result(plan_day(day, weights, method, scope), holding)


# The record attribute each basis reads its quantity from.
_BASIS_COLUMNS = {"fee": "fee_paid", "gas": "gas_used", "count": "tx_count"}


def transaction_quantities(
    tx: TransactionRecord,
    order: tuple[str, ...],
    fee_total: Fraction | None,
    gas_total: Fraction | None,
    count_total: int,
) -> tuple[str, int, int]:
    """The first usable basis in the consensus's ``BASIS_ORDER``: (basis name, quantity, total).

    ``quantity / total`` is the record's share of the basis total, as two
    integers, not reduced. A basis is usable when the record carries the
    quantity and the day (or app) carries a positive total. Raises
    NoTransactions on a day that reports no transactions (an app checks its
    own count first), ShareOverflow (with the quantity's ``column``) when the
    quantity exceeds the total, and BasisUnavailable when no basis is usable.
    The bound compares the integers, so a check that divides nothing (the
    join) builds no ``Fraction``.
    """
    if count_total == 0:
        raise NoTransactions(f"{tx.date}: transaction record exists but the day reports none")
    for basis in order:
        if basis == "fee" and tx.fee_paid is not None and fee_total:
            units, scale, total = tx.fee_paid.units, tx.fee_paid.scale, fee_total
        elif basis == "gas" and tx.gas_used is not None and gas_total:
            units, scale, total = tx.gas_used.numerator, tx.gas_used.denominator, gas_total
        elif basis == "count" and tx.tx_count is not None:
            units, scale, total = tx.tx_count, 1, count_total
        else:
            continue
        quantity, share_total = units * total.denominator, scale * total.numerator
        if quantity > share_total:
            raise ShareOverflow(
                f"{tx.entity_id}: {basis} quantity {Fraction(units, scale)} exceeds total {total}",
                _BASIS_COLUMNS[basis],
            )
        return basis, quantity, share_total
    raise BasisUnavailable(
        f"{tx.entity_id} on {tx.date}: no fee, gas, or count basis can be formed"
    )


def allocate_transaction(
    day: NetworkDay,
    weights: MethodWeights | None,
    tx: TransactionRecord,
    method: Method,
    params: ConsensusParams,
    scope: tuple[str, ...] = NETWORK_SCOPE,
) -> AllocationResult:
    """Allocate one day's transaction activity under the transaction-based or hybrid method."""
    if tx.date != day.date:
        raise ArgumentMismatch(f"transaction dated {tx.date} does not match day {day.date}")
    if method not in (Method.TRANSACTION_BASED, Method.HYBRID):
        raise ArgumentMismatch(f"transactions are not allocated under {method.value}-based accounting")
    return transaction_result(plan_day(day, weights, method, scope), tx, BASIS_ORDER[params.kind])


@dataclass(frozen=True)
class ActivitySummary:
    """Period aggregate for one activity: totals plus both averaging orders.

    ``daily_mean`` averages the per-day allocations over the days the
    activity actually covers (average of ratios, the primary figure).
    ``ratio_of_averages`` multiplies the mean pool by the mean daily share
    instead; it is exposed so users can reconcile the two orders.
    """

    activity: Activity
    result_count: int
    days_covered: int
    total_energy: Energy
    daily_mean_energy: Energy
    mean_pool: Energy
    mean_daily_share: Fraction
    ratio_of_averages_energy: Energy
    total_carbon: Carbon | None


@dataclass(frozen=True)
class PeriodSummary:
    method: Method
    holding: ActivitySummary | None
    transaction: ActivitySummary | None


@dataclass(frozen=True)
class PortfolioAllocation:
    method: Method
    results: tuple[AllocationResult, ...]
    summary: PeriodSummary


def _balanced_sum(terms: list[Fraction]) -> Fraction:
    """The exact sum of ``terms``, added in pairs, then pairs of pairs, so no operand's denominator grows long."""
    while len(terms) > 1:
        paired = [a + b for a, b in zip(terms[::2], terms[1::2])]
        terms = paired + terms[2 * len(paired) :]
    return terms[0] if terms else Fraction(0)


def _summarize(results: Iterable[AllocationResult], activity: Activity) -> ActivitySummary | None:
    """Period aggregate from one share sum per day: a day's energy is its pool times that sum.

    The quantities of a day's shares that have one denominator (one basis, or
    holdings of one precision) are added as integers; a day can mix
    denominators, for instance when a transaction falls back from gas to fee.
    The day's groups then meet over the least common multiple of their
    denominators, so each day makes one ``Fraction``. The period's four sums
    (energy, pool, share, carbon) add their day terms pairwise.
    """
    quantities: dict[_dt.date, dict[int, int]] = {}
    pools: dict[_dt.date, Pool] = {}
    count = 0
    for r in results:
        if r.activity is activity:
            day = quantities.get(r.date)
            if day is None:
                day = quantities[r.date] = {}
                pools[r.date] = r.pool
            day[r.total] = day.get(r.total, 0) + r.quantity
            count += 1
    if not count:
        return None
    days = len(quantities)
    terms = []
    for date, groups in quantities.items():
        common = math.lcm(*groups)
        share = Fraction(sum(quantity * (common // total) for total, quantity in groups.items()), common)
        pool = pools[date]
        terms.append((pool.wh * share, pool.wh, share, pool.carbon_per_wh))
    energies, pool_whs, shares, factors = map(list, zip(*terms))
    carbons = [energy * factor for energy, factor in zip(energies, factors) if factor is not None]
    total_wh = _balanced_sum(energies)
    mean_pool = _balanced_sum(pool_whs) / days
    mean_share = _balanced_sum(shares) / days
    return ActivitySummary(
        activity=activity,
        result_count=count,
        days_covered=days,
        total_energy=Energy(total_wh),
        daily_mean_energy=Energy(total_wh / days),
        mean_pool=Energy(mean_pool),
        mean_daily_share=mean_share,
        ratio_of_averages_energy=Energy(mean_pool * mean_share),
        total_carbon=Carbon(_balanced_sum(carbons)) if carbons else None,
    )


def summarize(method: Method, results: Iterable[AllocationResult]) -> PeriodSummary:
    """The period summary of one allocation's results, as ``allocate_portfolio`` returns them.

    Each activity's results of one date must draw on one pool, as the
    results of one day plan do.
    """
    results = tuple(results)
    return PeriodSummary(
        method=method,
        holding=_summarize(results, Activity.HOLDING),
        transaction=_summarize(results, Activity.TRANSACTION),
    )


def check_days_ordered(days: tuple[NetworkDay, ...] | list[NetworkDay]) -> None:
    for previous, current in zip(days, days[1:]):
        if current.date <= previous.date:
            raise ArgumentMismatch(
                f"days must be strictly increasing; {current.date} follows {previous.date}"
            )


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


def allocate_portfolio(
    days: list[NetworkDay] | tuple[NetworkDay, ...],
    params: ConsensusParams,
    portfolio: Portfolio,
    method: Method,
    scope: tuple[str, ...] | None = None,
) -> PortfolioAllocation:
    """Allocate a whole portfolio across a day range, with a period summary.

    Every record's date must be covered by a day; uncovered dates raise
    ``MissingDay`` listing all of them, never a silent interpolation.
    Results come back sorted by (date, entity_id, activity).
    """
    check_days_ordered(days)
    day_map = {d.date: d for d in days}
    if scope is None:
        scope = (f"network:{portfolio.network_id}",)

    uncovered = {r.date for r in portfolio.holdings if r.date not in day_map}
    uncovered |= {r.date for r in portfolio.transactions if r.date not in day_map}
    if uncovered:
        raise MissingDay(uncovered)

    plans: dict[_dt.date, DayPlan] = {}

    def plan_for(date: _dt.date) -> DayPlan:
        plan = plans.get(date)
        if plan is None:
            day = day_map[date]
            weights = method_weights(day, params) if method is Method.HYBRID else None
            plan = plans[date] = plan_day(day, weights, method, scope)
        return plan

    results: list[AllocationResult] = []
    if method is not Method.TRANSACTION_BASED:
        results += [_holding_result(plan_for(h.date), h) for h in portfolio.holdings]
    if method is not Method.HOLDING_BASED:
        order = BASIS_ORDER[params.kind]
        results += [transaction_result(plan_for(t.date), t, order) for t in portfolio.transactions]

    ordered = tuple(sorted(results, key=AllocationResult.sort_key))
    return PortfolioAllocation(method=method, results=ordered, summary=summarize(method, ordered))
