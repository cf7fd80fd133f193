"""Per-day and per-period allocation of network energy to holdings and transactions.

The three methodologies share one algebra: pick a pool (the whole day's energy
for the pure methods, a weighted slice for the hybrid), compute the entity's
share of that pool, multiply. PoW hybrid weights come from the day's split of
transaction fees vs. total miner revenue; PoS hybrid weights come from the
day's marginal transaction share. Everything is a pure function of its inputs;
results carry a replayable audit trail.

What every record of a day shares (pools, share denominators, carbon factor)
is computed once in a ``DayPlan``; each record then costs one share and the
plan's one result constructor. Network, app and layer-2 results all come out
of that constructor, and the period summary sums each day's shares before
multiplying by the day's pool.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import (
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
    AuditTrail,
    Carbon,
    Consensus,
    ConsensusParams,
    Energy,
    HoldingRecord,
    Method,
    NetworkDay,
    Portfolio,
    Share,
    TransactionRecord,
)

NETWORK_SCOPE = ("network",)

# Preferred basis per consensus: PoW follows the monetary incentive first,
# PoS the computational complexity first; count is the second-best proxy.
_BASIS_ORDER = {
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
            raise ValueError("holding and transaction weights must sum to 1 exactly")


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
        holding_weight=tx_weight.complement(),
        transaction_weight=tx_weight,
        source=source,
    )


def holding_pool(day: NetworkDay, weights: MethodWeights) -> Energy:
    """Slice of the day's energy attributed to holdings under the hybrid split."""
    return day.energy * weights.holding_weight


def transaction_pool(day: NetworkDay, weights: MethodWeights) -> Energy:
    """Slice of the day's energy attributed to transactions under the hybrid split."""
    return day.energy * weights.transaction_weight


def require_weights(day: NetworkDay, weights: MethodWeights | None) -> MethodWeights:
    """The weights, once they are present and computed for ``day``; ValueError otherwise."""
    if weights is None:
        raise ValueError("hybrid allocation requires method weights")
    if weights.date != day.date:
        raise ValueError(f"weights are for {weights.date}, day is {day.date}")
    return weights


@dataclass(frozen=True)
class Pool:
    """One pool: the named factors taking the base energy down to it, and its energy."""

    factors: tuple[tuple[str, Fraction], ...]
    wh: Fraction

    @classmethod
    def of(cls, base_wh: Fraction, factors: tuple[tuple[str, Fraction], ...]) -> "Pool":
        weight = Fraction(1)
        for _, factor in factors:
            weight *= factor
        return cls(factors, base_wh * weight)


@dataclass(frozen=True)
class DayPlan:
    """What every result of one day shares, computed once for the day.

    The two pools are shared by all results drawing on them (their factor
    tuples become the audits' ``pool_factors``). ``effective_supply`` and the
    fee, gas and count totals are the share denominators; ``carbon_per_wh``
    is the emission factor per watt-hour, None when the day has none.
    """

    day: NetworkDay
    method: Method
    scope: tuple[str, ...]
    weight_source: str | None
    holding: Pool
    transaction: Pool
    effective_supply: Fraction
    fee_total: Fraction | None
    gas_total: Fraction | None
    count_total: int
    carbon_per_wh: Fraction | None

    def pool(self, activity: Activity) -> Pool:
        return self.holding if activity is Activity.HOLDING else self.transaction

    def result(self, activity: Activity, entity_id: str, share: Fraction, basis: str) -> AllocationResult:
        """The one result constructor: the entity's ``share`` of the activity's pool."""
        day, pool = self.day, self.pool(activity)
        energy = pool.wh * share
        audit = AuditTrail(
            self.scope, day.energy.wh, pool.factors, share, basis, self.weight_source, day.filled_forward
        )
        carbon = Carbon(energy * self.carbon_per_wh) if self.carbon_per_wh is not None else None
        return AllocationResult(entity_id, day.date, self.method, activity, Energy(energy), audit, carbon)


def plan_day(
    day: NetworkDay,
    weights: MethodWeights | None,
    method: Method,
    scope: tuple[str, ...] = NETWORK_SCOPE,
) -> DayPlan:
    """The day's pools and share denominators under ``method`` (hybrid needs weights)."""
    base = day.energy.wh
    if method is Method.HYBRID:
        weights = require_weights(day, weights)
        holding = Pool.of(base, (("holding_weight", weights.holding_weight.value),))
        transaction = Pool.of(base, (("transaction_weight", weights.transaction_weight.value),))
        source = weights.source
    else:
        holding = transaction = Pool(factors=(), wh=base)
        source = None
    return DayPlan(
        day=day,
        method=method,
        scope=scope,
        weight_source=source,
        holding=holding,
        transaction=transaction,
        effective_supply=day.effective_supply(),
        fee_total=day.tx_fees_total.value if day.tx_fees_total is not None else None,
        gas_total=day.gas_total,
        count_total=day.tx_count,
        carbon_per_wh=day.emission_factor / 1000 if day.emission_factor is not None else None,
    )


def _holding_result(plan: DayPlan, holding: HoldingRecord) -> AllocationResult:
    """Entity share of the (lost-coin-adjusted) circulating supply, as a result."""
    amount, effective = holding.amount.value, plan.effective_supply
    if amount > effective:
        raise ShareOverflow(f"{plan.day.date}: holding {amount} exceeds effective supply {effective}")
    return plan.result(Activity.HOLDING, holding.entity_id, amount / effective, "holding")


def transaction_result(plan: DayPlan, tx: TransactionRecord, kind: Consensus) -> AllocationResult:
    """The record's share of the transaction pool, on the basis ``transaction_quantities`` picks."""
    basis, quantity, total = transaction_quantities(tx, kind, plan.fee_total, plan.gas_total, plan.count_total)
    return plan.result(Activity.TRANSACTION, tx.entity_id, Fraction(quantity, total), basis)


def allocate_holding(
    day: NetworkDay,
    weights: MethodWeights | None,
    holding: HoldingRecord,
    method: Method,
    scope: tuple[str, ...] = NETWORK_SCOPE,
) -> AllocationResult:
    """Allocate one day's holding exposure under the holding-based or hybrid method."""
    if holding.date != day.date:
        raise ValueError(f"holding dated {holding.date} does not match day {day.date}")
    if method not in (Method.HOLDING_BASED, Method.HYBRID):
        raise ValueError(f"holdings are not allocated under {method.value}-based accounting")
    return _holding_result(plan_day(day, weights, method, scope), holding)


# The record attribute each basis reads its quantity from.
_BASIS_COLUMNS = {"fee": "fee_paid", "gas": "gas_used", "count": "tx_count"}


def transaction_quantities(
    tx: TransactionRecord,
    kind: Consensus,
    fee_total: Fraction | None,
    gas_total: Fraction | None,
    count_total: int,
) -> tuple[str, Fraction | int, Fraction | int]:
    """The first usable basis in the consensus-specific hierarchy: (basis name, quantity, total).

    A basis is usable when the record carries the quantity and the day (or
    app) carries a positive total. Raises NoTransactions on a day that
    reports no transactions (an app checks its own count first),
    ShareOverflow (with the quantity's ``column``) when the quantity exceeds
    the total, and BasisUnavailable when no basis is usable. The bound
    compares integers, so a check that divides nothing (the join) builds no
    share.
    """
    if count_total == 0:
        raise NoTransactions(f"{tx.date}: transaction record exists but the day reports none")
    for basis in _BASIS_ORDER[kind]:
        if basis == "fee" and tx.fee_paid is not None and fee_total:
            quantity, total = tx.fee_paid.value, fee_total
        elif basis == "gas" and tx.gas_used is not None and gas_total:
            quantity, total = tx.gas_used, gas_total
        elif basis == "count" and tx.tx_count is not None:
            quantity, total = tx.tx_count, count_total
        else:
            continue
        if quantity.numerator * total.denominator > total.numerator * quantity.denominator:
            raise ShareOverflow(
                f"{tx.entity_id}: {basis} quantity {quantity} exceeds total {total}", _BASIS_COLUMNS[basis]
            )
        return basis, quantity, total
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
        raise ValueError(f"transaction dated {tx.date} does not match day {day.date}")
    if method not in (Method.TRANSACTION_BASED, Method.HYBRID):
        raise ValueError(f"transactions are not allocated under {method.value}-based accounting")
    return transaction_result(plan_day(day, weights, method, scope), tx, params.kind)


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


def _summarize(
    results: list[AllocationResult], plans: dict[_dt.date, DayPlan], activity: Activity
) -> ActivitySummary | None:
    """Period aggregate from one share sum per day: a day's energy is its pool times that sum."""
    day_shares: dict[_dt.date, Fraction] = {}
    count = 0
    for r in results:
        if r.activity is activity:
            day_shares[r.date] = day_shares.get(r.date, 0) + r.audit.entity_share
            count += 1
    if not count:
        return None
    days = len(day_shares)
    total_wh = pool_sum = share_sum = Fraction(0)
    carbons = []
    for date, shares in day_shares.items():
        plan = plans[date]
        pool_wh = plan.pool(activity).wh
        energy = pool_wh * shares
        total_wh += energy
        pool_sum += pool_wh
        share_sum += shares
        if plan.carbon_per_wh is not None:
            carbons.append(energy * plan.carbon_per_wh)
    mean_pool = pool_sum / days
    mean_share = share_sum / days
    return ActivitySummary(
        activity=activity,
        result_count=count,
        days_covered=days,
        total_energy=Energy(total_wh),
        daily_mean_energy=Energy(total_wh / days),
        mean_pool=Energy(mean_pool),
        mean_daily_share=mean_share,
        ratio_of_averages_energy=Energy(mean_pool * mean_share),
        total_carbon=Carbon(sum(carbons, Fraction(0))) if carbons else None,
    )


def check_days_ordered(days: tuple[NetworkDay, ...] | list[NetworkDay]) -> None:
    for previous, current in zip(days, days[1:]):
        if current.date <= previous.date:
            raise ValueError(
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
        results += [transaction_result(plan_for(t.date), t, params.kind) for t in portfolio.transactions]

    results.sort(key=AllocationResult.sort_key)
    summary = PeriodSummary(
        method=method,
        holding=_summarize(results, plans, Activity.HOLDING),
        transaction=_summarize(results, plans, Activity.TRANSACTION),
    )
    return PortfolioAllocation(method=method, results=tuple(results), summary=summary)
