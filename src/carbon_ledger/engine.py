"""Per-day and per-period allocation of network energy to holdings and transactions.

The three methodologies share one algebra: pick a pool (the whole day's energy
for the pure methods, a weighted slice for the hybrid), compute the entity's
share of that pool, multiply. PoW hybrid weights come from the day's split of
transaction fees vs. total miner revenue; PoS hybrid weights come from the
day's marginal transaction share. Everything is a pure function of its inputs;
results carry a replayable audit trail.
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
    CoinAmount,
    Consensus,
    ConsensusParams,
    Energy,
    HoldingRecord,
    Method,
    NetworkDay,
    Portfolio,
    Share,
    TransactionRecord,
    carbonize,
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


def _require_weights(day: NetworkDay, weights: MethodWeights | None) -> MethodWeights:
    if weights is None:
        raise ValueError("hybrid allocation requires method weights")
    if weights.date != day.date:
        raise ValueError(f"weights are for {weights.date}, day is {day.date}")
    return weights


def _result(
    day: NetworkDay,
    entity_id: str,
    method: Method,
    activity: Activity,
    scope: tuple[str, ...],
    pool_factors: tuple[tuple[str, Fraction], ...],
    entity_share: Fraction,
    entity_basis: str,
    weight_source: str | None,
) -> AllocationResult:
    audit = AuditTrail(
        scope=scope,
        base_wh=day.energy.wh,
        pool_factors=pool_factors,
        entity_share=entity_share,
        entity_basis=entity_basis,
        weight_source=weight_source,
        filled_forward=day.filled_forward,
    )
    energy = Energy(audit.replay_wh())
    carbon = None
    if day.emission_factor is not None:
        carbon = carbonize(energy, day.emission_factor)
    return AllocationResult(
        entity_id=entity_id,
        date=day.date,
        method=method,
        activity=activity,
        energy=energy,
        audit=audit,
        carbon=carbon,
    )


def holding_share(day: NetworkDay, amount: CoinAmount) -> Fraction:
    """Entity share of the (lost-coin-adjusted) circulating supply."""
    effective = day.effective_supply()
    if amount.value > effective:
        raise ShareOverflow(
            f"{day.date}: holding {amount.value} exceeds effective supply {effective}"
        )
    return amount.value / effective


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
    share = holding_share(day, holding.amount)
    if method is Method.HYBRID:
        weights = _require_weights(day, weights)
        factors = (("holding_weight", weights.holding_weight.value),)
        weight_source = weights.source
    else:
        factors = ()
        weight_source = None
    return _result(
        day,
        holding.entity_id,
        method,
        Activity.HOLDING,
        scope,
        factors,
        share,
        "holding",
        weight_source,
    )


def transaction_basis(
    tx: TransactionRecord,
    kind: Consensus,
    fee_total: Fraction | None,
    gas_total: Fraction | None,
    count_total: int,
) -> tuple[str, Fraction]:
    """Pick the first usable basis in the consensus-specific hierarchy.

    A basis is usable when the record carries the numerator and the day (or
    app) carries a positive denominator. Returns (basis name, entity share).
    """
    for basis in _BASIS_ORDER[kind]:
        if basis == "fee" and tx.fee_paid is not None and fee_total:
            numerator: Fraction = tx.fee_paid.value
            denominator = fee_total
        elif basis == "gas" and tx.gas_used is not None and gas_total:
            numerator = tx.gas_used
            denominator = gas_total
        elif basis == "count" and tx.tx_count is not None and count_total > 0:
            numerator = Fraction(tx.tx_count)
            denominator = Fraction(count_total)
        else:
            continue
        if numerator > denominator:
            raise ShareOverflow(
                f"{tx.entity_id}: {basis} quantity {numerator} exceeds total {denominator}"
            )
        return basis, numerator / denominator
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
    if day.tx_count == 0:
        raise NoTransactions(f"{day.date}: transaction record exists but the day reports none")
    basis, share = transaction_basis(
        tx,
        params.kind,
        day.tx_fees_total.value if day.tx_fees_total is not None else None,
        day.gas_total,
        day.tx_count,
    )
    if method is Method.HYBRID:
        weights = _require_weights(day, weights)
        factors = (("transaction_weight", weights.transaction_weight.value),)
        weight_source = weights.source
    else:
        factors = ()
        weight_source = None
    return _result(
        day,
        tx.entity_id,
        method,
        Activity.TRANSACTION,
        scope,
        factors,
        share,
        basis,
        weight_source,
    )


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


def _summarize(results: list[AllocationResult], activity: Activity) -> ActivitySummary | None:
    subset = [r for r in results if r.activity is activity]
    if not subset:
        return None
    by_day: dict[_dt.date, list[AllocationResult]] = {}
    for r in subset:
        by_day.setdefault(r.date, []).append(r)
    days = len(by_day)
    total_wh = sum((r.energy.wh for r in subset), Fraction(0))
    pool_sum = Fraction(0)
    share_sum = Fraction(0)
    for day_results in by_day.values():
        pool_sum += day_results[0].audit.pool_wh
        share_sum += sum((r.audit.entity_share for r in day_results), Fraction(0))
    mean_pool = pool_sum / days
    mean_share = share_sum / days
    carbons = [r.carbon.grams for r in subset if r.carbon is not None]
    return ActivitySummary(
        activity=activity,
        result_count=len(subset),
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

    weights_cache: dict[_dt.date, MethodWeights] = {}

    def weights_for(day: NetworkDay) -> MethodWeights | None:
        if method is not Method.HYBRID:
            return None
        if day.date not in weights_cache:
            weights_cache[day.date] = method_weights(day, params)
        return weights_cache[day.date]

    results: list[AllocationResult] = []
    if method in (Method.HOLDING_BASED, Method.HYBRID):
        for holding in portfolio.holdings:
            day = day_map[holding.date]
            results.append(allocate_holding(day, weights_for(day), holding, method, scope))
    if method in (Method.TRANSACTION_BASED, Method.HYBRID):
        for tx in portfolio.transactions:
            day = day_map[tx.date]
            results.append(allocate_transaction(day, weights_for(day), tx, method, params, scope))

    results.sort(key=AllocationResult.sort_key)
    summary = PeriodSummary(
        method=method,
        holding=_summarize(results, Activity.HOLDING),
        transaction=_summarize(results, Activity.TRANSACTION),
    )
    return PortfolioAllocation(method=method, results=tuple(results), summary=summary)
