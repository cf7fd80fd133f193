"""Allocation of a network's transaction pool to layer-1 applications and tokens.

Applications draw exclusively from the transaction pool (their base unit is
the transaction fee on PoW, gas on PoS), never from the holding pool, so
registering apps cannot double-count against coin holders. Within an app
three routes exist: pure transaction-based, token-holding-based, and a hybrid
that reuses the host network's weights. Apps are an overlay, not a partition:
whatever share of the pool no app claims stays allocated at the network level.
"""

from __future__ import annotations

from fractions import Fraction

from . import engine
from .errors import ArgumentMismatch, NoTransactions, NotAToken, RowProblem, ShareOverflow
from .model import (
    Activity,
    AllocationResult,
    ConsensusParams,
    Energy,
    Method,
    NetworkDay,
    TransactionRecord,
    Value,
)


class AppDay(Value):
    """One day of telemetry for a layer-1 application.

    ``app_fee_share`` is the app's share of the day's total network
    transaction fees (PoW) or gas (PoS) and is ingested data, not recomputed
    from chain indexing. ``token_supply`` is absent for apps without a token;
    NFT collections use the number of distinct items.
    """

    __slots__ = ("app_id", "date", "app_fee_share", "app_tx_count", "token_supply")
    _defaults = {"token_supply": None}

    def __post_init__(self):
        if self.app_tx_count < 0:
            raise RowProblem("app_tx_count", "must be >= 0")
        if self.token_supply is not None and not self.token_supply:
            raise RowProblem("token_supply", "must be > 0 when present")


class TokenHolding(Value):
    """An entity's average token balance in one app over one UTC day.

    Its fields are ``entity_id``, ``app_id``, ``date`` and ``amount``.
    """

    __slots__ = ("entity_id", "app_id", "date", "amount")


def check_app_day(app: AppDay, day: NetworkDay) -> None:
    """The app day's rules against its host day: the same date, and ``app_tx_count`` at most the day's ``tx_count``.

    Raises ArgumentMismatch for another day's app, and ShareOverflow (column ``app_tx_count``) above the count.
    """
    if app.date != day.date:
        raise ArgumentMismatch(f"app day {app.date} does not match network day {day.date}")
    if app.app_tx_count > day.tx_count:
        reason = f"app_tx_count {app.app_tx_count} exceeds the day's tx_count {day.tx_count}"
        raise ShareOverflow(f"{app.app_id} on {app.date}: {reason}", "app_tx_count")


def app_pool(day: NetworkDay, weights: engine.MethodWeights, app: AppDay) -> Energy:
    """The app's slice of the day's transaction pool."""
    return Energy(_app_plan(day, weights, app, Method.TRANSACTION_BASED, engine.NETWORK_SCOPE).transaction.wh)


def unattributed_remainder(
    day: NetworkDay, weights: engine.MethodWeights, apps: list[AppDay] | tuple[AppDay, ...]
) -> Energy:
    """Transaction-pool energy claimed by no registered app; stays at network level."""
    pool = engine.plan_day(day, weights, Method.HYBRID).transaction.wh
    for app in apps:
        check_app_day(app, day)
    return Energy(pool * (1 - claimed_fee_share(apps)))


def claimed_fee_share(apps: list[AppDay] | tuple[AppDay, ...]) -> Fraction:
    """The fee shares of one day's apps summed; raises ShareOverflow (column ``app_fee_share``) above 1."""
    claimed = sum((app.app_fee_share.value for app in apps), Fraction(0))
    if claimed > 1:
        raise ShareOverflow(f"{apps[0].date}: app fee shares sum to {claimed} > 1", "app_fee_share")
    return claimed


def token_quantities(app: AppDay, holding: TokenHolding) -> tuple[int, int]:
    """The holding's share of the app's token supply, as (quantity, total), not reduced.

    Raises NotAToken without a supply, and ShareOverflow (column ``amount``) above it.
    """
    supply = app.token_supply
    if supply is None:
        raise NotAToken(f"{app.app_id} has no token supply on {app.date}")
    amount = holding.amount
    quantity, total = amount.units * supply.scale, amount.scale * supply.units
    if quantity > total:
        raise ShareOverflow(f"{holding.entity_id}: amount {amount.value} exceeds token supply {supply.value}", "amount")
    return quantity, total


def _app_plan(
    day: NetworkDay,
    weights: engine.MethodWeights,
    app: AppDay,
    method: Method,
    scope: tuple[str, ...],
) -> engine.DayPlan:
    """The app-day's plan: the day's hybrid plan, both pools cut to the app's slice of its transaction pool.

    The app's fee (or gas) total is derived from its declared share of the
    network total, so the same basis hierarchy as network-level allocation
    applies within the app. A hybrid plan adds the host's holding and
    transaction weights to its pools.
    """
    plan = engine.plan_day(day, weights, Method.HYBRID, scope + (f"app:{app.app_id}",))
    check_app_day(app, day)
    hybrid = method is Method.HYBRID
    holding_factors = (("app_holding_weight", weights.holding_weight.value),) if hybrid else ()
    transaction_factors = (("app_transaction_weight", weights.transaction_weight.value),) if hybrid else ()
    fee_share = app.app_fee_share.value
    app_pool = plan.transaction.narrowed((("app_fee_share", fee_share),))
    return engine.DayPlan(
        day=day,
        method=method,
        holding=app_pool.narrowed(holding_factors),
        transaction=app_pool.narrowed(transaction_factors),
        effective_supply=plan.effective_supply,
        fee_total=plan.fee_total * fee_share if plan.fee_total is not None else None,
        gas_total=plan.gas_total * fee_share if plan.gas_total is not None else None,
        count_total=app.app_tx_count,
    )


def _app_transaction_result(
    plan: engine.DayPlan, app: AppDay, tx: TransactionRecord, order: tuple[str, ...]
) -> AllocationResult:
    """Entity share of the app's own activity, on the app-scoped basis."""
    if tx.date != plan.day.date:
        raise ArgumentMismatch(f"transaction dated {tx.date} does not match day {plan.day.date}")
    if app.app_tx_count == 0:
        raise NoTransactions(
            f"{app.app_id} on {app.date}: transaction record exists but the app reports none"
        )
    return engine.transaction_result(plan, tx, order)


def _token_result(plan: engine.DayPlan, app: AppDay, holding: TokenHolding) -> AllocationResult:
    if holding.date != plan.day.date:
        raise ArgumentMismatch(f"token holding dated {holding.date} does not match day {plan.day.date}")
    if holding.app_id != app.app_id:
        raise ArgumentMismatch(f"token holding is for app {holding.app_id!r}, not {app.app_id!r}")
    quantity, total = token_quantities(app, holding)
    return plan.result(Activity.HOLDING, holding.entity_id, quantity, total, "token")


def allocate_app_transaction(
    day: NetworkDay,
    weights: engine.MethodWeights,
    app: AppDay,
    tx: TransactionRecord,
    params: ConsensusParams,
    scope: tuple[str, ...] = engine.NETWORK_SCOPE,
) -> AllocationResult:
    """Pure transaction-based allocation of the app pool to one record."""
    plan = _app_plan(day, weights, app, Method.TRANSACTION_BASED, scope)
    return _app_transaction_result(plan, app, tx, engine.BASIS_ORDER[params.kind])


def allocate_token_holding(
    day: NetworkDay,
    weights: engine.MethodWeights,
    app: AppDay,
    holding: TokenHolding,
    scope: tuple[str, ...] = engine.NETWORK_SCOPE,
) -> AllocationResult:
    """Holding-based allocation of the app pool by token share.

    An entity holding 10% of the tokens of an app responsible for 50% of the
    network's fees bears 5% of the network transaction pool.
    """
    return _token_result(_app_plan(day, weights, app, Method.HOLDING_BASED, scope), app, holding)


def allocate_app_hybrid(
    day: NetworkDay,
    weights: engine.MethodWeights,
    app: AppDay,
    holding: TokenHolding | None,
    txs: list[TransactionRecord] | tuple[TransactionRecord, ...],
    params: ConsensusParams,
    scope: tuple[str, ...] = engine.NETWORK_SCOPE,
) -> tuple[AllocationResult, ...]:
    """Hybrid allocation within an app, reusing the host network's weights.

    The app pool splits by the network's holding/transaction weights: the
    holding slice is allocated by token share, the transaction slice by the
    app-scoped transaction basis. Apps without a token supply fall back to
    the purely transaction-based route over the full pool; a token holding
    in one raises ``NotAToken``.
    """
    order = engine.BASIS_ORDER[params.kind]
    if app.token_supply is None and holding is None:
        plan = _app_plan(day, weights, app, Method.TRANSACTION_BASED, scope)
        return tuple(_app_transaction_result(plan, app, tx, order) for tx in txs)
    plan = _app_plan(day, weights, app, Method.HYBRID, scope)
    results = [_token_result(plan, app, holding)] if holding is not None else []
    results += [_app_transaction_result(plan, app, tx, order) for tx in txs]
    results.sort(key=AllocationResult.sort_key)
    return tuple(results)
