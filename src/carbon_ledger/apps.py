"""Allocation of a network's transaction pool to layer-1 applications and tokens.

Applications draw exclusively from the transaction pool (their base unit is
the transaction fee on PoW, gas on PoS), never from the holding pool, so
registering apps cannot double-count against coin holders. Within an app
three routes exist: pure transaction-based, token-holding-based, and a hybrid
that reuses the host network's weights. Apps are an overlay, not a partition:
whatever share of the pool no app claims stays allocated at the network level.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, replace
from fractions import Fraction

from . import engine
from .errors import ArgumentMismatch, NoTransactions, NotAToken, RowProblem, ShareOverflow
from .model import (
    Activity,
    AllocationResult,
    CoinAmount,
    Consensus,
    ConsensusParams,
    Energy,
    Method,
    NetworkDay,
    Share,
    TransactionRecord,
)


@dataclass(frozen=True, slots=True)
class AppDay:
    """One day of telemetry for a layer-1 application.

    ``app_fee_share`` is the app's share of the day's total network
    transaction fees (PoW) or gas (PoS) and is ingested data, not recomputed
    from chain indexing. ``token_supply`` is absent for apps without a token;
    NFT collections use the number of distinct items.
    """

    app_id: str
    date: _dt.date
    app_fee_share: Share
    app_tx_count: int
    token_supply: CoinAmount | None = None

    def __post_init__(self):
        if self.app_tx_count < 0:
            raise RowProblem("app_tx_count", "must be >= 0")
        if self.token_supply is not None and self.token_supply.value.numerator <= 0:
            raise RowProblem("token_supply", "must be > 0 when present")


@dataclass(frozen=True, slots=True)
class TokenHolding:
    """An entity's average token balance in one app over one UTC day."""

    entity_id: str
    app_id: str
    date: _dt.date
    amount: CoinAmount


def _check_app_day(app: AppDay, day: NetworkDay) -> None:
    if app.date != day.date:
        raise ArgumentMismatch(f"app day {app.date} does not match network day {day.date}")


def app_pool(day: NetworkDay, weights: engine.MethodWeights, app: AppDay) -> Energy:
    """The app's slice of the day's transaction pool."""
    return Energy(_app_plan(day, weights, app, Method.TRANSACTION_BASED, engine.NETWORK_SCOPE).transaction.wh)


def unattributed_remainder(
    day: NetworkDay, weights: engine.MethodWeights, apps: list[AppDay] | tuple[AppDay, ...]
) -> Energy:
    """Transaction-pool energy claimed by no registered app; stays at network level."""
    pool = engine.plan_day(day, weights, Method.HYBRID).transaction.wh
    claimed = Fraction(0)
    for app in apps:
        _check_app_day(app, day)
        claimed += app.app_fee_share.value
    if claimed > 1:
        raise ShareOverflow(f"{day.date}: app fee shares sum to {claimed} > 1", "app_fee_share")
    return Energy(pool * (1 - claimed))


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
    _check_app_day(app, day)
    hybrid = method is Method.HYBRID
    holding_factors = (("app_holding_weight", weights.holding_weight.value),) if hybrid else ()
    transaction_factors = (("app_transaction_weight", weights.transaction_weight.value),) if hybrid else ()
    fee_share = app.app_fee_share.value
    app_pool = plan.transaction.narrowed((("app_fee_share", fee_share),))
    return replace(
        plan,
        method=method,
        holding=app_pool.narrowed(holding_factors),
        transaction=app_pool.narrowed(transaction_factors),
        fee_total=plan.fee_total * fee_share if plan.fee_total is not None else None,
        gas_total=plan.gas_total * fee_share if plan.gas_total is not None else None,
        count_total=app.app_tx_count,
    )


def _app_transaction_result(
    plan: engine.DayPlan, app: AppDay, tx: TransactionRecord, kind: Consensus
) -> AllocationResult:
    """Entity share of the app's own activity, on the app-scoped basis."""
    if tx.date != plan.day.date:
        raise ArgumentMismatch(f"transaction dated {tx.date} does not match day {plan.day.date}")
    if app.app_tx_count == 0:
        raise NoTransactions(
            f"{app.app_id} on {app.date}: transaction record exists but the app reports none"
        )
    return engine.transaction_result(plan, tx, kind)


def _token_result(plan: engine.DayPlan, app: AppDay, holding: TokenHolding) -> AllocationResult:
    if holding.date != plan.day.date:
        raise ArgumentMismatch(f"token holding dated {holding.date} does not match day {plan.day.date}")
    if holding.app_id != app.app_id:
        raise ArgumentMismatch(f"token holding is for app {holding.app_id!r}, not {app.app_id!r}")
    if app.token_supply is None:
        raise NotAToken(f"{app.app_id} has no token supply; use transaction-based allocation")
    amount, supply = holding.amount.value, app.token_supply.value
    quantity, total = amount.numerator * supply.denominator, amount.denominator * supply.numerator
    if quantity > total:
        raise ShareOverflow(f"{holding.entity_id}: token amount {amount} exceeds supply {supply}")
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
    return _app_transaction_result(plan, app, tx, params.kind)


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
    the purely transaction-based route over the full pool.
    """
    if app.token_supply is None:
        if holding is not None:
            raise NotAToken(
                f"{app.app_id} has no token supply; token holdings cannot be allocated"
            )
        plan = _app_plan(day, weights, app, Method.TRANSACTION_BASED, scope)
        return tuple(_app_transaction_result(plan, app, tx, params.kind) for tx in txs)
    plan = _app_plan(day, weights, app, Method.HYBRID, scope)
    results = [_token_result(plan, app, holding)] if holding is not None else []
    results += [_app_transaction_result(plan, app, tx, params.kind) for tx in txs]
    results.sort(key=AllocationResult.sort_key)
    return tuple(results)
