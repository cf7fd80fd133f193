"""``allocate_portfolio`` against a naive per-record oracle, errors included.

The oracle is written from the methodology alone: per record it derives the
hybrid weight from the day's columns, the entity's share from the basis
hierarchy, replays the audit (``AuditTrail.replay_wh``) and carbonizes; the
period summary is summed record by record. Generated datasets cover PoW and
PoS, all three methods, non-zero lost-coin fractions, days without an
emission factor and filled-forward days. A dataset may carry one fault; the
engine must then raise the oracle's error type with the same message.
"""

import datetime as dt
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carbon_ledger import (
    Activity,
    ActivitySummary,
    AllocationResult,
    AuditTrail,
    BasisUnavailable,
    Carbon,
    CoinAmount,
    Consensus,
    ConsensusParams,
    Energy,
    HoldingRecord,
    Method,
    MissingDay,
    NetworkDay,
    NoTransactions,
    PeriodSummary,
    Portfolio,
    Share,
    ShareOverflow,
    TransactionRecord,
    allocate_portfolio,
    fill_forward,
)
from carbon_ledger.model import carbonize

START = dt.date(2022, 3, 1)
FAULTS = (None, "holding_overflow", "transaction_overflow", "no_transactions", "no_basis", "missing_day")


def _decimal(rng: random.Random, high: Fraction, places: int) -> Fraction:
    """Uniform decimal in [0, high] with ``places`` fractional digits."""
    scale = 10**places
    return Fraction(rng.randint(0, int(high * scale)), scale)


def _day(rng: random.Random, kind: Consensus, date: dt.date, idle: bool) -> NetworkDay:
    tx_count = 0 if idle else rng.randint(50, 10**6)
    gas = None if rng.random() < 0.3 else Fraction(0 if idle else rng.randint(10**6, 10**11))
    fees = Fraction(0 if idle else rng.randint(0, 10**10), 10**8)
    common = dict(
        date=date,
        energy=Energy(Fraction(rng.randint(1, 10**15), 10**6)),
        coin_supply=CoinAmount(Fraction(rng.randint(10**8, 10**16), 10**8)),
        tx_count=tx_count,
        lost_coin_fraction=Share(Fraction(rng.choice((0, rng.randint(1, 400_000))), 10**6)),
        gas_total=gas,
        emission_factor=None if rng.random() < 0.3 else Fraction(rng.randint(0, 10**9), 10**6),
    )
    if kind is Consensus.POW:
        reward = Fraction(rng.randint(1 if fees == 0 else 0, 10**11), 10**8)
        return NetworkDay(block_reward=CoinAmount(reward), tx_fees_total=CoinAmount(fees), **common)
    share = Fraction(0 if idle else rng.randint(0, 10**6), 10**6)
    fee_total = None if rng.random() < 0.5 else CoinAmount(fees)
    return NetworkDay(tx_fees_total=fee_total, pos_tx_share=Share(share), **common)


def build(kind: Consensus, method: Method, day_count: int, entities: int, fault: str | None, seed: int):
    """Days, consensus, portfolio and method of one generated dataset."""
    rng = random.Random(seed)
    dates = [START + dt.timedelta(days=i) for i in range(day_count)]
    idle_date = dates[-1] if fault == "no_transactions" else None
    # every day but the first may be missing from the telemetry; fill-forward supplies it
    telemetry = [
        _day(rng, kind, date, date == idle_date)
        for index, date in enumerate(dates)
        if index == 0 or date == idle_date or rng.random() < 0.7
    ]
    days = fill_forward(telemetry, set(dates))

    holdings, transactions = [], []
    for day in days:
        for entity in range(entities):
            if rng.random() < 0.2:
                continue
            name = f"e{entity}"
            limit = day.effective_supply() / entities
            holdings.append(HoldingRecord(name, day.date, CoinAmount(_decimal(rng, limit, 8))))
            if day.tx_count == 0 and fault != "no_transactions":
                continue
            fee = _decimal(rng, day.tx_fees_total.value / entities, 8) if day.tx_fees_total else None
            gas = _decimal(rng, day.gas_total / entities, 0) if day.gas_total is not None else None
            count = max(1, day.tx_count // entities) if rng.random() < 0.5 else None
            if fee is None and gas is None and count is None:
                count = 1
            fee = CoinAmount(fee) if fee is not None else None
            transactions.append(TransactionRecord(name, day.date, fee, gas, count))

    last = days[-1]
    if fault == "holding_overflow":
        holdings.append(HoldingRecord("big", last.date, CoinAmount(last.effective_supply() + 1)))
    elif fault == "transaction_overflow":
        fee = CoinAmount(last.tx_fees_total.value + 1) if last.tx_fees_total is not None else None
        gas = last.gas_total + 1 if last.gas_total is not None else None
        transactions.append(TransactionRecord("big", last.date, fee, gas, last.tx_count + 1))
    elif fault == "no_transactions":
        transactions.append(TransactionRecord("idle", last.date, tx_count=1))
    elif fault == "no_basis":
        days = days[:-1] + (replace(last, gas_total=None),)
        transactions.append(TransactionRecord("gas-only", last.date, gas_used=Fraction(1)))
    elif fault == "missing_day":
        holdings.append(HoldingRecord("early", START - dt.timedelta(days=1), CoinAmount(0)))
    rng.shuffle(holdings)
    rng.shuffle(transactions)
    portfolio = Portfolio("net", tuple(holdings), tuple(transactions))
    return days, ConsensusParams(kind), portfolio, method


@st.composite
def scenarios(draw):
    return build(
        draw(st.sampled_from(Consensus)),
        draw(st.sampled_from(Method)),
        draw(st.integers(1, 5)),
        draw(st.integers(1, 4)),
        draw(st.sampled_from(FAULTS)),
        draw(st.integers(0, 2**32)),
    )


def _weights(day: NetworkDay, kind: Consensus) -> tuple[Fraction, str]:
    """Transaction weight of the hybrid split and its source."""
    if kind is Consensus.POW:
        fees = day.tx_fees_total.value
        return fees / (fees + day.block_reward.value), "fee_share"
    return day.pos_tx_share.value, "pos_tx_share"


def _transaction_share(day: NetworkDay, tx: TransactionRecord, kind: Consensus) -> tuple[str, Fraction]:
    totals = {
        "fee": day.tx_fees_total.value if day.tx_fees_total is not None else None,
        "gas": day.gas_total,
        "count": Fraction(day.tx_count),
    }
    quantities = {
        "fee": tx.fee_paid.value if tx.fee_paid is not None else None,
        "gas": tx.gas_used,
        "count": Fraction(tx.tx_count) if tx.tx_count is not None else None,
    }
    order = ("fee", "gas", "count") if kind is Consensus.POW else ("gas", "fee", "count")
    for basis in order:
        quantity, total = quantities[basis], totals[basis]
        if quantity is None or not total:
            continue
        if quantity > total:
            raise ShareOverflow(f"{tx.entity_id}: {basis} quantity {quantity} exceeds total {total}")
        return basis, quantity / total
    raise BasisUnavailable(f"{tx.entity_id} on {tx.date}: no fee, gas, or count basis can be formed")


def _oracle_result(day, kind, method, scope, activity, entity_id, share, basis) -> AllocationResult:
    factors, source = (), None
    if method is Method.HYBRID:
        tx_weight, source = _weights(day, kind)
        weight = 1 - tx_weight if activity is Activity.HOLDING else tx_weight
        factors = ((f"{activity.value}_weight", weight),)
    audit = AuditTrail(scope, day.energy.wh, factors, share, basis, source, day.filled_forward)
    energy = Energy(audit.replay_wh())
    carbon = carbonize(energy, day.emission_factor) if day.emission_factor is not None else None
    return AllocationResult(entity_id, day.date, method, activity, energy, audit, carbon)


def _oracle_summary(results, activity) -> ActivitySummary | None:
    subset = [r for r in results if r.activity is activity]
    if not subset:
        return None
    first_by_day = {}
    share_sum = Fraction(0)
    for r in subset:
        first_by_day.setdefault(r.date, r)
        share_sum += r.audit.entity_share
    days = len(first_by_day)
    total = sum((r.energy.wh for r in subset), Fraction(0))
    mean_pool = sum((r.audit.pool_wh for r in first_by_day.values()), Fraction(0)) / days
    carbons = [r.carbon.grams for r in subset if r.carbon is not None]
    return ActivitySummary(
        activity=activity,
        result_count=len(subset),
        days_covered=days,
        total_energy=Energy(total),
        daily_mean_energy=Energy(total / days),
        mean_pool=Energy(mean_pool),
        mean_daily_share=share_sum / days,
        ratio_of_averages_energy=Energy(mean_pool * (share_sum / days)),
        total_carbon=Carbon(sum(carbons, Fraction(0))) if carbons else None,
    )


def oracle(days, params, portfolio, method):
    by_date = {day.date: day for day in days}
    uncovered = {r.date for r in portfolio.holdings + portfolio.transactions if r.date not in by_date}
    if uncovered:
        raise MissingDay(uncovered)
    scope = (f"network:{portfolio.network_id}",)
    results = []
    if method is not Method.TRANSACTION_BASED:
        for holding in portfolio.holdings:
            day = by_date[holding.date]
            supply = day.coin_supply.value * (1 - day.lost_coin_fraction.value)
            amount = holding.amount.value
            if amount > supply:
                net = f"coin supply net of lost coins {supply} on {day.date}"
                raise ShareOverflow(f"{holding.entity_id}: amount {amount} exceeds {net}", "amount")
            results.append(
                _oracle_result(
                    day, params.kind, method, scope, Activity.HOLDING, holding.entity_id, amount / supply, "holding"
                )
            )
    if method is not Method.HOLDING_BASED:
        for tx in portfolio.transactions:
            day = by_date[tx.date]
            if day.tx_count == 0:
                raise NoTransactions(f"{day.date}: transaction record exists but the day reports none")
            basis, share = _transaction_share(day, tx, params.kind)
            results.append(
                _oracle_result(day, params.kind, method, scope, Activity.TRANSACTION, tx.entity_id, share, basis)
            )
    results.sort(key=lambda r: (r.date, r.entity_id, r.activity.value))
    summary = PeriodSummary(
        method, _oracle_summary(results, Activity.HOLDING), _oracle_summary(results, Activity.TRANSACTION)
    )
    return tuple(results), summary


ERRORS = (MissingDay, ShareOverflow, NoTransactions, BasisUnavailable)


def check_against_oracle(days, params, portfolio, method):
    """Assert the engine's results or error equal the oracle's; return the oracle's error."""
    try:
        expected = oracle(days, params, portfolio, method)
    except ERRORS as error:
        with pytest.raises(ERRORS) as raised:
            allocate_portfolio(days, params, portfolio, method)
        assert type(raised.value) is type(error)
        assert str(raised.value) == str(error)
        return error
    allocation = allocate_portfolio(days, params, portfolio, method)
    assert allocation.results == expected[0]
    assert allocation.summary == expected[1]
    return None


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_allocate_portfolio_matches_oracle(scenario):
    check_against_oracle(*scenario)


@pytest.mark.parametrize("kind", list(Consensus))
@pytest.mark.parametrize(
    "fault, error",
    [
        ("holding_overflow", ShareOverflow),
        ("transaction_overflow", ShareOverflow),
        ("no_transactions", NoTransactions),
        ("no_basis", BasisUnavailable),
        ("missing_day", MissingDay),
    ],
)
def test_each_fault_raises_the_oracle_error(kind, fault, error):
    raised = check_against_oracle(*build(kind, Method.HYBRID, 3, 3, fault, seed=5))
    assert type(raised) is error


@pytest.mark.parametrize("kind", list(Consensus))
@pytest.mark.parametrize("method", list(Method))
def test_filled_forward_lossy_days_match_oracle(kind, method):
    days, params, portfolio, method = build(kind, method, 5, 3, None, seed=0)
    assert any(day.filled_forward for day in days)
    assert any(day.lost_coin_fraction.value for day in days)
    assert {day.emission_factor is None for day in days} == {True, False}
    assert check_against_oracle(days, params, portfolio, method) is None
