"""The hybrid weights and ``validate`` share one set of day rules.

Days are drawn with missing columns, zero miner revenue and days with no
transactions. Every day ``method_weights`` accepts is a day a days row reads
back as; every day it refuses, the row refuses with the same column and
reason. On an accepted day the hybrid plan's two pools add up to the day's
energy exactly, and a day with no transactions leaves its transaction pool
empty, so every pool the weights open can be claimed.
"""

import datetime as dt
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carbon_ledger import (
    CoinAmount,
    Energy,
    MalformedDay,
    Method,
    MissingColumn,
    NetworkDay,
    RowProblem,
    Share,
    method_weights,
)
from carbon_ledger.engine import plan_day
from carbon_ledger.ingestion import day_from_fields, day_to_fields
from conftest import POS, POW

decimals = st.builds(
    lambda m, p: Fraction(m, 10**p),
    st.integers(min_value=0, max_value=10**12),
    st.integers(min_value=0, max_value=6),
)
amounts = st.just(Fraction(0)) | decimals  # zero often, for zero-revenue days
shares = st.builds(lambda m: Fraction(m, 10**6), st.integers(min_value=0, max_value=10**6))


def optional(values):
    """``values`` or, about one time in four, None (a missing column)."""
    return st.integers(min_value=0, max_value=3).flatmap(lambda i: values if i else st.none())


@st.composite
def days(draw):
    """A day of either consensus that may lack any weighting column, with a third of them having no transactions."""
    tx_count = draw(st.integers(min_value=0, max_value=2).flatmap(lambda i: st.integers(1, 10**6) if i else st.just(0)))
    spent = amounts if tx_count else st.just(Fraction(0))  # the type refuses fees or gas on a day with no transactions
    day = NetworkDay(
        date=dt.date(2021, 1, 1),
        energy=Energy(draw(decimals)),
        coin_supply=CoinAmount(draw(decimals) + 1),
        tx_count=tx_count,
        block_reward=draw(optional(st.builds(CoinAmount, amounts))),
        tx_fees_total=draw(optional(st.builds(CoinAmount, spent))),
        gas_total=draw(optional(spent)),
        pos_tx_share=draw(optional(st.builds(Share, st.just(Fraction(0)) | shares))),
    )
    return day, draw(st.sampled_from([POW, POS]))


@settings(max_examples=300, deadline=None)
@given(days())
def test_the_weights_accept_exactly_the_days_a_row_accepts(case):
    day, params = case
    try:
        weights = method_weights(day, params)
    except (MissingColumn, MalformedDay) as refused:
        with pytest.raises(RowProblem) as row:
            day_from_fields(day_to_fields(day), params)
        assert str(refused) == f"{day.date}: {row.value}"
        return
    assert day_from_fields(day_to_fields(day), params) == day
    plan = plan_day(day, weights, Method.HYBRID)
    assert plan.holding.wh + plan.transaction.wh == day.energy.wh
    if day.tx_count == 0:
        assert plan.transaction.wh == 0
