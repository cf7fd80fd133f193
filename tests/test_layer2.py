"""Layer-2 attribution: inherited footprint, internal reallocation, nesting."""

import datetime as dt
import random
from fractions import Fraction

import pytest

from carbon_ledger import (
    ArgumentMismatch,
    CoinAmount,
    Energy,
    HoldingRecord,
    Layer2Day,
    Method,
    Portfolio,
    Share,
    TransactionRecord,
    allocate_holding,
    allocate_transaction,
    allocate_within_l2,
    l2_inherited,
    l2_total_footprint,
    method_weights,
    synthetic_day,
    transaction_pool,
)
from conftest import POS, POW, frac, pos_day, pow_day, random_pos_day

D1 = dt.date(2021, 1, 1)


def make_l2(
    l1_date=D1,
    l1_fee_share="0.2",
    infra_wh="30000",
    internal=None,
):
    internal = internal if internal is not None else pos_day(date=l1_date, tx_share="0.1")
    return Layer2Day(
        l2_id="polygon",
        date=l1_date,
        l1_fee_share=Share(frac(l1_fee_share)),
        infra_energy=Energy.of(infra_wh),
        internal_day=internal,
    )


class TestTotalFootprint:
    def test_standalone_infra(self, btc_day):
        weights = method_weights(btc_day, POW)
        l2 = make_l2(l1_fee_share="0", infra_wh="12345")
        assert l2_total_footprint(btc_day, weights, l2).wh == frac("12345")

    def test_full_l1_pool(self, btc_day):
        weights = method_weights(btc_day, POW)
        l2 = make_l2(l1_fee_share="1", infra_wh="0")
        assert l2_total_footprint(btc_day, weights, l2).wh == transaction_pool(btc_day, weights).wh

    def test_hand_sum(self):
        # L1 tx pool 100 kWh, 20% share, 30 kWh infra -> 50 kWh
        day = pow_day(energy="200000", fees="50", reward="50")
        weights = method_weights(day, POW)
        l2 = make_l2(l1_fee_share="0.2", infra_wh="30000")
        assert l2_total_footprint(day, weights, l2).wh == frac("50000")

    def test_monotone_in_share_and_infra(self, btc_day):
        weights = method_weights(btc_day, POW)
        base = l2_total_footprint(btc_day, weights, make_l2(l1_fee_share="0.2", infra_wh="10"))
        more_share = l2_total_footprint(
            btc_day, weights, make_l2(l1_fee_share="0.3", infra_wh="10")
        )
        more_infra = l2_total_footprint(
            btc_day, weights, make_l2(l1_fee_share="0.2", infra_wh="20")
        )
        assert more_share.wh > base.wh
        assert more_infra.wh > base.wh

    def test_date_mismatch(self, btc_day):
        weights = method_weights(btc_day, POW)
        l2 = make_l2(l1_date=D1 + dt.timedelta(days=1))
        with pytest.raises(ValueError):
            l2_inherited(btc_day, weights, l2)

    @pytest.mark.parametrize("footprint", [l2_inherited, l2_total_footprint], ids=lambda f: f.__name__)
    def test_refuses_weights_not_of_the_day(self, btc_day, footprint):
        other = method_weights(pow_day(date=D1 + dt.timedelta(days=1), fees="1", reward="3"), POW)
        with pytest.raises(ArgumentMismatch, match=r"^weights are for 2021-01-02, day is 2021-01-01$"):
            footprint(btc_day, other, make_l2())
        with pytest.raises(ArgumentMismatch, match=r"^hybrid allocation requires method weights$"):
            footprint(btc_day, None, make_l2())

    def test_no_double_counting_against_l1(self, btc_day):
        # the inherited slice plus the rest of the transaction pool is exact
        weights = method_weights(btc_day, POW)
        l2 = make_l2(l1_fee_share="0.2")
        inherited = l2_inherited(btc_day, weights, l2).wh
        rest = transaction_pool(btc_day, weights).wh * (1 - frac("0.2"))
        assert inherited + rest == transaction_pool(btc_day, weights).wh


class TestAllocateWithinL2:
    def test_zero_total_allocates_zero(self):
        l2 = make_l2()
        portfolio = Portfolio(
            "polygon",
            holdings=(HoldingRecord("alice", D1, CoinAmount(frac("5"))),),
            transactions=(TransactionRecord("bob", D1, tx_count=1),),
        )
        results = allocate_within_l2(Energy.of("0"), l2, POS, portfolio, Method.HYBRID)
        assert all(r.energy.wh == 0 for r in results)

    def test_hybrid_with_zero_tx_weight_goes_to_holdings(self):
        internal = pos_day(date=D1, tx_share="0", tx_count=0)
        l2 = make_l2(internal=internal)
        portfolio = Portfolio(
            "polygon",
            holdings=(HoldingRecord("alice", D1, CoinAmount(internal.coin_supply.value)),),
        )
        results = allocate_within_l2(Energy.of("50000"), l2, POS, portfolio, Method.HYBRID)
        assert len(results) == 1
        assert results[0].energy.wh == frac("50000")

    def test_conservation_over_random_internal_day(self):
        rng = random.Random(11)
        internal = random_pos_day(rng, D1)
        l2 = make_l2(internal=internal)
        total = Energy.of("987654.321")
        supply = internal.coin_supply.value
        holdings = tuple(
            HoldingRecord(f"h{i}", D1, CoinAmount(part))
            for i, part in enumerate(
                [supply * Fraction(1, 4), supply * Fraction(3, 4)]
            )
        )
        txs = tuple(
            TransactionRecord(f"t{i}", D1, tx_count=part)
            for i, part in enumerate([internal.tx_count - 1, 1])
            if part
        )
        portfolio = Portfolio("polygon", holdings=holdings, transactions=txs)
        results = allocate_within_l2(total, l2, POS, portfolio, Method.HYBRID)
        assert sum((r.energy.wh for r in results), Fraction(0)) == total.wh

    def test_delegation_fidelity(self, btc_day):
        # identical to running the engine on the synthetic day, field for field
        weights = method_weights(btc_day, POW)
        internal = pos_day(date=D1, tx_share="0.25")
        l2 = make_l2(internal=internal)
        total = l2_total_footprint(btc_day, weights, l2)
        holding = HoldingRecord("alice", D1, CoinAmount(frac("10")))
        tx = TransactionRecord("bob", D1, tx_count=3)
        portfolio = Portfolio("polygon", holdings=(holding,), transactions=(tx,))
        delegated = allocate_within_l2(
            total, l2, POS, portfolio, Method.HYBRID, scope=("network:ethereum",)
        )

        day = synthetic_day(total, l2)
        inner_weights = method_weights(day, POS)
        scope = ("network:ethereum", "l2:polygon")
        direct = (
            allocate_holding(day, inner_weights, holding, Method.HYBRID, scope),
            allocate_transaction(day, inner_weights, tx, Method.HYBRID, POS, scope),
        )
        assert delegated == direct

    def test_scope_chain_supports_nesting(self):
        internal = pos_day(date=D1, tx_share="0.25")
        l2 = make_l2(internal=internal)
        portfolio = Portfolio(
            "polygon", holdings=(HoldingRecord("alice", D1, CoinAmount(frac("1"))),)
        )
        results = allocate_within_l2(
            Energy.of("1000"),
            l2,
            POS,
            portfolio,
            Method.HYBRID,
            scope=("network:ethereum", "l2:outer"),
        )
        assert results[0].audit.scope == ("network:ethereum", "l2:outer", "l2:polygon")

    def test_internal_date_must_match(self):
        with pytest.raises(ValueError):
            make_l2(internal=pos_day(date=D1 + dt.timedelta(days=1), tx_share="0.1"))
