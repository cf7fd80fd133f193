"""App and token allocation: pools, the three routes, and no-double-counting."""

import datetime as dt
import random
from fractions import Fraction

import pytest

from carbon_ledger import (
    AppDay,
    CoinAmount,
    Method,
    NoTransactions,
    NotAToken,
    ShareOverflow,
    TokenHolding,
    TransactionRecord,
    allocate_app_hybrid,
    allocate_app_transaction,
    allocate_token_holding,
    app_pool,
    method_weights,
    transaction_pool,
    unattributed_remainder,
)
from conftest import POS, POW, frac, pos_day, pow_day

D1 = dt.date(2021, 1, 1)


def make_app(share="0.5", supply="1000000", tx_count=10000, date=D1):
    return AppDay(
        app_id="uniswap",
        date=date,
        app_fee_share=frac_share(share),
        app_tx_count=tx_count,
        token_supply=CoinAmount(frac(supply)) if supply is not None else None,
    )


def frac_share(token):
    from carbon_ledger import Share

    return Share(frac(token))


class TestAppPool:
    def test_zero_share(self, btc_day):
        weights = method_weights(btc_day, POW)
        assert app_pool(btc_day, weights, make_app(share="0")).wh == 0

    def test_direct_product(self):
        day = pow_day(energy="1000000", fees="50", reward="50")
        weights = method_weights(day, POW)
        # transaction pool is 500000 Wh; the app takes half of it
        assert app_pool(day, weights, make_app(share="0.5")).wh == frac("250000")

    def test_pools_sum_to_transaction_pool(self, btc_day):
        weights = method_weights(btc_day, POW)
        rng = random.Random(7)
        shares = [Fraction(rng.randint(0, 10**4), 10**5) for _ in range(9)]
        shares.append(1 - sum(shares))
        apps = [
            AppDay(f"app{i}", D1, frac_share(s), 100) for i, s in enumerate(shares)
        ]
        total = sum((app_pool(btc_day, weights, a).wh for a in apps), Fraction(0))
        assert total == transaction_pool(btc_day, weights).wh
        assert unattributed_remainder(btc_day, weights, apps).wh == 0

    def test_remainder_completes_pool(self, btc_day):
        weights = method_weights(btc_day, POW)
        apps = [make_app(share="0.3"), make_app(share="0.25")]
        claimed = sum((app_pool(btc_day, weights, a).wh for a in apps), Fraction(0))
        remainder = unattributed_remainder(btc_day, weights, apps).wh
        assert claimed + remainder == transaction_pool(btc_day, weights).wh

    def test_over_claimed_pool_is_a_share_overflow(self, btc_day):
        weights = method_weights(btc_day, POW)
        apps = [make_app(share="0.75"), make_app(share="0.5")]
        with pytest.raises(ShareOverflow, match=r"^2021-01-01: app fee shares sum to 5/4 > 1$") as caught:
            unattributed_remainder(btc_day, weights, apps)
        assert caught.value.column == "app_fee_share"


class TestAppTransaction:
    def test_single_app_tx_takes_full_pool(self, btc_day):
        weights = method_weights(btc_day, POW)
        app = make_app(tx_count=1)
        tx = TransactionRecord("bob", D1, tx_count=1)
        result = allocate_app_transaction(btc_day, weights, app, tx, POW)
        assert result.energy.wh == app_pool(btc_day, weights, app).wh

    def test_one_percent_of_app_fees(self, btc_day):
        weights = method_weights(btc_day, POW)
        app = make_app(share="0.5")
        app_fee_total = btc_day.tx_fees_total.value * frac("0.5")
        tx = TransactionRecord("bob", D1, fee_paid=CoinAmount(app_fee_total / 100))
        result = allocate_app_transaction(btc_day, weights, app, tx, POW)
        assert result.energy.wh == app_pool(btc_day, weights, app).wh / 100
        assert result.audit.entity_basis == "fee"

    def test_zero_app_transactions_guard(self, btc_day):
        weights = method_weights(btc_day, POW)
        app = make_app(tx_count=0)
        tx = TransactionRecord("bob", D1, tx_count=1)
        with pytest.raises(NoTransactions):
            allocate_app_transaction(btc_day, weights, app, tx, POW)

    def test_pos_app_uses_gas_basis(self):
        day = pos_day(gas="1000000")
        weights = method_weights(day, POS)
        app = make_app(share="0.5", tx_count=100, date=day.date)
        tx = TransactionRecord("bob", day.date, gas_used=frac("5000"))
        result = allocate_app_transaction(day, weights, app, tx, POS)
        assert result.audit.entity_basis == "gas"
        # app gas total is 500000; entity used 5000 of it
        assert result.audit.entity_share == Fraction(5000, 500000)


class TestTokenHolding:
    def test_ten_percent_of_half_is_five_percent(self, btc_day):
        weights = method_weights(btc_day, POW)
        app = make_app(share="0.5", supply="1000")
        holding = TokenHolding("alice", "uniswap", D1, CoinAmount(frac("100")))
        result = allocate_token_holding(btc_day, weights, app, holding)
        network_tx_pool = transaction_pool(btc_day, weights).wh
        assert result.energy.wh == network_tx_pool * frac("0.05")

    def test_full_token_supply(self, btc_day):
        weights = method_weights(btc_day, POW)
        app = make_app(supply="1000")
        holding = TokenHolding("alice", "uniswap", D1, CoinAmount(frac("1000")))
        result = allocate_token_holding(btc_day, weights, app, holding)
        assert result.energy.wh == app_pool(btc_day, weights, app).wh

    def test_zero_tokens(self, btc_day):
        weights = method_weights(btc_day, POW)
        holding = TokenHolding("alice", "uniswap", D1, CoinAmount(frac("0")))
        result = allocate_token_holding(btc_day, weights, make_app(), holding)
        assert result.energy.wh == 0

    def test_not_a_token(self, btc_day):
        weights = method_weights(btc_day, POW)
        app = make_app(supply=None)
        holding = TokenHolding("alice", "uniswap", D1, CoinAmount(frac("1")))
        with pytest.raises(NotAToken):
            allocate_token_holding(btc_day, weights, app, holding)

    def test_amount_beyond_supply(self, btc_day):
        weights = method_weights(btc_day, POW)
        app = make_app(supply="1000")
        holding = TokenHolding("alice", "uniswap", D1, CoinAmount(frac("1001")))
        with pytest.raises(ShareOverflow):
            allocate_token_holding(btc_day, weights, app, holding)

    def test_linearity_in_amount(self, btc_day):
        weights = method_weights(btc_day, POW)
        app = make_app(supply="1000")
        single = allocate_token_holding(
            btc_day, weights, app, TokenHolding("a", "uniswap", D1, CoinAmount(frac("7")))
        )
        double = allocate_token_holding(
            btc_day, weights, app, TokenHolding("a", "uniswap", D1, CoinAmount(frac("14")))
        )
        assert double.energy.wh == 2 * single.energy.wh


class TestAppHybrid:
    def test_host_weights_compose(self):
        # network weights 0.734/0.266; entity holds 10% of tokens, no app txs
        day = pow_day(energy="1000000000", fees="266", reward="734")
        weights = method_weights(day, POW)
        app = make_app(share="0.5", supply="1000")
        holding = TokenHolding("alice", "uniswap", D1, CoinAmount(frac("100")))
        results = allocate_app_hybrid(day, weights, app, holding, (), POW)
        assert len(results) == 1
        pool = app_pool(day, weights, app).wh
        assert results[0].energy.wh == frac("0.10") * frac("0.734") * pool
        assert results[0].method is Method.HYBRID

    def test_holding_boundary_reduces_to_token_holding(self):
        day = pow_day(fees="0", reward="10", tx_count=0)
        weights = method_weights(day, POW)
        app = make_app(supply="1000", tx_count=0)
        holding = TokenHolding("alice", "uniswap", D1, CoinAmount(frac("100")))
        hybrid = allocate_app_hybrid(day, weights, app, holding, (), POW)
        pure = allocate_token_holding(day, weights, app, holding)
        assert hybrid[0].energy.wh == pure.energy.wh

    def test_transaction_boundary_reduces_to_app_transaction(self):
        day = pow_day(fees="10", reward="0")
        weights = method_weights(day, POW)
        app = make_app(supply="1000")
        tx = TransactionRecord("bob", D1, tx_count=3)
        hybrid = allocate_app_hybrid(day, weights, app, None, (tx,), POW)
        pure = allocate_app_transaction(day, weights, app, tx, POW)
        assert hybrid[0].energy.wh == pure.energy.wh

    def test_fallback_without_token_supply(self, btc_day):
        weights = method_weights(btc_day, POW)
        app = make_app(supply=None)
        txs = (
            TransactionRecord("bob", D1, tx_count=2),
            TransactionRecord("cara", D1, tx_count=1),
        )
        fallback = allocate_app_hybrid(btc_day, weights, app, None, txs, POW)
        pure = tuple(allocate_app_transaction(btc_day, weights, app, t, POW) for t in txs)
        assert [r.energy.wh for r in fallback] == [r.energy.wh for r in pure]
        assert [r.audit for r in fallback] == [r.audit for r in pure]

    def test_fallback_rejects_token_holding(self, btc_day):
        weights = method_weights(btc_day, POW)
        app = make_app(supply=None)
        holding = TokenHolding("alice", "uniswap", D1, CoinAmount(frac("1")))
        with pytest.raises(NotAToken):
            allocate_app_hybrid(btc_day, weights, app, holding, (), POW)

    def test_within_app_slices_close(self, btc_day):
        # full token supply plus all app transactions reconstruct the app pool
        weights = method_weights(btc_day, POW)
        app = make_app(share="0.4", supply="1000", tx_count=10)
        holding = TokenHolding("alice", "uniswap", D1, CoinAmount(frac("1000")))
        txs = tuple(TransactionRecord(f"e{i}", D1, tx_count=1) for i in range(10))
        results = allocate_app_hybrid(btc_day, weights, app, holding, txs, POW)
        total = sum((r.energy.wh for r in results), Fraction(0))
        assert total == app_pool(btc_day, weights, app).wh

    def test_audit_scope_marks_app(self, btc_day):
        weights = method_weights(btc_day, POW)
        app = make_app(supply="1000")
        holding = TokenHolding("alice", "uniswap", D1, CoinAmount(frac("1")))
        result = allocate_token_holding(btc_day, weights, app, holding)
        assert result.audit.scope == ("network", "app:uniswap")
        assert result.audit.replay_wh() == result.energy.wh


class TestWeightsDate:
    """Every app route refuses another day's weights, with network allocation's error."""

    @pytest.mark.parametrize(
        "route", ["transaction", "token", "hybrid", "hybrid_without_token", "pool", "remainder"]
    )
    def test_other_day_weights_rejected(self, btc_day, route):
        other = method_weights(pow_day(date=D1 + dt.timedelta(days=1)), POW)
        app, tokenless = make_app(supply="1000"), make_app(supply=None)
        tx = TransactionRecord("bob", D1, tx_count=1)
        holding = TokenHolding("alice", "uniswap", D1, CoinAmount(frac("1")))
        calls = {
            "transaction": lambda: allocate_app_transaction(btc_day, other, app, tx, POW),
            "token": lambda: allocate_token_holding(btc_day, other, app, holding),
            "hybrid": lambda: allocate_app_hybrid(btc_day, other, app, holding, (tx,), POW),
            "hybrid_without_token": lambda: allocate_app_hybrid(btc_day, other, tokenless, None, (tx,), POW),
            "pool": lambda: app_pool(btc_day, other, app),
            "remainder": lambda: unattributed_remainder(btc_day, other, (app,)),
        }
        with pytest.raises(ValueError, match=r"^weights are for 2021-01-02, day is 2021-01-01$"):
            calls[route]()


class TestAppInputsChecked:
    def test_app_day_of_another_date_rejected(self, btc_day):
        weights = method_weights(btc_day, POW)
        app = make_app(supply="1000", date=D1 + dt.timedelta(days=1))
        tx = TransactionRecord("bob", D1, tx_count=1)
        holding = TokenHolding("alice", "uniswap", D1, CoinAmount(frac("1")))
        message = r"^app day 2021-01-02 does not match network day 2021-01-01$"
        for call in (
            lambda: allocate_app_transaction(btc_day, weights, app, tx, POW),
            lambda: allocate_token_holding(btc_day, weights, app, holding),
            lambda: allocate_app_hybrid(btc_day, weights, app, holding, (tx,), POW),
            lambda: app_pool(btc_day, weights, app),
            lambda: unattributed_remainder(btc_day, weights, (app,)),
        ):
            with pytest.raises(ValueError, match=message):
                call()

    def test_hybrid_without_weights_is_the_engine_error(self, btc_day):
        app = make_app(supply="1000")
        holding = TokenHolding("alice", "uniswap", D1, CoinAmount(frac("1")))
        with pytest.raises(ValueError, match=r"^hybrid allocation requires method weights$"):
            allocate_app_hybrid(btc_day, None, app, holding, (), POW)

    def test_token_holding_of_another_app_rejected(self, btc_day):
        weights = method_weights(btc_day, POW)
        app = make_app(supply="1000")
        holding = TokenHolding("alice", "sushiswap", D1, CoinAmount(frac("1")))
        with pytest.raises(ValueError, match=r"^token holding is for app 'sushiswap', not 'uniswap'$"):
            allocate_token_holding(btc_day, weights, app, holding)
        with pytest.raises(ValueError, match="sushiswap"):
            allocate_app_hybrid(btc_day, weights, app, holding, (), POW)
