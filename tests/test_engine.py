"""Allocation engine: weights, pools, per-record and portfolio allocation."""

import datetime as dt
import math
from fractions import Fraction

import pytest

from carbon_ledger import (
    Activity,
    AllocationResult,
    ArgumentMismatch,
    BasisUnavailable,
    CoinAmount,
    HoldingRecord,
    MalformedDay,
    Method,
    MissingColumn,
    MissingDay,
    NoTransactions,
    Portfolio,
    Share,
    ShareOverflow,
    TransactionRecord,
    allocate_holding,
    allocate_portfolio,
    allocate_transaction,
    fee_share,
    holding_pool,
    method_weights,
    transaction_pool,
)
from carbon_ledger.engine import MethodWeights
from conftest import POS, POW, bitcoin_2021_days, frac, pos_day, pow_day

D1 = dt.date(2021, 1, 1)


class TestFeeShare:
    def test_no_fee_day(self):
        assert fee_share(pow_day(fees="0", reward="6.25", tx_count=0)).value == 0

    def test_simple_ratio(self):
        assert fee_share(pow_day(fees="0.5", reward="9.5")).value == Fraction(5, 100)

    def test_bitcoin_2021_average(self):
        # 6.01% annual average reproduced by every constant day
        days = bitcoin_2021_days()
        shares = {fee_share(d).value for d in days}
        assert shares == {Fraction(601, 10000)}

    def test_missing_columns(self):
        with pytest.raises(MissingColumn):
            fee_share(pos_day())

    def test_zero_revenue_defensive(self):
        day = pow_day(reward="0", fees="0", tx_count=0)
        with pytest.raises(MalformedDay):
            fee_share(day)


class TestMethodWeights:
    def test_pow_no_fees_boundary(self):
        weights = method_weights(pow_day(fees="0", reward="10", tx_count=0), POW)
        assert weights.holding_weight.value == 1
        assert weights.transaction_weight.value == 0

    def test_pos_share_passthrough(self):
        weights = method_weights(pos_day(tx_share="0.022"), POS)
        assert weights.transaction_weight.value == frac("0.022")
        assert weights.holding_weight.value == frac("0.978")
        assert weights.source == "pos_tx_share"

    def test_pow_fees_equal_reward(self):
        weights = method_weights(pow_day(fees="5", reward="5"), POW)
        assert weights.holding_weight.value == Fraction(1, 2)
        assert weights.transaction_weight.value == Fraction(1, 2)

    def test_pos_missing_share(self):
        with pytest.raises(MissingColumn):
            method_weights(pow_day(), POS)

    def test_weights_must_close(self):
        with pytest.raises(ValueError):
            MethodWeights(D1, Share(frac("0.5")), Share(frac("0.4")), "fee_share")


class TestPools:
    def test_degenerate_weights(self):
        day = pow_day(energy="100000", fees="0", reward="10", tx_count=0)
        weights = method_weights(day, POW)
        assert holding_pool(day, weights).wh == frac("100000")
        assert transaction_pool(day, weights).wh == 0

    def test_exact_products(self):
        # 283.75 GWh split 0.9399/0.0601; oracle: independent multiplication
        day = pow_day(energy="283750000000", fees="60.1", reward="939.9")
        weights = method_weights(day, POW)
        assert holding_pool(day, weights).wh == frac("283750000000") * frac("0.9399")
        assert transaction_pool(day, weights).wh == frac("283750000000") * frac("0.0601")

    def test_zero_energy(self):
        day = pow_day(energy="0")
        weights = method_weights(day, POW)
        assert holding_pool(day, weights).wh == 0
        assert transaction_pool(day, weights).wh == 0

    def test_pools_sum_to_day_energy(self, btc_day):
        weights = method_weights(btc_day, POW)
        total = holding_pool(btc_day, weights).wh + transaction_pool(btc_day, weights).wh
        assert total == btc_day.energy.wh

    @pytest.mark.parametrize("pool", [holding_pool, transaction_pool], ids=lambda f: f.__name__)
    def test_pool_refuses_weights_not_of_the_day(self, btc_day, pool):
        other = method_weights(pow_day(date=D1 + dt.timedelta(days=1), fees="1", reward="3"), POW)
        with pytest.raises(ArgumentMismatch, match=r"^weights are for 2021-01-02, day is 2021-01-01$"):
            pool(btc_day, other)
        with pytest.raises(ArgumentMismatch, match=r"^hybrid allocation requires method weights$"):
            pool(btc_day, None)


class TestAllocateHolding:
    def test_whole_network_holder(self, btc_day):
        holding = HoldingRecord("whale", D1, btc_day.coin_supply)
        result = allocate_holding(btc_day, None, holding, Method.HOLDING_BASED)
        assert result.energy.wh == btc_day.energy.wh

    def test_one_coin_matches_published_cell(self, btc_day):
        # oracle: division of the day energy by the supply
        holding = HoldingRecord("alice", D1, CoinAmount(Fraction(1)))
        result = allocate_holding(btc_day, None, holding, Method.HOLDING_BASED)
        expected = btc_day.energy.wh / frac("18716000")
        assert result.energy.wh == expected
        # lands within 0.05% of the published 15.16 kWh
        assert abs(result.energy.value_in("kWh") - frac("15.16")) / frac("15.16") < frac("0.0005")

    def test_hybrid_is_pure_times_weight(self, btc_day):
        holding = HoldingRecord("alice", D1, CoinAmount(Fraction(1)))
        weights = method_weights(btc_day, POW)
        pure = allocate_holding(btc_day, weights, holding, Method.HOLDING_BASED)
        hybrid = allocate_holding(btc_day, weights, holding, Method.HYBRID)
        assert hybrid.energy.wh == pure.energy.wh * frac("0.9399")
        assert abs(hybrid.energy.value_in("kWh") - frac("14.25")) < frac("0.001")

    def test_lost_coin_adjustment(self):
        day = pow_day(supply="100", lost="0.2")
        holding = HoldingRecord("alice", D1, CoinAmount(Fraction(8)))
        result = allocate_holding(day, None, holding, Method.HOLDING_BASED)
        assert result.audit.entity_share == Fraction(8, 80)

    def test_share_overflow_on_bad_data(self):
        day = pow_day(supply="100", lost="0.2")
        holding = HoldingRecord("whale", D1, CoinAmount(Fraction(90)))
        with pytest.raises(ShareOverflow):
            allocate_holding(day, None, holding, Method.HOLDING_BASED)

    def test_rejects_transaction_method(self, btc_day):
        holding = HoldingRecord("alice", D1, CoinAmount(Fraction(1)))
        with pytest.raises(ValueError):
            allocate_holding(btc_day, None, holding, Method.TRANSACTION_BASED)

    def test_rejects_date_mismatch(self, btc_day):
        holding = HoldingRecord("alice", D1 + dt.timedelta(days=1), CoinAmount(Fraction(1)))
        with pytest.raises(ValueError):
            allocate_holding(btc_day, None, holding, Method.HOLDING_BASED)

    def test_carbon_attached_when_factor_present(self):
        day = pow_day(supply="100", emission_factor="400")
        holding = HoldingRecord("alice", D1, CoinAmount(Fraction(100)))
        result = allocate_holding(day, None, holding, Method.HOLDING_BASED)
        assert result.carbon is not None
        assert result.carbon.grams == day.energy.wh / 1000 * 400


class TestAllocateTransaction:
    def test_count_basis_single_tx(self, btc_day):
        tx = TransactionRecord("bob", D1, tx_count=1)
        result = allocate_transaction(btc_day, None, tx, Method.TRANSACTION_BASED, POW)
        assert result.energy.wh == btc_day.energy.wh / 263260
        assert abs(result.energy.value_in("kWh") - frac("1077.83")) / frac("1077.83") < frac(
            "0.0005"
        )
        assert result.audit.entity_basis == "count"

    def test_hybrid_fee_basis(self, btc_day):
        weights = method_weights(btc_day, POW)
        # entity pays exactly 1/263260 of the day's fees
        tx = TransactionRecord("bob", D1, fee_paid=CoinAmount(frac("60.1") / 263260))
        result = allocate_transaction(btc_day, weights, tx, Method.HYBRID, POW)
        expected = btc_day.energy.wh * frac("0.0601") / 263260
        assert result.energy.wh == expected
        assert result.audit.entity_basis == "fee"
        assert abs(result.energy.value_in("kWh") - frac("64.78")) < frac("0.01")

    def test_all_fees_takes_whole_pool(self, btc_day):
        weights = method_weights(btc_day, POW)
        tx = TransactionRecord("bob", D1, fee_paid=CoinAmount(frac("60.1")))
        result = allocate_transaction(btc_day, weights, tx, Method.HYBRID, POW)
        assert result.energy.wh == transaction_pool(btc_day, weights).wh

    def test_pow_prefers_fee_over_gas_and_count(self):
        day = pow_day(gas="1000")
        tx = TransactionRecord(
            "bob", D1, fee_paid=CoinAmount(frac("1")), gas_used=frac("10"), tx_count=5
        )
        result = allocate_transaction(day, None, tx, Method.TRANSACTION_BASED, POW)
        assert result.audit.entity_basis == "fee"

    def test_pos_prefers_gas(self):
        day = pos_day(gas="1000", fees="50")
        tx = TransactionRecord(
            "bob", day.date, fee_paid=CoinAmount(frac("1")), gas_used=frac("10"), tx_count=5
        )
        result = allocate_transaction(day, None, tx, Method.TRANSACTION_BASED, POS)
        assert result.audit.entity_basis == "gas"
        assert result.audit.entity_share == Fraction(10, 1000)

    def test_falls_back_to_count_when_day_lacks_gas(self):
        day = pos_day()
        tx = TransactionRecord("bob", day.date, gas_used=frac("10"), tx_count=2)
        result = allocate_transaction(day, None, tx, Method.TRANSACTION_BASED, POS)
        assert result.audit.entity_basis == "count"
        assert result.audit.entity_share == Fraction(2, day.tx_count)

    def test_no_transactions_guard(self):
        day = pow_day(tx_count=0, fees="0")
        tx = TransactionRecord("bob", D1, tx_count=1)
        with pytest.raises(NoTransactions):
            allocate_transaction(day, None, tx, Method.TRANSACTION_BASED, POW)

    def test_basis_unavailable(self):
        # fee-only record on a day without fee totals, no count on record
        day = pos_day()
        tx = TransactionRecord("bob", day.date, fee_paid=CoinAmount(frac("1")))
        with pytest.raises(BasisUnavailable):
            allocate_transaction(day, None, tx, Method.TRANSACTION_BASED, POS)

    def test_fee_exceeding_total_rejected(self, btc_day):
        tx = TransactionRecord("bob", D1, fee_paid=CoinAmount(frac("61")))
        with pytest.raises(ShareOverflow):
            allocate_transaction(btc_day, None, tx, Method.TRANSACTION_BASED, POW)

    def test_rejects_holding_method(self, btc_day):
        tx = TransactionRecord("bob", D1, tx_count=1)
        with pytest.raises(ValueError):
            allocate_transaction(btc_day, None, tx, Method.HOLDING_BASED, POW)


class TestAllocatePortfolio:
    def test_empty_portfolio(self):
        allocation = allocate_portfolio(
            bitcoin_2021_days(), POW, Portfolio("bitcoin"), Method.HYBRID
        )
        assert allocation.results == ()
        assert allocation.summary.holding is None
        assert allocation.summary.transaction is None

    def test_constant_year_daily_mean_equals_single_day(self):
        days = bitcoin_2021_days()
        holdings = tuple(
            HoldingRecord("alice", day.date, CoinAmount(Fraction(1))) for day in days
        )
        allocation = allocate_portfolio(
            days, POW, Portfolio("bitcoin", holdings=holdings), Method.HOLDING_BASED
        )
        summary = allocation.summary.holding
        assert summary is not None
        assert summary.days_covered == 365
        single = allocation.results[0].energy.wh
        assert summary.daily_mean_energy.wh == single
        assert summary.total_energy.wh == single * 365
        # constant data: both averaging orders coincide
        assert summary.ratio_of_averages_energy.wh == summary.daily_mean_energy.wh

    def test_missing_day_lists_all_uncovered_dates(self):
        days = bitcoin_2021_days()[:10]
        holdings = (
            HoldingRecord("alice", dt.date(2021, 2, 1), CoinAmount(Fraction(1))),
            HoldingRecord("alice", dt.date(2021, 3, 1), CoinAmount(Fraction(1))),
        )
        with pytest.raises(MissingDay) as excinfo:
            allocate_portfolio(days, POW, Portfolio("bitcoin", holdings=holdings), Method.HYBRID)
        assert excinfo.value.dates == (dt.date(2021, 2, 1), dt.date(2021, 3, 1))

    def test_rejects_unsorted_days(self):
        days = bitcoin_2021_days()[:3][::-1]
        with pytest.raises(ValueError):
            allocate_portfolio(days, POW, Portfolio("bitcoin"), Method.HYBRID)

    def test_rejects_duplicate_days(self):
        day = pow_day()
        with pytest.raises(ValueError):
            allocate_portfolio([day, day], POW, Portfolio("bitcoin"), Method.HYBRID)

    def test_deterministic_ordering(self):
        days = bitcoin_2021_days()[:2]
        d1, d2 = days[0].date, days[1].date
        portfolio = Portfolio(
            "bitcoin",
            holdings=(
                HoldingRecord("zed", d2, CoinAmount(Fraction(1))),
                HoldingRecord("alice", d1, CoinAmount(Fraction(1))),
            ),
            transactions=(
                TransactionRecord("alice", d1, tx_count=1),
                TransactionRecord("bob", d1, tx_count=1),
            ),
        )
        allocation = allocate_portfolio(days, POW, portfolio, Method.HYBRID)
        keys = [(r.date, r.entity_id, r.activity) for r in allocation.results]
        assert keys == [
            (d1, "alice", Activity.HOLDING),
            (d1, "alice", Activity.TRANSACTION),
            (d1, "bob", Activity.TRANSACTION),
            (d2, "zed", Activity.HOLDING),
        ]

    def test_pure_method_skips_other_activity(self):
        days = bitcoin_2021_days()[:1]
        portfolio = Portfolio(
            "bitcoin",
            holdings=(HoldingRecord("alice", D1, CoinAmount(Fraction(1))),),
            transactions=(TransactionRecord("bob", D1, tx_count=1),),
        )
        holding_only = allocate_portfolio(days, POW, portfolio, Method.HOLDING_BASED)
        assert {r.activity for r in holding_only.results} == {Activity.HOLDING}
        tx_only = allocate_portfolio(days, POW, portfolio, Method.TRANSACTION_BASED)
        assert {r.activity for r in tx_only.results} == {Activity.TRANSACTION}

    def test_scope_carries_network_id(self):
        days = bitcoin_2021_days()[:1]
        portfolio = Portfolio(
            "bitcoin", holdings=(HoldingRecord("alice", D1, CoinAmount(Fraction(1))),)
        )
        allocation = allocate_portfolio(days, POW, portfolio, Method.HOLDING_BASED)
        assert allocation.results[0].audit.scope == ("network:bitcoin",)

    def test_concurrent_per_day_evaluation_matches_sequential(self):
        # operations are pure; disjoint days can run on any thread and merge
        from concurrent.futures import ThreadPoolExecutor

        days = bitcoin_2021_days()[:30]
        portfolio = Portfolio(
            "bitcoin",
            holdings=tuple(
                HoldingRecord("alice", d.date, CoinAmount(Fraction(1))) for d in days
            ),
            transactions=tuple(
                TransactionRecord("bob", d.date, tx_count=2) for d in days
            ),
        )
        sequential = allocate_portfolio(days, POW, portfolio, Method.HYBRID)

        def one_day(day):
            slice_ = Portfolio(
                "bitcoin",
                holdings=tuple(h for h in portfolio.holdings if h.date == day.date),
                transactions=tuple(t for t in portfolio.transactions if t.date == day.date),
            )
            return allocate_portfolio([day], POW, slice_, Method.HYBRID).results

        with ThreadPoolExecutor(max_workers=8) as pool:
            chunks = list(pool.map(one_day, days))
        merged = sorted(
            (r for chunk in chunks for r in chunk), key=lambda r: r.sort_key()
        )
        assert tuple(merged) == sequential.results


def _mixed_basis_allocation():
    """Two PoS days with a carbon factor, holdings of several precisions, and
    transactions on the gas, fee and count bases of one day."""
    days = [
        pos_day(date=dt.date(2022, 10, 1), gas="1000", fees="50", emission_factor="412.5"),
        pos_day(date=dt.date(2022, 10, 2), gas="1200", fees="60.5", emission_factor="398.25"),
    ]
    holdings, transactions = [], []
    for day in days:
        for entity, amount in (("alice", "1.5"), ("bob", "0.25"), ("carol", "3")):
            holdings.append(HoldingRecord(entity, day.date, CoinAmount(frac(amount))))
        transactions += [
            TransactionRecord("alice", day.date, gas_used=frac("10"), fee_paid=CoinAmount(frac("1"))),
            TransactionRecord("bob", day.date, fee_paid=CoinAmount(frac("0.125"))),
            TransactionRecord("carol", day.date, fee_paid=CoinAmount(frac("2.3"))),
            TransactionRecord("dave", day.date, gas_used=frac("37"), tx_count=3),
            TransactionRecord("erin", day.date, tx_count=2),
        ]
    portfolio = Portfolio("ethereum", tuple(holdings), tuple(transactions))
    return allocate_portfolio(days, POS, portfolio, Method.HYBRID)


class TestResultValues:
    """A result is built from two integers; a library caller still reads reduced values."""

    def test_values_are_reduced_fractions(self):
        for result in _mixed_basis_allocation().results:
            for value in (result.energy.wh, result.carbon.grams, result.audit.entity_share):
                assert type(value) is Fraction
                assert math.gcd(value.numerator, value.denominator) == 1
            assert result.audit.entity_share == Fraction(result.quantity, result.total)

    def test_audit_replays_the_energy(self):
        for result in _mixed_basis_allocation().results:
            assert result.audit.replay_wh() == result.energy.wh

    def test_equals_and_hashes_as_the_result_built_from_its_values(self):
        for result in _mixed_basis_allocation().results:
            rebuilt = AllocationResult(
                result.entity_id,
                result.date,
                result.method,
                result.activity,
                result.energy,
                result.audit,
                result.carbon,
            )
            assert result == rebuilt and rebuilt == result
            assert hash(result) == hash(rebuilt)
            assert repr(result) == repr(rebuilt)

    def test_read_only(self):
        result = _mixed_basis_allocation().results[0]
        with pytest.raises(AttributeError):
            result.entity_id = "mallory"

    def test_mixed_basis_day_sums_as_its_shares_one_by_one(self):
        allocation = _mixed_basis_allocation()
        transactions = [r for r in allocation.results if r.activity is Activity.TRANSACTION]
        first_day = [r for r in transactions if r.date == dt.date(2022, 10, 1)]
        assert {r.audit.entity_basis for r in first_day} == {"gas", "fee", "count"}
        assert len({r.total for r in first_day}) > 3  # fee shares of several precisions
        for activity, summary in (
            (Activity.HOLDING, allocation.summary.holding),
            (Activity.TRANSACTION, allocation.summary.transaction),
        ):
            results = [r for r in allocation.results if r.activity is activity]
            shares, pools = {}, {}
            for r in results:
                shares[r.date] = shares.get(r.date, Fraction(0)) + r.audit.entity_share
                pools[r.date] = r.audit.pool_wh
            total = sum((r.energy.wh for r in results), Fraction(0))
            assert summary.result_count == len(results)
            assert summary.days_covered == 2
            assert summary.total_energy.wh == total
            assert summary.daily_mean_energy.wh == total / 2
            assert summary.mean_pool.wh == sum(pools.values()) / 2
            assert summary.mean_daily_share == sum(shares.values()) / 2
            assert summary.total_carbon.grams == sum(r.carbon.grams for r in results)
