"""Library arguments that do not fit together raise ``ArgumentMismatch``.

It is both a ``CarbonLedgerError`` and a ``ValueError``, as ``RowProblem`` is,
so a caller catching either sees it. Each case below is one raise site in the
engine, the app allocator, the layer-2 allocator, the result type, the
numeric kernel or the report's period selection, with its message.
"""

import datetime as dt
import sys
from fractions import Fraction

import pytest

import carbon_ledger
from carbon_ledger import (
    AllocationResult,
    ArgumentMismatch,
    Carbon,
    CarbonLedgerError,
    CoinAmount,
    Energy,
    HoldingRecord,
    Layer2Day,
    Method,
    Portfolio,
    Share,
    TokenHolding,
    TransactionRecord,
    allocate_app_transaction,
    allocate_holding,
    allocate_portfolio,
    allocate_token_holding,
    allocate_transaction,
    l2_inherited,
    method_weights,
)
from carbon_ledger.apps import AppDay
from carbon_ledger.engine import MethodWeights, summarize
from carbon_ledger.ingestion import Dataset
from carbon_ledger.numeric import decimal_str, format_ratio, format_ratio_shifted, format_sig, round_sig
from carbon_ledger.report import series_rows
from conftest import POW, frac, pow_day

D1, D2 = dt.date(2021, 1, 1), dt.date(2021, 1, 2)
DAY, DAY2 = pow_day(date=D1), pow_day(date=D2)
WEIGHTS = method_weights(DAY, POW)
APP = AppDay("uniswap", D1, Share(frac("0.5")), 10, CoinAmount(frac("1000")))
HOLDING, TX = HoldingRecord("alice", D1, CoinAmount(frac("1"))), TransactionRecord("bob", D1, tx_count=1)
TOKENS = TokenHolding("alice", "uniswap", D1, CoinAmount(frac("1")))
RESULT = allocate_holding(pow_day(date=D1, emission_factor="400"), None, HOLDING, Method.HOLDING_BASED)
ZERO = allocate_holding(DAY, None, HoldingRecord("alice", D1, CoinAmount(0)), Method.HOLDING_BASED)

NOT_A_RATIO = "a ratio n/d to round needs n >= 0 and d > 0"
DIGIT_LIMIT = sys.get_int_max_str_digits()
TOO_MANY_DIGITS = f"sig_digits 5000 is above {DIGIT_LIMIT}, the interpreter's limit on the digits of an integer"
# one date's transaction results drawing on two pools of different energy: the network's hybrid pool and an app's
MIXED_POOLS = (
    allocate_transaction(DAY, WEIGHTS, TX, Method.HYBRID, POW),
    allocate_app_transaction(DAY, WEIGHTS, APP, TX, POW),
)

CASES = {
    "weights_sum": (
        lambda: MethodWeights(D1, Share(frac("0.5")), Share(frac("0.4")), "fee_share"),
        "holding and transaction weights must sum to 1 exactly",
    ),
    "weights_missing": (
        lambda: allocate_holding(DAY, None, HOLDING, Method.HYBRID),
        "hybrid allocation requires method weights",
    ),
    "weights_of_another_day": (
        lambda: allocate_holding(DAY, method_weights(DAY2, POW), HOLDING, Method.HYBRID),
        "weights are for 2021-01-02, day is 2021-01-01",
    ),
    "holding_of_another_day": (
        lambda: allocate_holding(DAY2, None, HOLDING, Method.HOLDING_BASED),
        "holding dated 2021-01-01 does not match day 2021-01-02",
    ),
    "holding_method": (
        lambda: allocate_holding(DAY, None, HOLDING, Method.TRANSACTION_BASED),
        "holdings are not allocated under transaction-based accounting",
    ),
    "transaction_of_another_day": (
        lambda: allocate_transaction(DAY2, None, TX, Method.TRANSACTION_BASED, POW),
        "transaction dated 2021-01-01 does not match day 2021-01-02",
    ),
    "transaction_method": (
        lambda: allocate_transaction(DAY, None, TX, Method.HOLDING_BASED, POW),
        "transactions are not allocated under holding-based accounting",
    ),
    "days_unordered": (
        lambda: allocate_portfolio([DAY2, DAY], POW, Portfolio("btc"), Method.HOLDING_BASED),
        "days must be strictly increasing; 2021-01-01 follows 2021-01-02",
    ),
    "app_of_another_day": (
        lambda: allocate_app_transaction(DAY, WEIGHTS, AppDay("uniswap", D2, Share(frac("0.5")), 10), TX, POW),
        "app day 2021-01-02 does not match network day 2021-01-01",
    ),
    "app_transaction_of_another_day": (
        lambda: allocate_app_transaction(DAY, WEIGHTS, APP, TransactionRecord("bob", D2, tx_count=1), POW),
        "transaction dated 2021-01-02 does not match day 2021-01-01",
    ),
    "token_holding_of_another_day": (
        lambda: allocate_token_holding(DAY, WEIGHTS, APP, TokenHolding("alice", "uniswap", D2, TOKENS.amount)),
        "token holding dated 2021-01-02 does not match day 2021-01-01",
    ),
    "token_holding_of_another_app": (
        lambda: allocate_token_holding(DAY, WEIGHTS, APP, TokenHolding("alice", "sushi", D1, TOKENS.amount)),
        "token holding is for app 'sushi', not 'uniswap'",
    ),
    "result_energy_not_replay": (
        lambda: AllocationResult(
            "alice", D1, RESULT.method, RESULT.activity, Energy(RESULT.energy.wh + 1), RESULT.audit
        ),
        f"energy {RESULT.energy.wh + 1} Wh is not the audit's replay, {RESULT.energy.wh} Wh",
    ),
    "result_carbon_on_zero_energy": (
        lambda: AllocationResult("alice", D1, ZERO.method, ZERO.activity, ZERO.energy, ZERO.audit, Carbon(1)),
        "carbon 1 g on zero energy",
    ),
    "sig_digits_below_one": (lambda: format_sig(Fraction(1), 0), "sig_digits must be >= 1"),
    # the rounding kernel reads n/d with n >= 0 and d > 0; outside that it would loop or divide by zero
    "ratio_negative_numerator": (lambda: format_ratio(-7, 3), NOT_A_RATIO),
    "ratio_negative_denominator": (lambda: format_ratio(7, -3), NOT_A_RATIO),
    "ratio_large_over_negative": (lambda: format_ratio(10**20, -3), NOT_A_RATIO),
    "ratio_zero_denominator": (lambda: format_ratio(7, 0), NOT_A_RATIO),
    "ratio_zero_over_zero": (lambda: format_ratio(0, 0), NOT_A_RATIO),
    "ratio_both_negative": (lambda: format_ratio(-7, -3), NOT_A_RATIO),
    "shifted_ratio_negative_numerator": (lambda: format_ratio_shifted(-7, 3, 6, 3), NOT_A_RATIO),
    "shifted_ratio_negative_denominator": (lambda: format_ratio_shifted(7, -3, 6, 3), NOT_A_RATIO),
    "shifted_ratio_zero_denominator": (lambda: format_ratio_shifted(7, 0, 6, 3), NOT_A_RATIO),
    # more digits than str() of an int gives: the kernel still rounds (``round_sig``), the text cannot be made
    "sig_digits_above_int_digit_limit": (lambda: format_sig(Fraction(1, 3), 5000), TOO_MANY_DIGITS),
    "ratio_sig_digits_above_int_digit_limit": (lambda: format_ratio(1, 3, 5000), TOO_MANY_DIGITS),
    "shifted_ratio_sig_digits_above_int_digit_limit": (lambda: format_ratio_shifted(1, 3, 5000, 3), TOO_MANY_DIGITS),
    "no_finite_decimal": (
        lambda: decimal_str(Fraction(1, 3)),
        "Fraction(1, 3) has no finite decimal expansion",
    ),
    "summary_of_mixed_pools": (
        lambda: summarize(Method.HYBRID, MIXED_POOLS),
        "transaction results of 2021-01-01 draw on more than one pool",
    ),
    "summary_of_mixed_pools_reversed": (
        lambda: summarize(Method.HYBRID, MIXED_POOLS[::-1]),
        "transaction results of 2021-01-01 draw on more than one pool",
    ),
    "period_without_days": (
        lambda: series_rows(Dataset("btc", POW, (DAY,)), start=D2),
        "btc: no days in the requested range",
    ),
    "layer2_of_another_day": (
        lambda: l2_inherited(DAY, WEIGHTS, Layer2Day("polygon", D2, Share(frac("0.2")), Energy.of("1"), DAY2)),
        "layer-2 day 2021-01-02 does not match layer-1 day 2021-01-01",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_each_mismatch_raises_argument_mismatch_with_its_message(name):
    call, message = CASES[name]
    with pytest.raises(ArgumentMismatch) as excinfo:
        call()
    assert str(excinfo.value) == message
    assert isinstance(excinfo.value, CarbonLedgerError) and isinstance(excinfo.value, ValueError)


def test_rounding_past_the_int_digit_limit_still_returns():
    assert round_sig(Fraction(1, 3), 5000) == Fraction(10**5000 // 3, 10**5000)


def test_results_on_pools_of_equal_values_still_summarize():
    """Results built positionally each get their own pool object; equal pools still sum as one."""
    rebuilt = [AllocationResult(r.entity_id, r.date, r.method, r.activity, r.energy, r.audit, r.carbon) for r in
               (RESULT, RESULT)]
    assert rebuilt[0].pool is not rebuilt[1].pool
    summary = summarize(Method.HOLDING_BASED, rebuilt).holding
    assert summary.total_energy.wh == 2 * RESULT.energy.wh
    assert summary.total_carbon == Carbon(2 * RESULT.carbon.grams)


def test_argument_mismatch_is_exported():
    assert carbon_ledger.ArgumentMismatch is carbon_ledger.errors.ArgumentMismatch
    assert "ArgumentMismatch" in carbon_ledger.__all__
