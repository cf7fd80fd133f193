"""Library arguments that do not fit together raise ``ArgumentMismatch``.

It is both a ``CarbonLedgerError`` and a ``ValueError``, as ``RowProblem`` is,
so a caller catching either sees it. Each case below is one raise site in the
engine, the app allocator, the layer-2 allocator, the result type or the
numeric kernel, with its message.
"""

import datetime as dt
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
from carbon_ledger.engine import MethodWeights
from carbon_ledger.numeric import decimal_str, format_sig
from conftest import POW, frac, pow_day

D1, D2 = dt.date(2021, 1, 1), dt.date(2021, 1, 2)
DAY, DAY2 = pow_day(date=D1), pow_day(date=D2)
WEIGHTS = method_weights(DAY, POW)
APP = AppDay("uniswap", D1, Share(frac("0.5")), 10, CoinAmount(frac("1000")))
HOLDING, TX = HoldingRecord("alice", D1, CoinAmount(frac("1"))), TransactionRecord("bob", D1, tx_count=1)
TOKENS = TokenHolding("alice", "uniswap", D1, CoinAmount(frac("1")))
RESULT = allocate_holding(pow_day(date=D1, emission_factor="400"), None, HOLDING, Method.HOLDING_BASED)
ZERO = allocate_holding(DAY, None, HoldingRecord("alice", D1, CoinAmount(0)), Method.HOLDING_BASED)

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
    "no_finite_decimal": (
        lambda: decimal_str(Fraction(1, 3)),
        "Fraction(1, 3) has no finite decimal expansion",
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


def test_argument_mismatch_is_exported():
    assert carbon_ledger.ArgumentMismatch is carbon_ledger.errors.ArgumentMismatch
    assert "ArgumentMismatch" in carbon_ledger.__all__
