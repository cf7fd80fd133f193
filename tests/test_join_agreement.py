"""The join states no bound of its own: each of its share issues is the allocator's exception, word for word.

For each record the join refuses on a share bound, the library allocator run
on the same record raises, and the issue's reason is ``str()`` of that
exception, and its column the exception's column where it names one. The
day rules agree the same way: each day ``validate`` refuses, the hybrid
weights refuse with ``validate``'s column and reason.
"""

import datetime as dt
from dataclasses import replace

import pytest

from carbon_ledger import (
    AppDay,
    CoinAmount,
    HoldingRecord,
    MalformedDay,
    Method,
    MissingColumn,
    NotAToken,
    Portfolio,
    Share,
    ShareOverflow,
    TokenHolding,
    TransactionRecord,
    allocate_app_hybrid,
    allocate_holding,
    allocate_token_holding,
    allocate_transaction,
    app_pool,
    method_weights,
    serialize_network_csv,
    unattributed_remainder,
)
from carbon_ledger.ingestion import Dataset, join_issues, validate_files
from conftest import POS, POW, frac, pos_day, pow_day

D1 = dt.date(2021, 1, 1)
DAY = pow_day(date=D1, lost="0.1")  # an effective supply of 16844400
WEIGHTS = method_weights(DAY, POW)


def app(app_id="dex", share="0.5", supply="1000", tx_count=10):
    return AppDay(app_id, D1, Share(frac(share)), tx_count, CoinAmount(frac(supply)) if supply is not None else None)


def coins(token):
    return CoinAmount(frac(token))


def portfolio_issues(holdings=(), transactions=()):
    return join_issues(Dataset("btc", POW, (DAY,)), portfolio=Portfolio("btc", tuple(holdings), tuple(transactions)))


def registry_issues(apps, token_holdings=()):
    return join_issues(Dataset("btc", POW, (DAY,), tuple(apps)), token_holdings=tuple(token_holdings))


HOLDING = HoldingRecord("whale", D1, coins("16844400.5"))
TRANSACTION = TransactionRecord("spender", D1, coins("60.2"), None, None)
TOKEN_HOLDING = TokenHolding("holder", "dex", D1, coins("1000.25"))
BARE_HOLDING = TokenHolding("holder", "bare", D1, coins("1"))
BARE = app("bare", supply=None)
OVERCLAIMED = (app("dex", "0.6"), app("amm", "0.5"))
BUSIER = app(tx_count=DAY.tx_count + 1)  # more transactions than its host day

# name → (the join's issues on the record, the allocator that raises on it, the exception)
CASES = {
    "holding_overflow": (
        lambda: portfolio_issues(holdings=[HOLDING]),
        lambda: allocate_holding(DAY, None, HOLDING, Method.HOLDING_BASED),
        ShareOverflow,
    ),
    "transaction_overflow": (
        lambda: portfolio_issues(transactions=[TRANSACTION]),
        lambda: allocate_transaction(DAY, None, TRANSACTION, Method.TRANSACTION_BASED, POW),
        ShareOverflow,
    ),
    "token_overflow": (
        lambda: registry_issues([app()], [TOKEN_HOLDING]),
        lambda: allocate_token_holding(DAY, WEIGHTS, app(), TOKEN_HOLDING),
        ShareOverflow,
    ),
    "no_token_supply": (
        lambda: registry_issues([BARE], [BARE_HOLDING]),
        lambda: allocate_token_holding(DAY, WEIGHTS, BARE, BARE_HOLDING),
        NotAToken,
    ),
    "no_token_supply_hybrid": (
        lambda: registry_issues([BARE], [BARE_HOLDING]),
        lambda: allocate_app_hybrid(DAY, WEIGHTS, BARE, BARE_HOLDING, (), POW),
        NotAToken,
    ),
    "fee_share_sum": (
        lambda: registry_issues(OVERCLAIMED),
        lambda: unattributed_remainder(DAY, WEIGHTS, OVERCLAIMED),
        ShareOverflow,
    ),
    "app_tx_count": (
        lambda: registry_issues([BUSIER]),
        lambda: app_pool(DAY, WEIGHTS, BUSIER),
        ShareOverflow,
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_the_join_reason_is_the_allocators_exception(name):
    join, allocate, error = CASES[name]
    (issue,) = join()
    with pytest.raises(error) as caught:
        allocate()
    assert issue.code == "join_invalid"
    assert issue.reason == str(caught.value)
    if getattr(caught.value, "column", None) is not None:
        assert issue.column == caught.value.column


# name → (a day the hybrid weights refuse, its consensus, the error they raise, the refused column)
DAY_CASES = {
    "pow_no_block_reward": (replace(pow_day(), block_reward=None), POW, MissingColumn, "block_reward"),
    "pow_no_tx_fees_total": (replace(pow_day(), tx_fees_total=None), POW, MissingColumn, "tx_fees_total"),
    "pow_zero_revenue": (pow_day(reward="0", fees="0"), POW, MalformedDay, "block_reward"),
    "pos_no_pos_tx_share": (replace(pos_day(), pos_tx_share=None), POS, MissingColumn, "pos_tx_share"),
    "pos_share_without_transactions": (replace(pos_day(), tx_count=0), POS, MalformedDay, "pos_tx_share"),
}


@pytest.mark.parametrize("name", DAY_CASES)
def test_the_weights_refuse_a_day_in_validates_words(name, tmp_path):
    day, params, error, column = DAY_CASES[name]
    path = tmp_path / "days.csv"
    path.write_text(serialize_network_csv([day]), encoding="utf-8")
    (issue,) = validate_files([path], "net", params)
    assert (issue.code, issue.column) == ("row_invalid", column)
    with pytest.raises(error) as caught:
        method_weights(day, params)
    assert str(caught.value) == f"{day.date}: {column}: {issue.reason}"
