"""Round-trip properties of the canonical serializers.

For generated network days (PoW and PoS, optional columns present or
absent, lost-coin fraction zero or not), portfolios, app bundles and
layer-2 bundles: parsing the canonical form gives back the original records,
and serializing that parse gives the same bytes again.
"""

import datetime as dt
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from carbon_ledger import (
    AppBundle,
    AppDay,
    CoinAmount,
    Consensus,
    ConsensusParams,
    Energy,
    HoldingRecord,
    L2Bundle,
    Layer2Day,
    NetworkDay,
    Portfolio,
    Share,
    TokenHolding,
    TransactionRecord,
    serialize_apps,
    serialize_l2,
    serialize_network_csv,
    serialize_portfolio,
)
from carbon_ledger.ingestion import (
    day_from_fields,
    day_to_fields,
    parse_apps_json,
    parse_l2_json,
    parse_network_csv,
    parse_portfolio_json,
)

COIN_DECIMALS = 18
dates = st.dates(min_value=dt.date(2020, 1, 1), max_value=dt.date(2022, 12, 31))
ids = st.sampled_from(["a", "b", "entity-0001", "uniswap", "x.y_z-1"])


def decimals(max_places: int = 6, positive: bool = False):
    return st.builds(
        lambda units, places: Fraction(units, 10**places),
        st.integers(min_value=1 if positive else 0, max_value=10**15),
        st.integers(min_value=0, max_value=max_places),
    )


coins = decimals(COIN_DECIMALS)
shares = st.builds(
    lambda units, places: Fraction(units, 10**places),
    st.integers(min_value=0, max_value=10**6),
    st.just(6),
)
lost_fractions = st.one_of(st.just(Fraction(0)), shares.filter(lambda share: share < 1))


def optional(strategy):
    return st.one_of(st.none(), strategy)


@st.composite
def network_days(draw, kind: Consensus, date=dates):
    pow_ = kind is Consensus.POW
    tx_count = draw(st.one_of(st.just(0), st.integers(min_value=1, max_value=10**7)))
    reward = draw(coins if pow_ else optional(coins))
    fees = draw(coins if pow_ else optional(coins))
    gas = draw(optional(decimals(0)))
    pos_share = draw(optional(shares) if pow_ else shares)
    if tx_count == 0:
        # a day without transactions has zero fees and gas, and a zero PoS share
        fees = None if fees is None else Fraction(0)
        gas = None if gas is None else Fraction(0)
        pos_share = pos_share if pow_ else Fraction(0)
    if pow_ and reward + fees == 0:
        reward = Fraction(1)
    return NetworkDay(
        date=date if isinstance(date, dt.date) else draw(date),
        energy=Energy(draw(decimals())),
        coin_supply=CoinAmount(draw(decimals(COIN_DECIMALS, positive=True))),
        tx_count=tx_count,
        block_reward=None if reward is None else CoinAmount(reward),
        tx_fees_total=None if fees is None else CoinAmount(fees),
        lost_coin_fraction=Share(draw(lost_fractions)),
        gas_total=gas,
        pos_tx_share=None if pos_share is None else Share(pos_share),
        emission_factor=draw(optional(decimals())),
    )


kinds = st.sampled_from([Consensus.POW, Consensus.POS])


@st.composite
def day_lists(draw):
    kind = draw(kinds)
    unique_dates = draw(st.lists(dates, min_size=1, max_size=6, unique=True))
    return kind, [draw(network_days(kind, date)) for date in unique_dates]


@st.composite
def transactions(draw):
    fee = draw(optional(coins.map(CoinAmount)))
    gas = draw(optional(decimals(0)))
    count = draw(optional(st.integers(min_value=1, max_value=1000)))
    if fee is None and gas is None and count is None:
        count = 1
    return TransactionRecord(draw(ids), draw(dates), fee, gas, count)


portfolios = st.builds(
    Portfolio,
    ids,
    st.lists(st.builds(HoldingRecord, ids, dates, coins.map(CoinAmount)), max_size=6).map(tuple),
    st.lists(transactions(), max_size=6).map(tuple),
)


@st.composite
def app_bundles(draw):
    keys = draw(st.lists(st.tuples(ids, dates), max_size=5, unique=True))
    apps = tuple(
        AppDay(
            app_id,
            date,
            Share(draw(shares)),
            draw(st.integers(min_value=0, max_value=10**6)),
            draw(optional(decimals(COIN_DECIMALS, positive=True).map(CoinAmount))),
        )
        for app_id, date in keys
    )
    holdings = draw(st.lists(st.builds(TokenHolding, ids, ids, dates, coins.map(CoinAmount)), max_size=6))
    return AppBundle(apps, tuple(holdings))


@st.composite
def l2_bundles(draw, host=Consensus.POW):
    keys = draw(st.lists(st.tuples(ids, dates), max_size=5, unique=True))
    declared = draw(st.dictionaries(ids, kinds))
    entries = tuple(
        Layer2Day(
            l2_id,
            date,
            Share(draw(shares)),
            Energy(draw(decimals())),
            draw(network_days(declared.get(l2_id, host), date)),
        )
        for l2_id, date in keys
    )
    used = {entry.l2_id for entry in entries}
    return L2Bundle(entries, {l2_id: kind for l2_id, kind in declared.items() if l2_id in used})


def by(*attrs):
    return lambda record: tuple(getattr(record, attr) for attr in attrs)


@settings(max_examples=50, deadline=None)
@given(day_lists())
def test_network_csv_round_trip(generated):
    kind, days = generated
    text = serialize_network_csv(days)
    dataset = parse_network_csv(text, "days.csv", "net", ConsensusParams(kind), COIN_DECIMALS)
    assert list(dataset.days) == sorted(days, key=by("date"))
    assert serialize_network_csv(dataset.days) == text


@settings(max_examples=50, deadline=None)
@given(kinds.flatmap(lambda kind: st.tuples(st.just(kind), network_days(kind))))
def test_day_fields_round_trip(generated):
    kind, day = generated
    fields = day_to_fields(day)
    parsed = day_from_fields(fields, ConsensusParams(kind), COIN_DECIMALS)
    assert parsed == day
    assert day_to_fields(parsed) == fields


@settings(max_examples=50, deadline=None)
@given(portfolios)
def test_portfolio_round_trip(portfolio):
    text = serialize_portfolio(portfolio)
    parsed = parse_portfolio_json(text, "portfolio.json", COIN_DECIMALS)
    assert parsed.network_id == portfolio.network_id
    assert list(parsed.holdings) == sorted(portfolio.holdings, key=by("date", "entity_id"))
    assert list(parsed.transactions) == sorted(portfolio.transactions, key=by("date", "entity_id"))
    assert serialize_portfolio(parsed) == text


@settings(max_examples=50, deadline=None)
@given(app_bundles())
def test_apps_round_trip(bundle):
    text = serialize_apps(bundle)
    parsed = parse_apps_json(text, "apps.json", COIN_DECIMALS)
    assert list(parsed.apps) == sorted(bundle.apps, key=by("date", "app_id"))
    assert list(parsed.token_holdings) == sorted(
        bundle.token_holdings, key=by("date", "app_id", "entity_id")
    )
    assert serialize_apps(parsed) == text


@settings(max_examples=50, deadline=None)
@given(kinds.flatmap(lambda host: st.tuples(st.just(host), l2_bundles(host))))
def test_l2_round_trip(generated):
    host, bundle = generated
    text = serialize_l2(bundle)
    parsed = parse_l2_json(text, "l2.json", ConsensusParams(host), COIN_DECIMALS)
    assert list(parsed.entries) == sorted(bundle.entries, key=by("date", "l2_id"))
    assert parsed.consensus == bundle.consensus
    assert serialize_l2(parsed) == text
