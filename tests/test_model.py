"""Value-type invariants, unit conversion, and carbon conversion."""

import copy
import datetime as dt
import json
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carbon_ledger import (
    Carbon,
    CarbonLedgerError,
    CoinAmount,
    Consensus,
    Energy,
    HoldingRecord,
    InvalidValue,
    Portfolio,
    Share,
    TransactionRecord,
    carbonize,
    convert_energy,
    serialize_portfolio,
)
from carbon_ledger import ingestion
from carbon_ledger.errors import RowProblem
from carbon_ledger.ingestion import parse_date
from carbon_ledger.numeric import split_decimal
from carbon_ledger.remote import check_network_id
from conftest import pow_day, pos_day


class TestConstructionGuards:
    def test_energy_rejects_negative(self):
        with pytest.raises(ValueError):
            Energy(Fraction(-1))

    def test_carbon_rejects_negative(self):
        with pytest.raises(ValueError):
            Carbon(Fraction(-1))

    def test_coin_amount_rejects_negative(self):
        with pytest.raises(ValueError):
            CoinAmount(Fraction(-1, 2))

    @pytest.mark.parametrize("value", ["-0.1", "1.0001", "2"])
    def test_share_rejects_out_of_range(self, value):
        with pytest.raises(ValueError):
            Share(Fraction(value))

    def test_share_accepts_bounds(self):
        assert Share(Fraction(0)).value == 0
        assert Share(Fraction(1)).value == 1

    def test_energy_accepts_decimal_string(self):
        assert Energy("12.5").wh == Fraction(25, 2)

    def test_energy_rejects_float(self):
        with pytest.raises(TypeError):
            Energy(1.5)


class TestConvertEnergy:
    def test_wh_to_gwh(self):
        assert convert_energy(Energy.of("283750000000"), "GWh") == "283.75"

    def test_wh_to_kwh(self):
        assert convert_energy(Energy.of("15160"), "kWh") == "15.16"

    def test_zero_in_any_unit(self):
        assert convert_energy(Energy.of("0"), "TWh") == "0"

    def test_scaling_is_exact_before_rounding(self):
        energy = Energy.of("1", "TWh")
        assert energy.value_in("Wh") == Fraction(10**12)
        assert energy.value_in("kWh") == Fraction(10**9)

    def test_unknown_unit(self):
        with pytest.raises(ValueError):
            convert_energy(Energy.of("1"), "BTU")

    def test_configurable_significant_digits(self):
        assert convert_energy(Energy.of("1234567"), "kWh", sig_digits=3) == "1230"


class TestCarbonize:
    def test_direct_product(self):
        assert carbonize(Energy.of("100", "kWh"), 500).grams == 50000

    def test_zero_factor(self):
        assert carbonize(Energy.of("123.456", "kWh"), 0).grams == 0

    def test_handbook_example(self):
        # 15.16 kWh at 400 g/kWh, verified by hand
        assert carbonize(Energy.of("15.16", "kWh"), 400).grams == 6064

    def test_rejects_negative_factor(self):
        with pytest.raises(ValueError):
            carbonize(Energy.of("1"), -1)


class TestNetworkDay:
    def test_rejects_zero_supply(self):
        with pytest.raises(ValueError):
            pow_day(supply="0")

    def test_rejects_lost_fraction_of_one(self):
        with pytest.raises(ValueError):
            pow_day(lost="1")

    def test_zero_tx_day_requires_zero_fees(self):
        with pytest.raises(ValueError):
            pow_day(tx_count=0, fees="1")

    def test_zero_tx_day_requires_zero_gas(self):
        with pytest.raises(ValueError):
            pos_day(tx_count=0, tx_share="0", gas="5")

    def test_pow_day_needs_revenue_columns(self):
        day = pos_day()
        problems = day.consensus_problems(Consensus.POW)
        assert ("block_reward", "required for proof-of-work days") in problems

    def test_pow_zero_revenue_flagged(self):
        day = pow_day(reward="0", fees="0", tx_count=0)
        columns = [c for c, _ in day.consensus_problems(Consensus.POW)]
        assert "block_reward" in columns

    def test_pos_day_needs_tx_share(self):
        day = pow_day()
        assert day.consensus_problems(Consensus.POS) == [
            ("pos_tx_share", "required for proof-of-stake days")
        ]

    def test_pos_clean(self):
        assert pos_day().consensus_problems(Consensus.POS) == []

    def test_effective_supply_applies_lost_coins(self):
        day = pow_day(supply="100", lost="0.2")
        assert day.effective_supply() == Fraction(80)


class TestTransactionRecord:
    def test_requires_some_basis(self):
        with pytest.raises(ValueError):
            TransactionRecord("e", dt.date(2021, 1, 1))

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            TransactionRecord("e", dt.date(2021, 1, 1), tx_count=0)

    def test_fee_only_record_is_valid(self):
        record = TransactionRecord("e", dt.date(2021, 1, 1), fee_paid=CoinAmount(Fraction(1)))
        assert record.tx_count is None


class TestDomainErrors:
    """Each value-type and token check raises InvalidValue: a CarbonLedgerError that is also a ValueError."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Energy(Fraction(-1)),
            lambda: Energy.of("1", "BTU"),
            lambda: Carbon(Fraction(-1)),
            lambda: carbonize(Energy.of("1"), -1),
            lambda: Share(Fraction(2)),
            lambda: CoinAmount(Fraction(-1, 2)),
            lambda: split_decimal("1e5"),
            lambda: parse_date("2021-02-30"),
            lambda: check_network_id("../bitcoin"),
        ],
        ids=["energy", "unit", "carbon", "carbonize", "share", "coin", "decimal_token", "date_token", "network_id"],
    )
    def test_raises_a_domain_error(self, build):
        with pytest.raises(InvalidValue) as excinfo:
            build()
        assert isinstance(excinfo.value, CarbonLedgerError)
        assert isinstance(excinfo.value, ValueError)


class TestCoinAmount:
    """Held as unreduced integers ``units / scale``; read, compared and hashed by value."""

    def test_equal_across_places(self):
        assert CoinAmount("1.5") == CoinAmount("1.50") == CoinAmount.of_units(150, 100)
        assert CoinAmount.of_units(0, 10) == CoinAmount(0)
        assert CoinAmount("1.5") != CoinAmount("1.05")
        assert hash(CoinAmount("1.5")) == hash(CoinAmount.of_units(1500, 1000))
        assert len({CoinAmount("2"), CoinAmount.of_units(200, 100), CoinAmount("2.000")}) == 1

    def test_orderings(self):
        small, large = CoinAmount.of_units(149, 100), CoinAmount("1.5")
        assert small < large and small <= large and large > small and large >= small
        assert large <= CoinAmount.of_units(15, 10) and large >= CoinAmount.of_units(15, 10)
        assert not large < small and not small > large
        assert sorted([large, small, CoinAmount(0)]) == [CoinAmount(0), small, large]

    def test_compares_only_with_coin_amounts(self):
        assert CoinAmount(1) != Fraction(1)
        with pytest.raises(TypeError):
            CoinAmount(1) < 2

    def test_value_is_the_reduced_fraction(self):
        amount = CoinAmount.of_units(1500, 1000)
        assert (amount.units, amount.scale) == (1500, 1000)
        assert type(amount.value) is Fraction
        assert (amount.value.numerator, amount.value.denominator) == (3, 2)

    def test_repr(self):
        assert repr(CoinAmount.of_units(1500, 1000)) == "CoinAmount(value=Fraction(3, 2))"
        assert repr(CoinAmount("0")) == "CoinAmount(value=Fraction(0, 1))"

    def test_read_only(self):
        amount = CoinAmount("1.5")
        for attr in ("value", "units", "scale", "other"):
            with pytest.raises(AttributeError):
                setattr(amount, attr, 2)

    def test_undeletable_and_copied_or_pickled_unreduced(self):
        amount = CoinAmount.of_units(1500, 1000)
        for attr in ("units", "scale"):
            with pytest.raises(AttributeError):
                delattr(amount, attr)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copied = pickle.loads(pickle.dumps(amount, protocol))
            assert (copied.units, copied.scale, type(copied)) == (1500, 1000, CoinAmount)
        for copied in (copy.copy(amount), copy.deepcopy(amount)):
            assert (copied.units, copied.scale) == (1500, 1000)
            assert copied == amount and hash(copied) == hash(amount)

    def test_negative_rejected_and_zero_falsy(self):
        with pytest.raises(ValueError):
            CoinAmount("-0.01")
        assert not CoinAmount(0) and not CoinAmount.of_units(0, 10**8)
        assert CoinAmount.of_units(1, 10**18)


@st.composite
def _coin_cells(draw):
    """A non-negative decimal token with at most ``coin_decimals`` places, and ``coin_decimals``."""
    coin_decimals = draw(st.integers(min_value=0, max_value=20))
    places = draw(st.integers(min_value=0, max_value=coin_decimals))
    whole = draw(st.from_regex(r"[0-9]{1,25}", fullmatch=True))
    fraction = "." + draw(st.from_regex(rf"[0-9]{{{places}}}", fullmatch=True)) if places else ""
    sign = draw(st.sampled_from(["", "+"]))
    return sign + whole + fraction, places, coin_decimals


# Every decimal, energy, share and coin column of the specs, each alone in a one-column spec (not required, no
# default, no bound), so its generated reader gives exactly what its kind's parser gives.
_DECIMAL_KINDS = (ingestion._DECIMAL, ingestion._ENERGY, ingestion._SHARE, ingestion._COIN)
_DECIMAL_COLUMNS = [
    pytest.param(
        ingestion._Spec("cell", (column._replace(required=False, default=None, bound=None),), (column.attr,), dict),
        id=f"{spec.noun}.{column.name}",
    )
    for spec in vars(ingestion).values()
    if isinstance(spec, ingestion._Spec)
    for column in spec.columns
    if column.kind in _DECIMAL_KINDS
]


def _read_both(alone, token, coin_decimals):
    """A cell read by its column's generated reader and by its kind's parser: each a value or a RowProblem's parts."""
    (column,) = alone.columns
    reads = (
        lambda: alone.reader({column.name: token}, coin_decimals)[column.attr],
        lambda: column.kind.parse(token, column.name, coin_decimals),
    )
    outcomes = []
    for read in reads:
        try:
            outcomes.append(read())
        except RowProblem as problem:
            outcomes.append((problem.column, problem.code, problem.reason))
    return column, *outcomes


def _assert_same_cell(column, inline, parsed):
    assert type(inline) is type(parsed) and inline == parsed
    if isinstance(parsed, (Fraction, Energy, Share, CoinAmount)):
        assert hash(inline) == hash(parsed)
        assert json.dumps(column.kind.render(inline)) == json.dumps(column.kind.render(parsed))


@pytest.mark.parametrize("alone", _DECIMAL_COLUMNS)
@settings(max_examples=60, deadline=None)
@given(_coin_cells())
def test_inline_cell_is_the_parsers_value(alone, cell):
    token, places, coin_decimals = cell
    column, inline, parsed = _read_both(alone, token, coin_decimals)
    _assert_same_cell(column, inline, parsed)
    if column.kind is ingestion._COIN:
        assert inline.scale == 10**places  # the reader built it from the digits, not through the parser
        inline_document, parsed_document = (
            serialize_portfolio(Portfolio("net", (HoldingRecord("e", dt.date(2021, 1, 1), amount),)))
            for amount in (inline, parsed)
        )
        assert inline_document == parsed_document


_EDGE_TOKENS = [
    "+1.5", "+", "-0", "-0.0", "-1", "0007.50", "00", "1" * 640, "1" * 641, "0." + "5" * 638, "0." + "5" * 639,
    "1.", ".5", "", "1.2.3", "1e5", " 1", "1_0", "\u0661", "1.\u0665", "\u00b2", "0." + "1" * 19, "1.5", "1.0001",
]


@pytest.mark.parametrize("token", _EDGE_TOKENS, ids=lambda token: f"{token[:8]!r}-{len(token)}")
@pytest.mark.parametrize("alone", _DECIMAL_COLUMNS)
def test_inline_cell_is_the_parsers_value_at_the_edges(alone, token):
    # signs, leading zeros, 640 against 641 characters, no digits on one side of the point, absent, non-ASCII
    # digits, more than 18 places for a coin, and shares above 1: a clean token or the parser's value or problem
    column, inline, parsed = _read_both(alone, token, 18)
    _assert_same_cell(column, inline, parsed)
