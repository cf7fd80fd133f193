"""Exact parsing, rendering, and half-even significant-digit rounding."""

import re
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carbon_ledger import numeric
from carbon_ledger.numeric import (
    _round_half_even,
    decimal_str,
    format_ratio,
    format_ratio_shifted,
    format_sig,
    fraction_digits,
    is_finite_decimal,
    parse_decimal,
    round_sig,
)


class TestParseDecimal:
    def test_plain_integer(self):
        assert parse_decimal("42") == Fraction(42)

    def test_fractional(self):
        assert parse_decimal("1.23") == Fraction(123, 100)

    def test_negative(self):
        assert parse_decimal("-0.5") == Fraction(-1, 2)

    def test_high_precision_survives(self):
        token = "0.30000000000000004"
        assert parse_decimal(token) == Fraction(30000000000000004, 10**17)

    @pytest.mark.parametrize("bad", ["1e5", "1,000", " 1", "1.", ".5", "", "abc", "0x10"])
    def test_rejects_non_plain_tokens(self, bad):
        with pytest.raises(ValueError):
            parse_decimal(bad)


class TestDecimalStr:
    def test_normalizes_trailing_zeros(self):
        assert decimal_str(Fraction("1.230")) == "1.23"

    def test_integer(self):
        assert decimal_str(Fraction(100)) == "100"

    def test_zero(self):
        assert decimal_str(Fraction(0)) == "0"

    def test_small(self):
        assert decimal_str(Fraction(61, 1000)) == "0.061"

    def test_no_exponent_for_large_values(self):
        assert decimal_str(Fraction(10**15)) == "1000000000000000"

    def test_rejects_non_terminating(self):
        with pytest.raises(ValueError):
            decimal_str(Fraction(1, 3))

    def test_fraction_digits(self):
        assert fraction_digits("1.2300") == 4
        assert fraction_digits("12") == 0

    def test_is_finite_decimal(self):
        assert is_finite_decimal(Fraction(1, 8))
        assert is_finite_decimal(Fraction(3, 20))
        assert not is_finite_decimal(Fraction(1, 3))


class TestRoundSig:
    def test_half_even_rounds_down_to_even(self):
        assert round_sig(Fraction(25, 10), 1) == 2

    def test_half_even_rounds_up_to_even(self):
        assert round_sig(Fraction(35, 10), 1) == 4

    def test_above_half_rounds_up(self):
        assert round_sig(Fraction("2.51"), 1) == 3

    def test_sub_one_values(self):
        assert format_sig(Fraction("0.0125"), 2) == "0.012"
        assert format_sig(Fraction("0.0135"), 2) == "0.014"

    def test_zero(self):
        assert round_sig(Fraction(0), 3) == 0
        assert format_sig(Fraction(0), 3) == "0"

    def test_negative(self):
        assert format_sig(Fraction("-1250"), 2) == "-1200"

    def test_keeps_value_when_fewer_digits(self):
        assert format_sig(Fraction("15.16"), 6) == "15.16"

    def test_table_presentation_examples(self):
        assert format_sig(Fraction("1077.844809"), 4) == "1078"
        assert format_sig(Fraction("14.249831"), 4) == "14.25"
        assert format_sig(Fraction("64.778473"), 4) == "64.78"

    def test_rejects_zero_digits(self):
        with pytest.raises(ValueError):
            round_sig(Fraction(1), 0)


# exact decimals: m / 10^p over a wide magnitude range
decimals = st.builds(
    lambda m, p: Fraction(m, 10**p),
    st.integers(min_value=-(10**18), max_value=10**18),
    st.integers(min_value=0, max_value=9),
)


@given(decimals)
def test_parse_round_trips_token(value):
    token = decimal_str(value)
    assert parse_decimal(token) == value


@given(decimals, decimals, decimals)
def test_addition_is_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(decimals, st.integers(min_value=1, max_value=12))
def test_round_sig_is_idempotent(value, sig):
    once = round_sig(value, sig)
    assert round_sig(once, sig) == once


@given(decimals, st.integers(min_value=1, max_value=12))
def test_round_sig_error_bounded_by_half_quantum(value, sig):
    rounded = round_sig(value, sig)
    if value == 0:
        assert rounded == 0
        return
    # relative error of significant-digit rounding is at most 5 * 10^-sig
    assert abs(rounded - value) <= abs(value) * Fraction(5, 10**sig)


# Magnitudes from small to far beyond the 4,300-digit int/str conversion limit.
_magnitudes = st.one_of(
    st.integers(min_value=1, max_value=10**30),
    st.integers(min_value=10**5000, max_value=10**5200),
)
_NORMALIZED = re.compile(r"-?(0|[1-9][0-9]*)(\.[0-9]*[1-9])?")


@st.composite
def _values_and_digits(draw):
    sig = draw(st.integers(min_value=1, max_value=30))
    if draw(st.booleans()):
        # an exact tie: sig digits followed by a 5, at any scale
        head = draw(st.integers(min_value=10 ** (sig - 1), max_value=10**sig - 1))
        value = (head * 10 + 5) * Fraction(10) ** draw(st.integers(min_value=-6000, max_value=6000))
    else:
        value = Fraction(draw(_magnitudes), draw(_magnitudes))
    return (-value if draw(st.booleans()) else value), sig


@settings(max_examples=300, deadline=None)
@given(_values_and_digits())
def test_format_sig_matches_decimal_oracle(case):
    value, sig = case
    context = Context(prec=sig, rounding=ROUND_HALF_EVEN, Emax=MAX_EMAX, Emin=MIN_EMIN)
    expected = context.divide(Decimal(value.numerator), Decimal(value.denominator))
    rendered = format_sig(value, sig)
    assert _NORMALIZED.fullmatch(rendered), rendered[:80]
    # Decimal(str) is exact, so this compares the two values exactly
    assert Decimal(rendered) == expected
    assert round_sig(value, sig) == Fraction(*expected.as_integer_ratio())


@st.composite
def _ratios(draw):
    """(n, d, sig): an exact tie, a value that rounds up to the next power of ten, or any ratio, not reduced."""
    sig = draw(st.integers(min_value=1, max_value=20))
    scale = Fraction(10) ** draw(st.integers(min_value=-40, max_value=40))
    kind = draw(st.sampled_from(("tie", "carry", "any")))
    if kind == "tie":
        head = draw(st.integers(min_value=10 ** (sig - 1), max_value=10**sig - 1))
        value = (head * 10 + 5) * scale
    elif kind == "carry":
        # sig nines and then a digit of 5 or more round up to 10**sig
        value = ((10**sig - 1) * 10 + draw(st.integers(min_value=5, max_value=9))) * scale
    else:
        n = draw(st.integers(min_value=0, max_value=10**40))
        return n, draw(st.integers(min_value=1, max_value=10**40)), sig
    return value.numerator, value.denominator, sig


@settings(max_examples=300, deadline=None)
@given(_ratios(), st.integers(min_value=1, max_value=10**20))
def test_an_unreduced_ratio_rounds_as_its_fraction(case, g):
    n, d, sig = case
    value = Fraction(n, d)
    q, k = _round_half_even(n * g, d * g, sig)
    assert (q, k) == _round_half_even(value.numerator, value.denominator, sig)
    assert format_ratio(n * g, d * g, sig) == format_sig(value, sig)



# The kernel reads 10**i from a table below this bound and computes it above.
_TABLE = len(numeric._POWERS)
_exponents = st.one_of(
    st.integers(min_value=-6000, max_value=6000),
    st.integers(min_value=_TABLE - 25, max_value=_TABLE + 25),
    st.integers(min_value=-_TABLE - 25, max_value=-_TABLE + 25),
)


@st.composite
def _scaled_ratios(draw):
    """(n, d, sig): a tie, a carry or any ratio, times 10**e for e on both sides of the table's bound."""
    sig = draw(st.integers(min_value=1, max_value=20) | st.integers(min_value=_TABLE - 2, max_value=_TABLE + 2))
    kind = draw(st.sampled_from(("tie", "carry", "any")))
    if kind == "tie":
        value = Fraction(draw(st.integers(min_value=10 ** (sig - 1), max_value=10**sig - 1)) * 10 + 5)
    elif kind == "carry":
        value = Fraction((10**sig - 1) * 10 + draw(st.integers(min_value=5, max_value=9)))
    else:
        n = draw(st.integers(min_value=0, max_value=10**40))
        value = Fraction(n, draw(st.integers(min_value=1, max_value=10**40)))
    value *= Fraction(10) ** draw(_exponents)
    return value.numerator, value.denominator, sig


@settings(max_examples=300, deadline=None)
@given(_scaled_ratios(), st.integers(min_value=1, max_value=10**20), st.integers(min_value=0, max_value=12))
def test_a_shifted_ratio_renders_as_its_two_fractions(case, g, shift):
    n, d, sig = case
    value = Fraction(n, d)
    assert format_ratio_shifted(n * g, d * g, sig, shift) == (
        format_sig(value, sig),
        format_sig(value / 10**shift, sig),
    )

def test_format_sig_renders_values_beyond_the_digit_limit():
    huge = Fraction(10**9000 + 1, 3 * 10**4500)
    assert format_sig(huge, 6) == "333333" + "0" * 4494
    assert format_sig(Fraction(1, 7 * 10**6000), 3) == "0." + "0" * 6000 + "143"
