"""Exact numeric kernel: decimal tokens in, rationals inside, decimals out.

All quantities are carried as ``fractions.Fraction`` so that sums, products,
and divisions stay exact and conservation identities close with zero residual.
Binary floats never touch a value. Decimal strings appear only at the I/O
boundary: input tokens are parsed exactly, and output is rounded half-even at
a configurable number of significant digits as the final step. The one
rounding kernel reads a non-negative ratio of two integers, reduced or not,
so a value carried as an unreduced ratio is rendered without a ``Fraction``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ArgumentMismatch, InvalidValue

# Plain decimal tokens only: optional sign, ASCII digits, optional fractional
# part. No exponents, no thousands separators, no other scripts' digits, no
# leading/trailing whitespace (matched with fullmatch: ``$`` would also accept
# a trailing newline).
_DECIMAL_TOKEN = re.compile(r"([+-]?)(\d+)(?:\.(\d+))?", re.ASCII)

DEFAULT_SIG_DIGITS = 6


def split_decimal(token: str) -> tuple[Fraction, int]:
    """Exact value and fractional digit count of a plain decimal token, from one match.

    Raises InvalidValue (a ValueError) for anything that is not a plain decimal literal
    (exponents and thousands separators are rejected on purpose: they are
    the formats that silently lose precision elsewhere).
    """
    match = _DECIMAL_TOKEN.fullmatch(token)
    if match is None:
        raise InvalidValue(f"not a plain decimal: {token!r}")
    sign, whole, fraction = match.groups()
    if fraction is None:
        return Fraction(int(sign + whole)), 0
    # the digits with the point removed, read by one int(), are the value times 10**places
    places = len(fraction)
    return Fraction(int(sign + whole + fraction), 10**places), places


def parse_decimal(token: str) -> Fraction:
    """Parse a plain decimal token into an exact Fraction (see ``split_decimal``)."""
    return split_decimal(token)[0]


def fraction_digits(token: str) -> int:
    """Number of fractional digits in a decimal token (0 if none)."""
    return split_decimal(token)[1]


def is_finite_decimal(value: Fraction) -> bool:
    """True if the fraction has an exact finite decimal expansion."""
    d = value.denominator
    for p in (2, 5):
        while d % p == 0:
            d //= p
    return d == 1


def _placed(digits: str, k: int) -> str:
    """Normalized decimal string of int(digits) * 10**k, for digits with no trailing zero."""
    if k >= 0:
        return digits + "0" * k
    point = len(digits) + k
    if point > 0:
        return f"{digits[:point]}.{digits[point:]}"
    return f"0.{'0' * -point}{digits}"


def _render(q: int, k: int) -> str:
    """Normalized decimal string of q * 10**k for q >= 0: no exponent, no trailing zeros."""
    if q == 0:
        return "0"
    text = str(q)
    digits = text.rstrip("0")
    return _placed(digits, k + len(text) - len(digits))


def _sign(value: Fraction) -> str:
    return "-" if value.numerator < 0 else ""


def decimal_str(value: Fraction) -> str:
    """Render an exact finite decimal, normalized (no trailing zeros).

    Raises ArgumentMismatch (a ValueError) if the value has no finite decimal
    expansion; callers that may hold arbitrary rationals must round first
    (``format_sig``).
    """
    d, twos, fives = value.denominator, 0, 0
    while d % 2 == 0:
        d, twos = d // 2, twos + 1
    while d % 5 == 0:
        d, fives = d // 5, fives + 1
    if d != 1:
        raise ArgumentMismatch(f"{value!r} has no finite decimal expansion")
    k = max(twos, fives)
    return _sign(value) + _render(abs(value.numerator) * 10**k // value.denominator, -k)


def _round_half_even(n: int, d: int, sig_digits: int) -> tuple[int, int]:
    """(q, k) with n/d rounded half-even to ``sig_digits`` equal to q * 10**k.

    The ratio is non-negative (n >= 0, d > 0) and need not be reduced: the
    quotient and the tie test read only n/d's value. Integer-only: no big
    integer is turned into a string, and the tie is exact.
    """
    if sig_digits < 1:
        raise ArgumentMismatch("sig_digits must be >= 1")
    if n == 0:
        return 0, 0
    low, high = 10 ** (sig_digits - 1), 10**sig_digits
    # floor(log10(n/d)) estimated from bit lengths; the loop makes it exact
    k = (n.bit_length() - d.bit_length()) * 30103 // 100000 - sig_digits + 1
    while True:
        num, div = (n, d * 10**k) if k >= 0 else (n * 10**-k, d)
        q, r = divmod(num, div)
        if low <= q < high:
            break
        k += 1 if q >= high else -1
    if 2 * r > div or (2 * r == div and q % 2 == 1):
        q += 1
        if q == high:
            q, k = low, k + 1
    return q, k


def round_sig(value: Fraction, sig_digits: int = DEFAULT_SIG_DIGITS) -> Fraction:
    """Round half-even to ``sig_digits`` significant digits; shares ``format_sig``'s kernel."""
    q, k = _round_half_even(abs(value.numerator), value.denominator, sig_digits)
    return (-q if value.numerator < 0 else q) * Fraction(10) ** k


def format_ratio(n: int, d: int, sig_digits: int = DEFAULT_SIG_DIGITS) -> str:
    """``format_sig`` of n/d for integers n >= 0 and d > 0, without reducing the ratio."""
    return _render(*_round_half_even(n, d, sig_digits))


def format_ratio_shifted(n: int, d: int, sig_digits: int, shift: int) -> tuple[str, str]:
    """``format_ratio`` of n/d and of n/d / 10**shift, from one rounding.

    Rounding to significant digits commutes with powers of ten, so the same
    (q, k) renders both; this is how Wh and kWh cells are made together.
    """
    q, k = _round_half_even(n, d, sig_digits)
    if q == 0:
        return "0", "0"
    # one digit strip for both cells
    text = str(q)
    digits = text.rstrip("0")
    k += len(text) - len(digits)
    return _placed(digits, k), _placed(digits, k - shift)


def format_sig(value: Fraction, sig_digits: int = DEFAULT_SIG_DIGITS) -> str:
    """Round half-even to significant digits and render a normalized decimal."""
    return _sign(value) + format_ratio(abs(value.numerator), value.denominator, sig_digits)


def format_sig_shifted(value: Fraction, sig_digits: int, shift: int) -> tuple[str, str]:
    """``format_sig`` of value and of value / 10**shift, from one rounding (``format_ratio_shifted``)."""
    sign = _sign(value)
    unshifted, shifted = format_ratio_shifted(abs(value.numerator), value.denominator, sig_digits, shift)
    return sign + unshifted, sign + shifted
