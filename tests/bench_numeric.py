"""Micro-benchmarks for the half-even rendering kernel.

Not collected by the default test run (the file name does not match
``test_*.py``); run explicitly:

    pytest tests/bench_numeric.py

Row-sized values look like one allocation's cells (6-decimal energy times
8-decimal shares); the summary-sized value has the ~9,000-digit denominator
that a one-year period summary reaches. Row-sized ratios are what a result
cell rounds: an unreduced numerator and denominator of about 150 bits,
through ``format_ratio`` (a share or carbon cell) and
``format_ratio_shifted`` (a Wh and kWh pair from one rounding).
"""

import random
from fractions import Fraction

import pytest

from carbon_ledger.numeric import format_ratio, format_ratio_shifted, format_sig, round_sig

_rng = random.Random(7)
ROW_VALUES = [
    Fraction(_rng.randrange(10**17, 10**18), 10**6)
    * Fraction(_rng.randrange(1, 10**8), _rng.randrange(10**15, 10**16))
    for _ in range(200)
]
# unreduced, as a cell's (pool Wh numerator x quantity) / (pool Wh denominator x total)
ROW_RATIOS = [(_rng.randrange(2**130, 2**150), _rng.randrange(2**140, 2**150)) for _ in range(200)]
SUMMARY_VALUE = Fraction(_rng.randrange(10**8990, 10**9000), _rng.randrange(10**8995, 10**9000))


def _render_rows(function, sig_digits):
    for value in ROW_VALUES:
        function(value, sig_digits)


@pytest.mark.parametrize("sig_digits", [6, 12])
def test_format_sig_rows(benchmark, sig_digits):
    benchmark(_render_rows, format_sig, sig_digits)


def test_format_sig_summary(benchmark):
    benchmark(format_sig, SUMMARY_VALUE, 6)


def test_round_sig_rows(benchmark):
    benchmark(_render_rows, round_sig, 6)


def test_round_sig_summary(benchmark):
    benchmark(round_sig, SUMMARY_VALUE, 6)


@pytest.mark.parametrize("sig_digits", [6, 12])
def test_format_ratio_rows(benchmark, sig_digits):
    def render():
        for n, d in ROW_RATIOS:
            format_ratio(n, d, sig_digits)

    benchmark(render)


def test_format_ratio_shifted_rows(benchmark):
    def render():
        for n, d in ROW_RATIOS:
            format_ratio_shifted(n, d, 6, 3)

    benchmark(render)
