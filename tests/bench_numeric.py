"""Micro-benchmarks for the half-even rendering kernel.

Not collected by the default test run (the file name does not match
``test_*.py``); run explicitly:

    pytest tests/bench_numeric.py

Row-sized values look like one allocation's cells (6-decimal energy times
8-decimal shares); the summary-sized value has the ~9,000-digit denominator
that a one-year period summary reaches.
"""

import random
from fractions import Fraction

import pytest

from carbon_ledger.numeric import format_sig, round_sig

_rng = random.Random(7)
ROW_VALUES = [
    Fraction(_rng.randrange(10**17, 10**18), 10**6)
    * Fraction(_rng.randrange(1, 10**8), _rng.randrange(10**15, 10**16))
    for _ in range(200)
]
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
