"""``model.Value``: the value types behave as the frozen dataclasses they replace.

Each takes its fields positionally or by name, with its defaults; compares,
hashes and prints by its fields; refuses assignment; and survives ``copy``
and ``pickle``. ``Energy``, ``Carbon`` and ``Share`` order by their one
field. A pool or audit with an empty weight source is refused: None stands
for no source, and an empty one would not read back from a result file.
"""

import copy
import datetime as dt
import pickle
from fractions import Fraction

import pytest

from carbon_ledger import (
    ArgumentMismatch,
    AuditTrail,
    Carbon,
    CoinAmount,
    Energy,
    HoldingRecord,
    Portfolio,
    Share,
    TransactionRecord,
    report,
)
from carbon_ledger.model import Pool

DATE = dt.date(2021, 1, 1)


def test_positional_named_and_default_fields():
    holding = HoldingRecord("a", DATE, CoinAmount(1))
    assert holding == HoldingRecord(amount=CoinAmount(1), entity_id="a", date=DATE)
    assert TransactionRecord("a", DATE, tx_count=2) == TransactionRecord("a", DATE, None, None, 2)
    assert Portfolio("net").holdings == Portfolio("net").transactions == ()
    with pytest.raises(TypeError):
        HoldingRecord("a", DATE)
    with pytest.raises(TypeError):
        HoldingRecord("a", DATE, CoinAmount(1), 4)
    with pytest.raises(TypeError):
        HoldingRecord("a", DATE, CoinAmount(1), entity_id="b")


def test_equality_hash_and_repr_read_the_fields():
    first, second = Portfolio("net", (HoldingRecord("a", DATE, CoinAmount(1)),)), Portfolio("net")
    assert first != second and first == Portfolio("net", (HoldingRecord("a", DATE, CoinAmount(1)),))
    assert hash(first) == hash(copy.copy(first))
    assert Energy(1) != Carbon(1)
    assert repr(second) == "Portfolio(network_id='net', holdings=(), transactions=())"
    assert repr(Share(Fraction(1, 2))) == "Share(value=Fraction(1, 2))"


def test_assignment_raises_attribute_error():
    holding = HoldingRecord("a", DATE, CoinAmount(1))
    for name in ("entity_id", "other"):
        with pytest.raises(AttributeError):
            setattr(holding, name, "b")
    with pytest.raises(AttributeError):
        del holding.entity_id


def test_copies_and_pickles_are_equal():
    row = report.ComparisonRow("n", 1, Energy(1), None, Energy(2), Energy(3), hybrid_tx_carbon=Carbon(4))
    for clone in (copy.copy(row), copy.deepcopy(row), pickle.loads(pickle.dumps(row))):
        assert clone == row and repr(clone) == repr(row)


def test_quantities_order_by_their_field():
    assert Energy(1) < Energy(2) <= Energy(2) and Carbon(3) > Carbon(1) >= Carbon(1)
    assert sorted([Share(1), Share(0)]) == [Share(0), Share(1)]
    with pytest.raises(TypeError):
        Energy(1) < Carbon(2)
    with pytest.raises(TypeError):
        HoldingRecord("a", DATE, CoinAmount(1)) < HoldingRecord("b", DATE, CoinAmount(1))


def test_pools_compare_by_identity():
    pool = Pool(("network",), Fraction(1), (), Fraction(1), None, False, None)
    twin = Pool(("network",), Fraction(1), (), Fraction(1), None, False, None)
    assert pool == pool and pool != twin and len({pool, twin}) == 2


def test_an_empty_weight_source_is_refused():
    with pytest.raises(ArgumentMismatch, match="weight_source is empty"):
        Pool(("network",), Fraction(1), (), Fraction(1), "", False, None)
    with pytest.raises(ArgumentMismatch, match="weight_source is empty"):
        AuditTrail(("network",), Fraction(1), (), Fraction(1), "holding", weight_source="")
