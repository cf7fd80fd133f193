"""Layer-2 and token-network attribution: inherit from layer 1, reallocate within.

A layer-2's footprint is the slice of the layer-1 transaction pool its
anchoring activity causes, plus its own infrastructure consumption. That
total then becomes the energy of a synthetic network day, and the ordinary
allocation engine runs on it unchanged; the audit scope records the
provenance chain, and nothing stops an L3 from repeating the construction.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, replace

from . import engine
from .errors import ArgumentMismatch, RowProblem
from .model import AllocationResult, ConsensusParams, Energy, Method, NetworkDay, Portfolio, Share


@dataclass(frozen=True, slots=True)
class Layer2Day:
    """One day of a layer-2 network: its layer-1 footprint plus its own.

    ``l1_fee_share`` is the share of the layer-1 day's transaction fees (or
    gas) caused by the L2's anchoring transactions. ``infra_energy`` is the
    L2's measured node consumption, ingested, not estimated here.
    ``internal_day`` carries the L2's own telemetry in network-day shape so
    allocation can recurse into it.
    """

    l2_id: str
    date: _dt.date
    l1_fee_share: Share
    infra_energy: Energy
    internal_day: NetworkDay

    def __post_init__(self):
        if self.internal_day.date != self.date:
            raise RowProblem("internal_day", "internal day date must match entry date")


def l2_inherited(l1_day: NetworkDay, l1_weights: engine.MethodWeights, l2: Layer2Day) -> Energy:
    """The layer-1 transaction-pool slice attributable to the L2's anchoring."""
    if l2.date != l1_day.date:
        raise ArgumentMismatch(f"layer-2 day {l2.date} does not match layer-1 day {l1_day.date}")
    return Energy(engine.plan_day(l1_day, l1_weights, Method.HYBRID).transaction.wh * l2.l1_fee_share.value)


def l2_total_footprint(
    l1_day: NetworkDay, l1_weights: engine.MethodWeights, l2: Layer2Day
) -> Energy:
    """Inherited layer-1 attribution plus the L2's own infrastructure energy."""
    return Energy(l2_inherited(l1_day, l1_weights, l2).wh + l2.infra_energy.wh)


def synthetic_day(total: Energy, l2: Layer2Day) -> NetworkDay:
    """The L2's internal telemetry with the combined footprint as its energy."""
    return replace(l2.internal_day, energy=total)


def allocate_within_l2(
    total: Energy,
    l2: Layer2Day,
    l2_params: ConsensusParams,
    portfolio: Portfolio,
    method: Method,
    scope: tuple[str, ...] = engine.NETWORK_SCOPE,
) -> tuple[AllocationResult, ...]:
    """Re-run hybrid (or pure) allocation inside the L2 over its total footprint.

    This is ``allocate_portfolio`` on the one synthetic day, over the
    portfolio's records of that day, so every engine property (conservation,
    boundaries, linearity) carries over; the audit scope gains an ``l2:<id>``
    element marking the provenance.
    """
    day = synthetic_day(total, l2)
    on_day = portfolio.between(day.date, day.date)
    return engine.allocate_portfolio((day,), l2_params, on_day, method, scope + (f"l2:{l2.l2_id}",)).results
