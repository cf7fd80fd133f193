"""What `validate` passes in an app or layer-2 file, the library allocators allocate.

No command allocates an apps or layer-2 file, so "validate ok implies
allocate ok" is stated here through the library: for every bundle of days,
apps and layer-2 descriptors that ``validate_files`` passes, ``app_pool``,
``unattributed_remainder``, ``allocate_token_holding``, ``allocate_app_hybrid``
(token holdings only), ``l2_total_footprint`` and ``allocate_within_l2`` all
succeed, the app pools plus the remainder are the day's transaction pool with
zero residual, and a layer-2 portfolio that holds its whole effective supply
and makes all its transactions is allocated its whole footprint under every
method that has something to allocate it to.
"""

import json
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from carbon_ledger import (
    CoinAmount,
    Consensus,
    ConsensusParams,
    HoldingRecord,
    Method,
    Portfolio,
    TransactionRecord,
    allocate_app_hybrid,
    allocate_token_holding,
    allocate_within_l2,
    app_pool,
    l2_total_footprint,
    load_apps_json,
    load_network_csv,
    method_weights,
    transaction_pool,
    unattributed_remainder,
)
from carbon_ledger.ingestion import parse_l2_json, validate_files
from test_validate_allocate import HEADER

DATES = ("2021-01-01", "2021-01-02")
APP_IDS = ("dex", "nft")
L2_IDS = ("rollup", "zk")


def _day_row(draw, kind, date):
    tx_count = draw(st.sampled_from([0, 10]))
    fees = draw(st.sampled_from(["0"] if tx_count == 0 else ["0", "1", "3"]))
    lost = draw(st.sampled_from(["", "0.5"]))
    gas = draw(st.sampled_from(["", "0"] if tx_count == 0 else ["", "100"]))
    if kind == "pow":
        reward = draw(st.sampled_from(["6"] if fees == "0" else ["0", "6"]))
        return f"{date},1000,{reward},{fees},100,{lost},{tx_count},{gas},,"
    return f"{date},1000,,{fees},100,{lost},{tx_count},{gas},{'0' if tx_count == 0 else '0.1'},"


def _internal_day(draw, date):
    tx_count = draw(st.sampled_from([0, 5]))
    supply = draw(st.sampled_from(["50", "0.3"]))
    internal = {"date": date, "energy_wh": "7", "coin_supply": supply, "tx_count": tx_count}
    shape = draw(st.sampled_from(["pow", "pos", "both", "both"]))  # the columns of either kind, or of both
    if shape != "pos":
        reward = draw(st.sampled_from(["2"] if tx_count == 0 else ["0", "2"]))  # never zero miner revenue
        internal.update(block_reward=reward, tx_fees_total="0" if tx_count == 0 else "1")
    if shape != "pow":
        internal["pos_tx_share"] = "0" if tx_count == 0 else "0.25"
    return internal


@st.composite
def bundles(draw):
    """A days CSV, an apps file and one or two layer-2 files, with values below, at and above each bound."""
    kind = draw(st.sampled_from(["pow", "pos"]))
    dates = DATES[: draw(st.integers(1, 2))]
    days = HEADER + "\n" + "\n".join(_day_row(draw, kind, date) for date in dates) + "\n"
    keys = lambda ids: st.sets(st.tuples(st.sampled_from(ids), st.sampled_from(dates)), min_size=1, max_size=3)
    apps, app_keys = [], sorted(draw(keys(APP_IDS)))
    for app_id, date in app_keys:
        app = {"app_id": app_id, "date": date, "app_tx_count": draw(st.sampled_from([0, 10])),
               "app_fee_share": draw(st.sampled_from(["0", "0.25", "0.5", "0.75", "1"]))}
        supply = draw(st.sampled_from([None, "1000", "0.5"]))
        if supply is not None:
            app["token_supply"] = supply
        apps.append(app)
    token_holdings = [
        {"entity_id": f"h{index}", "app_id": app_id, "date": date,
         "amount": draw(st.sampled_from(["0", "0.5", "1", "1000", "1000.5"]))}
        for index, (app_id, date) in enumerate(draw(st.lists(st.sampled_from(app_keys), max_size=3)))
    ]
    entries = []
    for l2_id, date in sorted(draw(keys(L2_IDS))):
        entry = {"l2_id": l2_id, "date": date, "l1_fee_share": draw(st.sampled_from(["0", "0.2"])),
                 "infra_energy_wh": "30", "internal_day": _internal_day(draw, date)}
        declared = draw(st.sampled_from([None, "pow", "pos"]))
        if declared is not None:
            entry["consensus"] = declared
        entries.append(entry)
    split = draw(st.integers(0, len(entries)))
    apps_document = {"schema_version": "1", "apps": apps, "token_holdings": token_holdings}
    l2_files = [{"schema_version": "1", "l2s": part} for part in (entries[:split], entries[split:]) if part]
    return kind, days, apps_document, l2_files


def _l2_portfolio(l2):
    """The whole effective supply of the layer-2's day, and every transaction of it when it has any."""
    internal = l2.internal_day
    holdings = (HoldingRecord("all-coins", l2.date, CoinAmount(internal.effective_supply())),)
    transactions = (TransactionRecord("all-txs", l2.date, None, None, internal.tx_count),) if internal.tx_count else ()
    return Portfolio(l2.l2_id, holdings, transactions)


@settings(max_examples=300, deadline=None)
@given(bundles())
def test_validated_app_and_l2_bundles_allocate_and_conserve(bundle):
    kind, days_csv, apps_document, l2_files = bundle
    params = ConsensusParams(Consensus(kind))
    with tempfile.TemporaryDirectory() as directory:
        paths = [Path(directory) / "days.csv", Path(directory) / "apps.json"]
        paths[0].write_text(days_csv)
        paths[1].write_text(json.dumps(apps_document))
        for index, document in enumerate(l2_files):
            paths.append(Path(directory) / f"l2-{index}.json")
            paths[-1].write_text(json.dumps(document))
        if validate_files(paths, "btc", params, 18):
            return
        days = load_network_csv(paths[0], "btc", params).day_map()
        registry = load_apps_json(paths[1])
    # the layer-2 files' entries in one document, in argument order: the same first-valid-entry rule
    l2s = parse_l2_json({"schema_version": "1", "l2s": [e for d in l2_files for e in d["l2s"]]}, "l2.json", params)

    for date, day in days.items():
        weights = method_weights(day, params)
        apps = [app for app in registry.apps if app.date == date]
        pools = [app_pool(day, weights, app).wh for app in apps]
        remainder = unattributed_remainder(day, weights, apps).wh
        assert sum(pools, Fraction(0)) + remainder == transaction_pool(day, weights).wh
    by_key = {(app.app_id, app.date): app for app in registry.apps}
    for holding in registry.token_holdings:
        day, app = days[holding.date], by_key[(holding.app_id, holding.date)]
        weights = method_weights(day, params)
        allocate_token_holding(day, weights, app, holding)
        allocate_app_hybrid(day, weights, app, holding, (), params)
    for l2 in l2s.entries:
        day = days[l2.date]
        total = l2_total_footprint(day, method_weights(day, params), l2)
        l2_params = ConsensusParams(l2s.consensus.get(l2.l2_id, params.kind))
        for method in Method:
            results = allocate_within_l2(total, l2, l2_params, _l2_portfolio(l2), method)
            if method is not Method.TRANSACTION_BASED or l2.internal_day.tx_count:
                assert sum((r.energy.wh for r in results), Fraction(0)) == total.wh
