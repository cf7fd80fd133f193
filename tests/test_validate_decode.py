"""``validate`` walks each JSON file once and parses the walked document through ``ingestion.parse_*_json``."""

import datetime as dt
import json
from fractions import Fraction

from click.testing import CliRunner

from carbon_ledger import (
    AppBundle,
    AppDay,
    CoinAmount,
    HoldingRecord,
    Portfolio,
    Share,
    TokenHolding,
    ingestion,
    serialize_apps,
    serialize_network_csv,
    serialize_portfolio,
)
from carbon_ledger.cli import main
from conftest import bitcoin_2021_days

D1 = dt.date(2021, 1, 1)


def test_each_json_file_is_decoded_once(tmp_path, monkeypatch):
    days = tmp_path / "days.csv"
    days.write_text(serialize_network_csv(bitcoin_2021_days()[:2]))
    portfolio = tmp_path / "portfolio.json"
    holdings = (HoldingRecord("alice", D1, CoinAmount(Fraction(3))),)
    portfolio.write_text(serialize_portfolio(Portfolio("bitcoin", holdings=holdings)))
    apps = tmp_path / "apps.json"
    app = AppDay("dex", D1, Share(Fraction(1, 2)), 10, CoinAmount(Fraction(100)))
    holder = TokenHolding("alice", "dex", D1, CoinAmount(Fraction(5)))
    apps.write_text(serialize_apps(AppBundle((app,), (holder,))))

    walked, whole, parsed = [], [], []
    real_members, real_loads = ingestion._members, json.loads
    monkeypatch.setattr(ingestion, "_members", lambda text, source: walked.append(source) or real_members(text, source))
    monkeypatch.setattr(json, "loads", lambda text, **kw: whole.append(text) or real_loads(text, **kw))
    for name in ("parse_portfolio_json", "parse_apps_json"):
        real = getattr(ingestion, name)
        monkeypatch.setattr(
            ingestion, name, lambda *args, _real=real, _name=name: parsed.append(_name) or _real(*args)
        )

    args = ["validate", str(days), str(portfolio), str(apps), "--network", "bitcoin", "--consensus", "pow"]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    assert walked == ["portfolio.json", "apps.json"]
    assert whole == []  # valid text is walked member by member, never decoded whole
    assert parsed == ["parse_portfolio_json", "parse_apps_json"]
