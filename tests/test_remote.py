"""Remote index client: fetch, validate, cache, fail cleanly."""

import datetime as dt
import json
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

import pytest

import carbon_ledger
from carbon_ledger import MalformedResponse, RangeUnavailable, RemoteDayClient, Unreachable
from conftest import POW

START = dt.date(2021, 1, 1)
END = dt.date(2021, 1, 3)


def day_object(date: dt.date) -> dict:
    return {
        "date": date.isoformat(),
        "energy_wh": "1000000",
        "block_reward": "900",
        "tx_fees_total": "60",
        "coin_supply": "18716000",
        "tx_count": 250000,
    }


class _Handler(BaseHTTPRequestHandler):
    server_version = "TestIndex/1"

    def log_message(self, *args):
        pass

    def do_GET(self):
        parsed = urlparse(self.path)
        config = self.server.config
        self.server.requests += 1
        if config.get("status"):
            self.send_response(config["status"])
            self.end_headers()
            return
        if not parsed.path.startswith("/networks/"):
            self.send_response(404)
            self.end_headers()
            return
        if config.get("body") is not None:
            body = config["body"]
        else:
            query = parse_qs(parsed.query)
            first = dt.date.fromisoformat(query["from"][0])
            last = dt.date.fromisoformat(query["to"][0])
            days = []
            current = first
            while current <= last:
                if current not in config.get("skip", ()):
                    days.append(day_object(current))
                current += dt.timedelta(days=1)
            body = json.dumps({"schema_version": "1", "days": days})
        payload = body.encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


def _serve():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    server.config = {}
    server.requests = 0
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        thread.join()


index_server = pytest.fixture(_serve, name="index_server")
other_index_server = pytest.fixture(_serve, name="other_index_server")


def make_client(server, tmp_path) -> RemoteDayClient:
    base = f"http://127.0.0.1:{server.server_address[1]}"
    return RemoteDayClient(base, tmp_path / "cache", POW)


class TestFetchDays:
    def test_empty_range(self, index_server, tmp_path):
        client = make_client(index_server, tmp_path)
        assert client.fetch_days("bitcoin", END, START) == ()
        assert client.fetch_count == 0

    def test_fetch_and_validate(self, index_server, tmp_path):
        client = make_client(index_server, tmp_path)
        days = client.fetch_days("bitcoin", START, END)
        assert [d.date for d in days] == [START, dt.date(2021, 1, 2), END]
        assert days[0].energy.wh == 1000000
        assert client.fetch_count == 1

    def test_cached_range_skips_network(self, index_server, tmp_path):
        client = make_client(index_server, tmp_path)
        first = client.fetch_days("bitcoin", START, END)
        again = client.fetch_days("bitcoin", START, END)
        assert client.fetch_count == 1
        assert again == first

    def test_cache_survives_new_client(self, index_server, tmp_path):
        make_client(index_server, tmp_path).fetch_days("bitcoin", START, END)
        index_server.config["status"] = 500  # a request now would fail
        again = make_client(index_server, tmp_path)
        days = again.fetch_days("bitcoin", START, END)
        assert len(days) == 3
        assert again.fetch_count == 0
        assert index_server.requests == 1

    def test_cache_is_per_index(self, index_server, other_index_server, tmp_path):
        make_client(index_server, tmp_path).fetch_days("bitcoin", START, END)
        other = make_client(other_index_server, tmp_path)
        assert len(other.fetch_days("bitcoin", START, END)) == 3
        assert other.fetch_count == 1
        assert (index_server.requests, other_index_server.requests) == (1, 1)
        # each index's entries are kept apart, and a URL cannot shape the path
        first, second = make_client(index_server, tmp_path), other
        assert first._cache_path("bitcoin", START) != second._cache_path("bitcoin", START)
        hostile = RemoteDayClient("http://x/../../../etc", tmp_path / "cache", POW)
        assert hostile._cache_path("bitcoin", START).parent.parent.parent == tmp_path / "cache"

    def test_subrange_served_from_cache(self, index_server, tmp_path):
        client = make_client(index_server, tmp_path)
        client.fetch_days("bitcoin", START, END)
        client.fetch_days("bitcoin", START, dt.date(2021, 1, 2))
        assert client.fetch_count == 1

    def test_unreachable(self, tmp_path):
        client = RemoteDayClient("http://127.0.0.1:1", tmp_path / "cache", POW)
        with pytest.raises(Unreachable):
            client.fetch_days("bitcoin", START, END)

    def test_http_404_is_range_unavailable(self, index_server, tmp_path):
        index_server.config["status"] = 404
        client = make_client(index_server, tmp_path)
        with pytest.raises(RangeUnavailable):
            client.fetch_days("bitcoin", START, END)

    def test_incomplete_range(self, index_server, tmp_path):
        index_server.config["skip"] = {dt.date(2021, 1, 2)}
        client = make_client(index_server, tmp_path)
        with pytest.raises(RangeUnavailable) as excinfo:
            client.fetch_days("bitcoin", START, END)
        assert "2021-01-02" in str(excinfo.value)

    def test_invalid_json(self, index_server, tmp_path):
        index_server.config["body"] = "{not json"
        client = make_client(index_server, tmp_path)
        with pytest.raises(MalformedResponse):
            client.fetch_days("bitcoin", START, END)

    def test_number_beyond_digit_limit_is_malformed(self, index_server, tmp_path):
        # json.loads raises a ValueError that is not a JSONDecodeError past 4,300 digits
        index_server.config["body"] = '{"schema_version": "1", "days": [' + "1" * 5000 + "]}"
        client = make_client(index_server, tmp_path)
        with pytest.raises(MalformedResponse) as excinfo:
            client.fetch_days("bitcoin", START, END)
        assert "not valid JSON" in str(excinfo.value)

    def test_row_failing_invariants(self, index_server, tmp_path):
        bad = day_object(START)
        bad["energy_wh"] = "-5"
        index_server.config["body"] = json.dumps({"schema_version": "1", "days": [bad]})
        client = make_client(index_server, tmp_path)
        with pytest.raises(MalformedResponse) as excinfo:
            client.fetch_days("bitcoin", START, START)
        assert "energy_wh" in str(excinfo.value)

    def test_wrong_shape(self, index_server, tmp_path):
        index_server.config["body"] = json.dumps(["not", "an", "object"])
        client = make_client(index_server, tmp_path)
        with pytest.raises(MalformedResponse):
            client.fetch_days("bitcoin", START, END)


class TestRemoteThroughCli:
    def test_series_from_remote_with_cache(self, index_server, tmp_path):
        from click.testing import CliRunner

        from carbon_ledger.cli import main

        base = f"http://127.0.0.1:{index_server.server_address[1]}"
        args = [
            "series",
            "--remote",
            base,
            "--cache-dir",
            str(tmp_path / "cache"),
            "--network",
            "bitcoin",
            "--consensus",
            "pow",
            "--from",
            "2021-01-01",
            "--to",
            "2021-01-03",
        ]
        runner = CliRunner()
        first = runner.invoke(main, args)
        assert first.exit_code == 0, first.output
        assert first.output.splitlines()[1] == "2021-01-01,0.0625"
        # second run is served from the per-day cache, though a request would now fail
        index_server.config["status"] = 500
        offline = runner.invoke(main, args)
        assert offline.exit_code == 0
        assert offline.output == first.output
        assert index_server.requests == 1

    def test_remote_requires_range(self, tmp_path):
        from click.testing import CliRunner

        from carbon_ledger.cli import main

        result = CliRunner().invoke(
            main,
            ["series", "--remote", "http://127.0.0.1:1", "--network", "x", "--consensus", "pow"],
        )
        assert result.exit_code == 2

    def test_a_range_ending_on_the_last_calendar_day_fails_cleanly(self, tmp_path):
        from click.testing import CliRunner

        from carbon_ledger.cli import main

        args = ["series", "--remote", "http://127.0.0.1:9", "--cache-dir", str(tmp_path), "--network", "x",
                "--consensus", "pow", "--from", "9999-12-31", "--to", "9999-12-31"]
        result = CliRunner().invoke(main, args)
        # the connection error, one line: the range itself neither overflows nor tracebacks
        assert result.exit_code == 2
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("http://127.0.0.1:9/networks/x/days?from=9999-12-31&to=9999-12-31: ")


def test_date_range_reaches_the_last_calendar_day():
    assert carbon_ledger.remote.date_range(dt.date.max, dt.date.max) == [dt.date.max]
    assert carbon_ledger.remote.date_range(END, START) == []


class TestNetworkIds:
    @pytest.mark.parametrize(
        "network_id", ["../../x", "a/b", "..", ".hidden", "", "x" * 65, "x%2f..", "bit coin", "a\\b"]
    )
    def test_unsafe_id_rejected_before_any_request(self, tmp_path, network_id):
        client = RemoteDayClient("http://127.0.0.1:1", tmp_path / "cache", POW)
        with pytest.raises(ValueError, match="unsafe network id"):
            client.fetch_days(network_id, START, END)
        assert client.fetch_count == 0
        assert not (tmp_path / "cache").exists()

    def test_safe_ids_accepted(self, index_server, tmp_path):
        client = make_client(index_server, tmp_path)
        for network_id in ["bitcoin", "eth-mainnet", "l2_v2.0", "x" * 64]:
            assert len(client.fetch_days(network_id, START, END)) == 3
            assert client._cache_path(network_id, START).exists()
            assert client._cache_path(network_id, START).parent.name == network_id

    def test_cli_traversal_id_exits_two_and_writes_nothing(self, index_server, tmp_path):
        from click.testing import CliRunner

        from carbon_ledger.cli import main

        cache = tmp_path / "work" / "cache"
        cache.mkdir(parents=True)
        result = CliRunner().invoke(
            main,
            [
                "series",
                "--remote",
                f"http://127.0.0.1:{index_server.server_address[1]}",
                "--cache-dir",
                str(cache),
                "--network",
                "../../x",
                "--consensus",
                "pow",
                "--from",
                "2021-01-01",
                "--to",
                "2021-01-03",
            ],
        )
        assert result.exit_code == 2
        assert "--network" in result.output
        assert [path for path in tmp_path.rglob("*") if path != cache.parent and path != cache] == []


class TestCacheRecovery:
    @pytest.mark.parametrize(
        "damage",
        [
            lambda text: text[: len(text) // 2],
            lambda text: "",
            lambda text: "\udcff",
            lambda text: json.dumps(["not", "a", "day"]),
            lambda text: text.replace('"2021-01-02"', '"2021-01-03"'),
        ],
        ids=["truncated", "empty", "undecodable", "not-an-object", "other-date"],
    )
    def test_damaged_entry_is_refetched_and_rewritten(self, index_server, tmp_path, damage):
        client = make_client(index_server, tmp_path)
        first = client.fetch_days("bitcoin", START, END)
        entry = client._cache_path("bitcoin", dt.date(2021, 1, 2))
        intact = entry.read_text()
        entry.write_text(damage(intact), errors="surrogateescape")
        again = client.fetch_days("bitcoin", START, END)
        assert client.fetch_count == 2
        assert again == first
        assert entry.read_text() == intact

    def test_writes_leave_no_temp_files(self, index_server, tmp_path):
        client = make_client(index_server, tmp_path)
        client.fetch_days("bitcoin", START, END)
        names = sorted(path.name for path in client._cache_path("bitcoin", START).parent.iterdir())
        assert names == ["2021-01-01.json", "2021-01-02.json", "2021-01-03.json"]


class TestCliExitCodes:
    @pytest.mark.parametrize(
        "config, code, message",
        [
            ({"status": 500}, 2, "HTTP 500"),
            ({"status": 404}, 2, "not available (404)"),
            ({"skip": {START}}, 2, "does not cover 2021-01-01"),
            ({"body": "{not json"}, 1, "not valid JSON"),
        ],
        ids=["unreachable", "range-unavailable", "range-not-covered", "malformed-response"],
    )
    def test_allocate_remote_failure_exit_code(self, index_server, tmp_path, config, code, message):
        from click.testing import CliRunner

        from carbon_ledger.cli import main

        portfolio = tmp_path / "portfolio.json"
        portfolio.write_text(
            json.dumps(
                {
                    "schema_version": "1",
                    "network_id": "bitcoin",
                    "holdings": [{"entity_id": "a", "date": "2021-01-01", "amount": "1"}],
                }
            )
        )
        index_server.config.update(config)
        result = CliRunner().invoke(
            main,
            [
                "allocate",
                "--remote",
                f"http://127.0.0.1:{index_server.server_address[1]}",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--network",
                "bitcoin",
                "--consensus",
                "pow",
                "--portfolio",
                str(portfolio),
                "--method",
                "holding",
                "--from",
                "2021-01-01",
                "--to",
                "2021-01-03",
            ],
        )
        assert result.exit_code == code, result.output
        assert message in result.stderr
        assert result.stdout == ""


def test_cli_import_leaves_http_stack_unloaded():
    # warm-cache and --days runs never make a request, so they never pay for the HTTP stack
    # (nor for OpenSSL, which hashlib loads)
    src = str(Path(carbon_ledger.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    stack = "{'urllib.request', 'http.client', 'ssl', '_hashlib'}"
    probe = f"import sys, carbon_ledger.cli; print(sorted({stack} & set(sys.modules)))"
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert loaded.stdout == "[]\n"
