"""Optional remote index client: fetch network days over HTTP, cache locally.

The endpoint shape is ``GET {base}/networks/{network_id}/days?from=...&to=...``
returning ``{"schema_version": "1", "days": [{...}]}`` where each day object
uses the same field names as the network CSV columns, decimals as strings.
Fetched days are cached one file per day so any rerun over a covered range is
served offline; ``fetch_count`` exposes how many HTTP calls were made. The
cache directory holds one directory per index, named by a hash of its base
URL, so indexes that share a cache directory never serve each other's days.
Each cache file is written whole (temp file, then rename), and an entry that
cannot be read back as the day it names counts as a miss, so its range is
fetched again and the entry rewritten.
"""

from __future__ import annotations

import datetime as _dt
import json
import os
import re
import urllib.parse
from pathlib import Path

from .errors import MalformedResponse, RangeUnavailable, RowProblem, Unreachable
from .ingestion import DEFAULT_COIN_DECIMALS, day_from_fields, day_to_fields
from .model import ConsensusParams, NetworkDay


# Network ids become one path segment of both the URL and the cache path, so
# separators, dot-only names and percent-escapes are never accepted.
_SAFE_NETWORK_ID = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,63}")


def check_network_id(network_id: str) -> None:
    """Raise ValueError unless the id is safe as a URL and file path segment."""
    if _SAFE_NETWORK_ID.fullmatch(network_id) is None:
        raise ValueError(
            f"unsafe network id {network_id!r}: expected 1-64 characters from "
            "A-Z a-z 0-9 . _ -, starting with a letter or digit"
        )


def _index_name(base_url: str) -> str:
    """An index's cache directory name: the 64-bit FNV-1a hash of its base URL, in hex.

    Fixed length and charset, so no URL can shape the cache path. Not
    hashlib: importing it loads OpenSSL, about 3.6 MiB more peak RSS per run.
    """
    value = 0xCBF29CE484222325
    for byte in base_url.encode("utf-8", "surrogatepass"):
        value = (value ^ byte) * 0x100000001B3 % 2**64
    return f"{value:016x}"


def date_range(start: _dt.date, end: _dt.date) -> list[_dt.date]:
    """All days from start to end inclusive; empty when start > end."""
    return [_dt.date.fromordinal(ordinal) for ordinal in range(start.toordinal(), end.toordinal() + 1)]


class RemoteDayClient:
    """Fetches validated network days from a remote index, caching per day."""

    def __init__(
        self,
        base_url: str,
        cache_dir: str | Path,
        consensus: ConsensusParams,
        coin_decimals: int = DEFAULT_COIN_DECIMALS,
        timeout: float = 30.0,
    ):
        self.base_url = base_url.rstrip("/")
        self.cache_dir = Path(cache_dir)
        self._index_dir = _index_name(self.base_url)
        self.consensus = consensus
        self.coin_decimals = coin_decimals
        self.timeout = timeout
        self.fetch_count = 0

    def _cache_path(self, network_id: str, date: _dt.date) -> Path:
        return self.cache_dir / self._index_dir / network_id / f"{date.isoformat()}.json"

    def _day_from_object(self, obj, network_id: str) -> NetworkDay:
        if not isinstance(obj, dict):
            raise MalformedResponse(f"{network_id}: day entry must be an object")
        try:
            return day_from_fields(obj, self.consensus, self.coin_decimals)
        except RowProblem as problem:
            column = f" column {problem.column!r}" if problem.column else ""
            raise MalformedResponse(
                f"{network_id} day {obj.get('date')!r}{column}: {problem.reason}"
            ) from None

    def _read_cached(self, network_id: str, date: _dt.date) -> NetworkDay | None:
        """The cached day, or None when its entry is missing, unreadable or invalid."""
        try:
            text = self._cache_path(network_id, date).read_text(encoding="utf-8")
            day = day_from_fields(json.loads(text), self.consensus, self.coin_decimals)
        except (OSError, ValueError):  # a RowProblem is a ValueError
            return None
        return day if day.date == date else None

    def _write_cache(self, network_id: str, day: NetworkDay) -> None:
        """Write one day's entry whole: a temp file in the same directory, then a rename."""
        path = self._cache_path(network_id, day.date)
        path.parent.mkdir(parents=True, exist_ok=True)
        temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        temp.write_text(json.dumps(day_to_fields(day), indent=2, sort_keys=True) + "\n", encoding="utf-8")
        os.replace(temp, path)

    def _http_get(self, network_id: str, start: _dt.date, end: _dt.date) -> dict:
        # imported here: the HTTP stack (http.client, ssl, email) costs tens of
        # milliseconds to import, and warm-cache and --days runs never use it
        import urllib.error
        import urllib.request

        query = urllib.parse.urlencode({"from": start.isoformat(), "to": end.isoformat()})
        url = f"{self.base_url}/networks/{urllib.parse.quote(network_id)}/days?{query}"
        self.fetch_count += 1
        try:
            with urllib.request.urlopen(url, timeout=self.timeout) as response:
                body = response.read()
        except urllib.error.HTTPError as exc:
            if exc.code == 404 or exc.code == 416:
                raise RangeUnavailable(
                    f"{network_id}: {start}..{end} not available ({exc.code})"
                ) from None
            raise Unreachable(f"{url}: HTTP {exc.code}") from None
        except (urllib.error.URLError, TimeoutError, OSError) as exc:
            raise Unreachable(f"{url}: {exc}") from None
        try:
            document = json.loads(body)
        except ValueError as exc:  # a JSONDecodeError, or a number beyond the integer digit limit
            raise MalformedResponse(f"{url}: not valid JSON: {exc}") from None
        if not isinstance(document, dict) or not isinstance(document.get("days"), list):
            raise MalformedResponse(f"{url}: expected an object with a 'days' array")
        return document

    def fetch_days(
        self, network_id: str, start: _dt.date, end: _dt.date
    ) -> tuple[NetworkDay, ...]:
        """Days for [start, end] inclusive, from cache when fully covered.

        When any day is missing locally, the whole range is requested once,
        validated exactly like file ingestion, and written through the cache.
        """
        check_network_id(network_id)
        wanted = date_range(start, end)
        if not wanted:
            return ()
        cached: dict[_dt.date, NetworkDay] = {}
        for date in wanted:
            day = self._read_cached(network_id, date)
            if day is not None:
                cached[date] = day
        if len(cached) == len(wanted):
            return tuple(cached[d] for d in wanted)

        document = self._http_get(network_id, start, end)
        fetched: dict[_dt.date, NetworkDay] = {}
        for obj in document["days"]:
            day = self._day_from_object(obj, network_id)
            fetched[day.date] = day
        missing = [d for d in wanted if d not in fetched]
        if missing:
            listing = ", ".join(d.isoformat() for d in missing)
            raise RangeUnavailable(f"{network_id}: response does not cover {listing}")
        for date in wanted:
            self._write_cache(network_id, fetched[date])
        return tuple(fetched[d] for d in wanted)
