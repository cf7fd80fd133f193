"""Traced op: run one CLI op in process, with a span around each public call it makes.

Usage: python3 perfbench/traced.py TRACE_JSON OP_ID -- <carbon-ledger args>

It runs ``carbon_ledger.cli.main`` itself, after wrapping in place the
module and class attributes the CLI calls through: ``ingestion.load_*`` and
``join_issues``, ``RemoteDayClient.fetch_days``, ``engine.allocate_portfolio``,
``report.*``, ``cli._emit`` and the CLI's ``json.dumps``. So the spans come in
the order the CLI makes the calls, and the op writes the same bytes to the
same files (stdout included) as an untraced op. Each span has a name, start,
end, parent, op id, status (the exception type if the call raised) and
peak-RSS growth. Spans stay in memory and are written to TRACE_JSON at exit,
with counters taken at the same boundaries: ``numeric.format_sig`` calls and
time, files opened under the remote cache directory, join issues, allocation
results and the period summary's largest rational. The exit code is the CLI's.
"""

from __future__ import annotations

import builtins
import functools
import io
import json
import math
import resource
import sys
import time
import types
from contextlib import contextmanager
from pathlib import Path

_LOG10_2 = math.log10(2)


def _peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                "op": self.op_id, "name": name, "status": "ok"}
        self.spans.append(span)
        self._stack.append(span["id"])
        rss = _peak_rss_kib()
        span["start"] = time.perf_counter()
        try:
            yield span
        except BaseException as exc:
            span["status"] = type(exc).__name__
            raise
        finally:
            span["end"] = time.perf_counter()
            span["rss_growth_kib"] = _peak_rss_kib() - rss
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, record=None) -> None:
        """Replace ``owner.attr`` by a wrapper that runs it in a span named ``name``.

        ``record(args, result)`` is called with the call's positional
        arguments and its return value once the call has returned.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if record is not None:
                record(args, result)
            return result

        setattr(owner, attr, traced)


class Counters:
    """Counts taken at module boundaries by wrapping public callables."""

    def __init__(self):
        self.values = {"format_sig_calls": 0, "format_sig_s": 0.0, "cache_reads": 0, "cache_writes": 0}
        self._counting_opens = False

    def wrap_format_sig(self, modules) -> None:
        original = modules[0].format_sig
        values = self.values
        clock = time.perf_counter

        def format_sig(*args, **kwargs):
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                values["format_sig_s"] += clock() - start
                values["format_sig_calls"] += 1

        for module in modules:
            module.format_sig = format_sig

    def count_opens_under(self, directory: Path) -> None:
        """Count files opened for reading or writing below ``directory`` (once per process)."""
        if self._counting_opens:
            return
        self._counting_opens = True
        original = io.open
        prefix = str(Path(directory).resolve())
        values = self.values

        def counting_open(file, mode="r", *args, **kwargs):
            if isinstance(file, (str, Path)) and str(Path(file).resolve()).startswith(prefix):
                values["cache_reads" if set(mode) <= set("rbt") else "cache_writes"] += 1
            return original(file, mode, *args, **kwargs)

        io.open = builtins.open = counting_open


def summary_max_digits(summary) -> int:
    """Most decimal digits of any numerator or denominator in the period summary.

    Counted from ``bit_length`` (never ``str``), as the lower bound
    floor((bits - 1) * log10(2)) + 1, so it works past the interpreter's
    integer-string limit.
    """
    most = 0
    for activity in (summary.holding, summary.transaction):
        if activity is None:
            continue
        values = [activity.total_energy.wh, activity.daily_mean_energy.wh, activity.mean_pool.wh,
                  activity.mean_daily_share, activity.ratio_of_averages_energy.wh]
        if activity.total_carbon is not None:
            values.append(activity.total_carbon.grams)
        for value in values:
            for part in (value.numerator, value.denominator):
                bits = abs(part).bit_length()
                if bits:
                    most = max(most, int((bits - 1) * _LOG10_2) + 1)
    return most


def instrument(tracer: Tracer, counters: Counters) -> None:
    """Wrap, in place, every public call the CLI makes into the other modules."""
    from carbon_ledger import cli, engine, ingestion, model, numeric, report
    from carbon_ledger.remote import RemoteDayClient

    values = counters.values
    for name in ("load_network_csv", "load_portfolio_json", "load_apps_json", "load_l2_json"):
        tracer.wrap(ingestion, name, f"ingestion.{name}")

    def record_issues(args, issues):
        values["issues"] = values.get("issues", 0) + len(issues)

    tracer.wrap(ingestion, "join_issues", "ingestion.join_issues", record_issues)

    def record_allocation(args, allocation):
        values["results"] = len(allocation.results)
        values["summary_max_digits"] = summary_max_digits(allocation.summary)

    tracer.wrap(engine, "allocate_portfolio", "engine.allocate_portfolio", record_allocation)
    for name in ("allocation_to_json_obj", "results_to_csv", "summary_to_obj",
                 "series_rows", "series_to_json", "series_to_csv"):
        tracer.wrap(report, name, f"report.{name}")
    counters.wrap_format_sig([numeric, report, model])

    fetch_days = RemoteDayClient.fetch_days

    def counted_fetch_days(client, *args, **kwargs):
        counters.count_opens_under(client.cache_dir)
        return fetch_days(client, *args, **kwargs)

    RemoteDayClient.fetch_days = counted_fetch_days
    tracer.wrap(RemoteDayClient, "fetch_days", "remote.fetch_days")

    # cli.emit covers the CLI's json.dumps calls and its _emit writes.
    cli.json = types.SimpleNamespace(**vars(json))
    tracer.wrap(cli.json, "dumps", "cli.emit")
    tracer.wrap(cli, "_emit", "cli.emit")


def main(argv: list[str]) -> int:
    trace_path, op_id, rest = Path(argv[0]), int(argv[1]), argv[3:]
    tracer, counters = Tracer(op_id), Counters()
    code = 0
    try:
        with tracer.span("cli.import"):
            import carbon_ledger.cli
        instrument(tracer, counters)
        with tracer.span(f"cli.{rest[0]}"):
            try:
                carbon_ledger.cli.main(rest, prog_name="carbon-ledger", standalone_mode=False)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
    finally:
        trace_path.write_text(json.dumps({"code": code, "spans": tracer.spans,
                                          "counters": counters.values}) + "\n", encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
