"""carbon-ledger command line: validate, allocate, compare, series.

Exit codes: 0 on success, 1 when input data fails validation (or a domain
rule rejects the run), 2 on I/O or usage errors. All outputs are
deterministic: identical inputs and flags produce byte-identical bytes.
"""

from __future__ import annotations

import dataclasses
import datetime as _dt
import functools
import json
import os
import shutil
import sys
from operator import attrgetter
from pathlib import Path
from typing import Iterable

import click

from . import __version__, engine, ingestion, report
from .errors import (
    CarbonLedgerError,
    DatasetInvalid,
    RangeUnavailable,
    SchemaMismatch,
    Unreachable,
    ValidationIssue,
)
from .ingestion import Dataset
from .model import Consensus, ConsensusParams, Method
from .numeric import DEFAULT_SIG_DIGITS
from .remote import RemoteDayClient, check_network_id

EXIT_VALIDATION = 1
EXIT_IO = 2

# rejected at the option, so a bad value exits 2 before any input is read
_SIG_DIGITS = click.IntRange(min=1)
_COIN_DECIMALS = click.option(
    "--coin-decimals", type=click.IntRange(min=0), default=ingestion.DEFAULT_COIN_DECIMALS, show_default=True
)


class _Failure(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message
        super().__init__(message)


def _date(value: str | None, flag: str) -> _dt.date | None:
    if value is None:
        return None
    try:
        return ingestion.parse_date(value)
    except ValueError:
        raise _Failure(EXIT_IO, f"{flag}: not an ISO-8601 date: {value!r}") from None


# Exit code of an error that escapes a command. The first type the error is
# an instance of decides, so a remote fetch failure exits 2 before the
# domain-error rule can claim it.
_EXIT_CODES = {
    Unreachable: EXIT_IO,
    RangeUnavailable: EXIT_IO,
    CarbonLedgerError: EXIT_VALIDATION,
    ValueError: EXIT_VALIDATION,
    OSError: EXIT_IO,
}


def _run(body) -> None:
    """Run a command's body; a failure becomes its message on stderr and its exit code.

    The body runs inside one ``ingestion.bulk()``: what a command loads and
    builds holds no cycles, so a collection between loads, during the join
    or during allocation would rescan it all and free nothing.
    """
    try:
        with ingestion.bulk():
            body()
    except _Failure as failure:
        click.echo(failure.message, err=True)
        sys.exit(failure.code)
    except tuple(_EXIT_CODES) as exc:
        if isinstance(exc, DatasetInvalid):
            for issue in exc.issues:
                click.echo(issue.render(), err=True)
        else:
            click.echo(str(exc), err=True)
        sys.exit(next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind)))


def _emit(chunks: Iterable[str], out: str | None, summary: str | None = None) -> None:
    """Write a document chunk by chunk as it is rendered: to stdout, or to ``--out``.

    With ``--out``, the document (and ``summary``, the ``--out F.summary.json``
    sidecar) goes to a temp file beside the file it replaces, the file a
    symlink names rather than the link. Only once every file is written are
    the temps renamed into place, one by one, each taking the mode of the file
    it replaces; a failed write removes them, so no half file is left. A
    target that exists but is not a regular file (a FIFO, ``/dev/stdout``) is
    written in place. Without ``--out``, the sidecar is not written.
    """
    if out is None:
        for chunk in chunks:
            click.echo(chunk, nl=False, color=True)  # color: keep ANSI sequences, as --out does
        return
    files = {out: chunks}
    if summary is not None:
        files[f"{out}.summary.json"] = (summary,)
    temps: dict[Path, Path] = {}  # a regular file → its temp
    try:
        for name, parts in files.items():
            path = Path(name)
            if path.is_file() or not path.exists():
                target = Path(os.path.realpath(path))
                path = temps[target] = target.with_name(f".{target.name}.{os.getpid()}.tmp")
            with open(path, "w", encoding="utf-8") as handle:
                for chunk in parts:
                    handle.write(chunk)
        for target, temp in temps.items():
            if target.exists():
                shutil.copymode(target, temp)
            os.replace(temp, target)
    except BaseException:
        for temp in temps.values():
            temp.unlink(missing_ok=True)
        raise


def _load_dataset(
    days: str | None,
    remote: str | None,
    cache_dir: str | None,
    network: str,
    consensus: str,
    coin_decimals: int,
    start: _dt.date | None,
    end: _dt.date | None,
) -> Dataset:
    params = ConsensusParams(Consensus(consensus))
    if (days is None) == (remote is None):
        raise _Failure(EXIT_IO, "exactly one of --days or --remote is required")
    if remote is not None:
        if start is None or end is None:
            raise _Failure(EXIT_IO, "--remote requires --from and --to")
        try:
            check_network_id(network)
        except ValueError as exc:
            raise _Failure(EXIT_IO, f"--network: {exc}") from None
        client = RemoteDayClient(
            remote,
            cache_dir or Path(".carbon-ledger-cache"),
            params,
            coin_decimals,
        )
        fetched = client.fetch_days(network, start, end)
        return Dataset(network_id=network, consensus=params, days=fetched)
    return ingestion.load_network_csv(days, network, params, coin_decimals)


@click.group()
@click.version_option(__version__, prog_name="carbon-ledger")
def main():
    """Allocate blockchain electricity use and emissions to holdings and transactions."""


@main.command()
@click.argument("paths", nargs=-1, required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--network", required=True, help="Network identifier the files describe.")
@click.option("--consensus", type=click.Choice(["pow", "pos"]), required=True)
@_COIN_DECIMALS
@click.option("--json", "json_report", is_flag=True, help="Emit a machine-readable issue report.")
def validate(paths, network, consensus, coin_decimals, json_report):
    """Validate dataset files: network CSV plus portfolio/apps/layer-2 JSON.

    JSON files are recognized by their top-level keys. Exit 0 only when every
    file is clean and all cross-file joins hold.
    """

    def body():
        params = ConsensusParams(Consensus(consensus))
        issues: list[ValidationIssue] = []
        day_files: list[tuple[str, tuple]] = []  # (name, days) of each days CSV
        loaded = {"portfolio": [], "apps": [], "l2s": []}  # document kind → its files: (name, loaded)

        def collect(loader):
            try:
                return loader()
            except SchemaMismatch as exc:
                issues.append(ValidationIssue(exc.source, "schema_mismatch", exc.reason))
            except DatasetInvalid as exc:
                issues.extend(exc.issues)
            return None

        for raw_path in paths:
            path = Path(raw_path)
            if path.suffix == ".csv":
                dataset = collect(
                    lambda: ingestion.load_network_csv(path, network, params, coin_decimals)
                )
                if dataset is not None:
                    day_files.append((path.name, dataset.days))
            elif (json_file := collect(lambda: ingestion.load_json_file(path, params, coin_decimals))):
                kind, document = json_file
                loaded[kind].append((path.name, document))

        # the days, app days and L2 days of all files each form one set; see _merged
        days = _merged(day_files, "", "date", lambda day: (day.date,), issues)
        bundles = loaded["apps"]
        app_files = [(name, bundle.apps) for name, bundle in bundles]
        apps = _merged(app_files, ":apps", "app day", attrgetter("app_id", "date"), issues)
        l2_files = [(name, l2_file.entries) for name, l2_file in loaded["l2s"]]
        l2s = _merged(l2_files, ":l2s", "layer-2 day", attrgetter("l2_id", "date"), issues)
        if day_files:
            dataset = Dataset(network, params, tuple(sorted(days, key=attrgetter("date"))))
            # every app and L2 file joins as one registry, then each portfolio on its own
            token_holdings = tuple(holding for _, bundle in bundles for holding in bundle.token_holdings)
            joined = dataclasses.replace(dataset, apps=apps, l2s=l2s)
            issues.extend(ingestion.join_issues(joined, token_holdings=token_holdings))
            for _, portfolio in loaded["portfolio"]:
                issues.extend(ingestion.join_issues(dataset, portfolio=portfolio))

        if json_report:
            payload = {"ok": not issues, "issues": [dataclasses.asdict(issue) for issue in issues]}
            click.echo(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for issue in issues:
                click.echo(issue.render())
            if not issues:
                click.echo("ok")
        if issues:
            sys.exit(EXIT_VALIDATION)

    _run(body)


def _merged(files, section: str, noun: str, key, issues: list[ValidationIssue]) -> tuple:
    """The records of several files as one, each file given as ``(name, records)``.

    A record whose ``key`` an earlier file already gave is a ``duplicate_date``
    issue of the later file's section (``name + section``) and is dropped:
    ``duplicate <noun> <key>, also in <first file>``.
    """
    merged, first_file = {}, {}
    for name, records in files:
        for record in records:
            if (record_key := key(record)) in merged:
                reason = f"duplicate {noun} {' '.join(map(str, record_key))}, also in {first_file[record_key]}"
                issues.append(ValidationIssue(name + section, "duplicate_date", reason, column="date"))
            else:
                merged[record_key], first_file[record_key] = record, name
    return tuple(merged.values())


# Declared alike by every command that reads days.
_DAY_SOURCE_OPTIONS = (
    click.option("--remote", help="Remote index base URL instead of --days."),
    click.option("--cache-dir", type=click.Path(file_okay=False), help="Cache for remote days."),
    _COIN_DECIMALS,
    click.option("--from", "from_", help="First day (ISO-8601), inclusive."),
    click.option("--to", "to_", help="Last day (ISO-8601), inclusive."),
    click.option("--out", type=click.Path(dir_okay=False)),
    click.option("--sig-digits", type=_SIG_DIGITS, default=DEFAULT_SIG_DIGITS, show_default=True),
)


def _reads_days(command):
    """Give a command the day-source options and run it through ``_run``.

    The command is called with ``start`` and ``end``, the parsed ``--from``
    and ``--to``; a date that does not parse fails inside ``_run``, so it
    exits 2 with its own message rather than click's usage error.
    """

    @functools.wraps(command)
    def run(from_, to_, **options):
        _run(lambda: command(start=_date(from_, "--from"), end=_date(to_, "--to"), **options))

    for option in reversed(_DAY_SOURCE_OPTIONS):
        run = option(run)
    return run


@main.command()
@_reads_days
@click.option("--days", type=click.Path(exists=True, dir_okay=False))
@click.option("--network", required=True)
@click.option("--consensus", type=click.Choice(["pow", "pos"]), required=True)
@click.option("--portfolio", "portfolio_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--method", type=click.Choice(sorted(method.value for method in Method)), required=True)
@click.option("--carbon", is_flag=True, help="Include carbon where emission factors exist.")
@click.option("--fill", type=click.Choice(["forward"]), help="Synthesize missing days.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
def allocate(
    start,
    end,
    days,
    remote,
    cache_dir,
    network,
    consensus,
    coin_decimals,
    portfolio_path,
    method,
    carbon,
    fill,
    out,
    fmt,
    sig_digits,
):
    """Allocate a portfolio over a day range under one methodology."""
    dataset = _load_dataset(days, remote, cache_dir, network, consensus, coin_decimals, start, end)
    portfolio = ingestion.load_portfolio_json(portfolio_path, coin_decimals)

    selected = portfolio.between(start, end)
    day_list = dataset.days
    if fill == "forward":
        day_list = engine.fill_forward(day_list, selected.dates())
    joined = Dataset(network_id=dataset.network_id, consensus=dataset.consensus, days=day_list)
    issues = ingestion.join_issues(joined, portfolio=selected)
    if issues:
        raise DatasetInvalid(issues)
    allocation = engine.allocate_portfolio(day_list, dataset.consensus, selected, Method(method))
    # from here on only rendering runs, and it cannot fail: nothing is written before this point
    if fmt == "json":
        _emit(report.allocation_json_chunks(dataset.network_id, allocation, sig_digits, carbon), out)
    else:
        summary_obj = report.summary_to_obj(allocation.summary, sig_digits, with_carbon=carbon)
        _emit(
            report.results_csv_chunks(allocation.results, sig_digits, with_carbon=carbon),
            out,
            summary=json.dumps(summary_obj, indent=2) + "\n",
        )


@main.command()
@_reads_days
@click.option("--days", "days_paths", multiple=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--network", "networks", multiple=True, required=True)
@click.option("--consensus", "consensuses", multiple=True, type=click.Choice(["pow", "pos"]), required=True)
@click.option("--carbon", is_flag=True)
@click.option("--format", "fmt", type=click.Choice(["text", "csv"]), default="text", show_default=True)
def compare(
    start,
    end,
    days_paths,
    remote,
    cache_dir,
    networks,
    consensuses,
    coin_decimals,
    carbon,
    out,
    fmt,
    sig_digits,
):
    """Methodology comparison: one-coin and one-transaction daily averages.

    Repeat --days/--network/--consensus in matching order to compare several
    networks in one table.
    """
    if len(networks) != len(consensuses):
        raise _Failure(EXIT_IO, "--network and --consensus must repeat in matching pairs")
    if remote is None and len(days_paths) != len(networks):
        raise _Failure(EXIT_IO, "--days and --network must repeat in matching pairs")
    rows = []
    for index, network in enumerate(networks):
        dataset = _load_dataset(
            days_paths[index] if remote is None else None,
            remote,
            cache_dir,
            network,
            consensuses[index],
            coin_decimals,
            start,
            end,
        )
        rows.append(report.build_comparison_row(dataset, start, end, with_carbon=carbon))
    if fmt == "csv":
        _emit((report.comparison_to_csv(rows, with_carbon=carbon, sig_digits=sig_digits),), out)
    else:
        _emit((report.comparison_to_text(rows),), out)


@main.command()
@_reads_days
@click.option("--days", type=click.Path(exists=True, dir_okay=False))
@click.option("--network", required=True)
@click.option("--consensus", type=click.Choice(["pow", "pos"]), required=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
def series(start, end, days, remote, cache_dir, network, consensus, coin_decimals, out, fmt, sig_digits):
    """Per-day hybrid transaction weight as a plottable series."""
    dataset = _load_dataset(days, remote, cache_dir, network, consensus, coin_decimals, start, end)
    rows = report.series_rows(dataset, start, end)
    if fmt == "csv":
        _emit((report.series_to_csv(rows, sig_digits),), out)
    else:
        _emit((json.dumps(report.series_to_json(rows, sig_digits), indent=2) + "\n",), out)


if __name__ == "__main__":
    main()
