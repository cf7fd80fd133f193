"""carbon-ledger command line: validate, allocate, compare, series.

Exit codes: 0 on success, 1 when input data fails validation (or a domain
rule rejects the run), 2 on I/O or usage errors. All outputs are
deterministic: identical inputs and flags produce byte-identical bytes.
"""

from __future__ import annotations

import datetime as _dt
import json
import sys
from pathlib import Path

import click

from . import engine, ingestion, report
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

_METHODS = {
    "holding": Method.HOLDING_BASED,
    "transaction": Method.TRANSACTION_BASED,
    "hybrid": Method.HYBRID,
}

EXIT_VALIDATION = 1
EXIT_IO = 2

# rejected at the option, so a bad value exits 2 before any input is read
_SIG_DIGITS = click.IntRange(min=1)


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
    try:
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


def _emit(text: str, out: str | None) -> None:
    if out is None:
        click.echo(text, nl=False)
    else:
        Path(out).write_text(text, encoding="utf-8")


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
@click.version_option(package_name="carbon-ledger")
def main():
    """Allocate blockchain electricity use and emissions to holdings and transactions."""


@main.command()
@click.argument("paths", nargs=-1, required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--network", required=True, help="Network identifier the files describe.")
@click.option("--consensus", type=click.Choice(["pow", "pos"]), required=True)
@click.option("--coin-decimals", type=int, default=ingestion.DEFAULT_COIN_DECIMALS, show_default=True)
@click.option("--json", "json_report", is_flag=True, help="Emit a machine-readable issue report.")
def validate(paths, network, consensus, coin_decimals, json_report):
    """Validate dataset files: network CSV plus portfolio/apps/layer-2 JSON.

    JSON files are recognized by their top-level keys. Exit 0 only when every
    file is clean and all cross-file joins hold.
    """

    def body():
        params = ConsensusParams(Consensus(consensus))
        issues: list[ValidationIssue] = []
        dataset: Dataset | None = None
        portfolio = None
        bundle = None
        l2s = None

        def collect(loader):
            nonlocal issues
            try:
                return loader()
            except SchemaMismatch as exc:
                issues.append(
                    ValidationIssue(source=str(exc), code="schema_mismatch", reason=str(exc))
                )
            except DatasetInvalid as exc:
                issues.extend(exc.issues)
            return None

        for raw_path in paths:
            path = Path(raw_path)
            if path.suffix == ".csv":
                dataset = collect(
                    lambda: ingestion.load_network_csv(path, network, params, coin_decimals)
                )
                continue
            try:
                with ingestion.bulk():
                    document = json.loads(path.read_text(encoding="utf-8"))
            except json.JSONDecodeError as exc:
                issues.append(
                    ValidationIssue(
                        source=path.name, code="schema_mismatch", reason=f"not valid JSON: {exc}"
                    )
                )
                continue
            # the loaders take the decoded document, so each file is decoded once
            decoded = ingestion.Decoded(path.name, document)
            if not isinstance(document, dict):
                issues.append(
                    ValidationIssue(
                        source=path.name,
                        code="schema_mismatch",
                        reason="top level must be an object",
                    )
                )
            elif "holdings" in document or "transactions" in document:
                portfolio = collect(lambda: ingestion.load_portfolio_json(decoded, coin_decimals))
            elif "apps" in document or "token_holdings" in document:
                bundle = collect(lambda: ingestion.load_apps_json(decoded, coin_decimals))
            elif "l2s" in document:
                l2s = collect(lambda: ingestion.load_l2_json(decoded, params, coin_decimals))
            else:
                issues.append(
                    ValidationIssue(
                        source=path.name,
                        code="schema_mismatch",
                        reason="unrecognized document kind",
                    )
                )

        if dataset is not None:
            joined = Dataset(
                network_id=dataset.network_id,
                consensus=dataset.consensus,
                days=dataset.days,
                apps=bundle.apps if bundle is not None else (),
                l2s=l2s.entries if l2s is not None else (),
            )
            issues.extend(
                ingestion.join_issues(
                    joined,
                    portfolio=portfolio,
                    token_holdings=bundle.token_holdings if bundle is not None else (),
                )
            )

        if json_report:
            payload = {
                "ok": not issues,
                "issues": [
                    {
                        "source": issue.source,
                        "code": issue.code,
                        "reason": issue.reason,
                        "row": issue.row,
                        "column": issue.column,
                    }
                    for issue in issues
                ],
            }
            click.echo(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for issue in issues:
                click.echo(issue.render())
            if not issues:
                click.echo("ok")
        if issues:
            sys.exit(EXIT_VALIDATION)

    _run(body)


@main.command()
@click.option("--days", type=click.Path(exists=True, dir_okay=False))
@click.option("--remote", help="Remote index base URL instead of --days.")
@click.option("--cache-dir", type=click.Path(file_okay=False), help="Cache for remote days.")
@click.option("--network", required=True)
@click.option("--consensus", type=click.Choice(["pow", "pos"]), required=True)
@click.option("--coin-decimals", type=int, default=ingestion.DEFAULT_COIN_DECIMALS, show_default=True)
@click.option("--portfolio", "portfolio_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--method", type=click.Choice(sorted(_METHODS)), required=True)
@click.option("--from", "from_", help="First day (ISO-8601), inclusive.")
@click.option("--to", "to_", help="Last day (ISO-8601), inclusive.")
@click.option("--carbon", is_flag=True, help="Include carbon where emission factors exist.")
@click.option("--fill", type=click.Choice(["forward"]), help="Synthesize missing days.")
@click.option("--out", type=click.Path(dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@click.option("--sig-digits", type=_SIG_DIGITS, default=DEFAULT_SIG_DIGITS, show_default=True)
def allocate(
    days,
    remote,
    cache_dir,
    network,
    consensus,
    coin_decimals,
    portfolio_path,
    method,
    from_,
    to_,
    carbon,
    fill,
    out,
    fmt,
    sig_digits,
):
    """Allocate a portfolio over a day range under one methodology."""

    def body():
        start = _date(from_, "--from")
        end = _date(to_, "--to")
        dataset = _load_dataset(
            days, remote, cache_dir, network, consensus, coin_decimals, start, end
        )
        portfolio = ingestion.load_portfolio_json(portfolio_path, coin_decimals)

        selected = portfolio.between(start, end)
        day_list = dataset.days
        if fill == "forward":
            day_list = engine.fill_forward(day_list, selected.dates())
        joined = Dataset(
            network_id=dataset.network_id, consensus=dataset.consensus, days=day_list
        )
        issues = ingestion.join_issues(joined, portfolio=selected)
        if issues:
            raise DatasetInvalid(issues)
        allocation = engine.allocate_portfolio(
            day_list, dataset.consensus, selected, _METHODS[method]
        )
        if fmt == "json":
            _emit(report.allocation_to_json(dataset.network_id, allocation, sig_digits, carbon), out)
        else:
            _emit(report.results_to_csv(allocation.results, sig_digits, with_carbon=carbon), out)
            summary_obj = report.summary_to_obj(allocation.summary, sig_digits, with_carbon=carbon)
            if out is not None:
                Path(f"{out}.summary.json").write_text(
                    json.dumps(summary_obj, indent=2) + "\n", encoding="utf-8"
                )

    _run(body)


@main.command()
@click.option("--days", "days_paths", multiple=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--remote", help="Remote index base URL instead of --days.")
@click.option("--cache-dir", type=click.Path(file_okay=False))
@click.option("--network", "networks", multiple=True, required=True)
@click.option("--consensus", "consensuses", multiple=True, type=click.Choice(["pow", "pos"]), required=True)
@click.option("--coin-decimals", type=int, default=ingestion.DEFAULT_COIN_DECIMALS, show_default=True)
@click.option("--from", "from_", help="First day (ISO-8601), inclusive.")
@click.option("--to", "to_", help="Last day (ISO-8601), inclusive.")
@click.option("--carbon", is_flag=True)
@click.option("--out", type=click.Path(dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["text", "csv"]), default="text", show_default=True)
@click.option("--sig-digits", type=_SIG_DIGITS, default=DEFAULT_SIG_DIGITS, show_default=True)
def compare(
    days_paths,
    remote,
    cache_dir,
    networks,
    consensuses,
    coin_decimals,
    from_,
    to_,
    carbon,
    out,
    fmt,
    sig_digits,
):
    """Methodology comparison: one-coin and one-transaction daily averages.

    Repeat --days/--network/--consensus in matching order to compare several
    networks in one table.
    """

    def body():
        start = _date(from_, "--from")
        end = _date(to_, "--to")
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
            _emit(report.comparison_to_csv(rows, with_carbon=carbon, sig_digits=sig_digits), out)
        else:
            _emit(report.comparison_to_text(rows), out)

    _run(body)


@main.command()
@click.option("--days", type=click.Path(exists=True, dir_okay=False))
@click.option("--remote", help="Remote index base URL instead of --days.")
@click.option("--cache-dir", type=click.Path(file_okay=False))
@click.option("--network", required=True)
@click.option("--consensus", type=click.Choice(["pow", "pos"]), required=True)
@click.option("--coin-decimals", type=int, default=ingestion.DEFAULT_COIN_DECIMALS, show_default=True)
@click.option("--from", "from_", help="First day (ISO-8601), inclusive.")
@click.option("--to", "to_", help="Last day (ISO-8601), inclusive.")
@click.option("--out", type=click.Path(dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@click.option("--sig-digits", type=_SIG_DIGITS, default=DEFAULT_SIG_DIGITS, show_default=True)
def series(days, remote, cache_dir, network, consensus, coin_decimals, from_, to_, out, fmt, sig_digits):
    """Per-day hybrid transaction weight as a plottable series."""

    def body():
        start = _date(from_, "--from")
        end = _date(to_, "--to")
        dataset = _load_dataset(
            days, remote, cache_dir, network, consensus, coin_decimals, start, end
        )
        rows = report.series_rows(dataset, start, end)
        if fmt == "csv":
            _emit(report.series_to_csv(rows, sig_digits), out)
        else:
            _emit(json.dumps(report.series_to_json(rows, sig_digits), indent=2) + "\n", out)

    _run(body)


if __name__ == "__main__":
    main()
