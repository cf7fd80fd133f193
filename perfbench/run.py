"""carbon-ledger benchmark: fresh CLI processes in a closed loop.

Usage, from the root of a carbon-ledger checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs one ``python3 -m carbon_ledger.cli`` process at a time
(closed loop, a new op only after the previous one exits) for ``--seconds``,
from the checkout's own ``src/``. Every op's output is checked: exit code,
loopback-index request count, byte identity with the first op (SHA-256 per
output file), and the first op's content against an independent
recomputation (``checks.py``).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-module
metrics: it alternates untraced CLI ops with traced ops (``traced.py``),
which run the CLI in process with each public call wrapped in a span. The last
stdout line is the result object; the line before it is the full record
(environment, sizes, hashes, defects), also written to
``.perfbench/results/``. Spans go to ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import workloads
from stub import DayIndexStub

HERE = Path(__file__).resolve().parent
# Set-up runs at least SETUP_MIN_REPEATS times and until SETUP_MIN_SECONDS
# have passed, so that cheap set-ups still report a steady median.
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 25
SETUP_MIN_SECONDS = 3.0
IMPORT_PROBES = 3
# Seconds ``host_probe`` takes on a quiet host (the least of 200 runs on a
# 2-vCPU Xeon virtual machine, Python 3.11). Each timing is scaled by this over
# the probes taken just before and after it; see ``calibrated``.
PROBE_QUIET_S = 0.108
OP_TIMEOUT_S = 150

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "records_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "ok_ratio": "ratio",
    "setup_s": "s",
}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.emit_s": "s",
    "cli.partial_outputs": "count",
    "remote.fetch_s": "s",
    "remote.http_requests": "count",
    "remote.cache_reads": "count",
    "remote.cache_writes": "count",
    "ingestion.days_s": "s",
    "ingestion.portfolio_s": "s",
    "ingestion.portfolio_us_per_record": "us",
    "ingestion.apps_s": "s",
    "ingestion.l2_s": "s",
    "ingestion.join_s": "s",
    "ingestion.issues": "count",
    "ingestion.rss_growth_mib": "MiB",
    "engine.allocate_s": "s",
    "engine.us_per_record": "us",
    "engine.results": "count",
    "engine.rss_growth_mib": "MiB",
    "engine.summary_max_digits": "digits",
    "report.render_s": "s",
    "report.rss_growth_mib": "MiB",
    "numeric.format_sig_calls": "count",
    "numeric.format_sig_s": "s",
    "numeric.format_sig_us_per_call": "us",
    "trace.overhead_s": "s",
}

_IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); import carbon_ledger.cli; "
    "print(time.perf_counter() - t, sys.get_int_max_str_digits(), carbon_ledger.cli.__file__)"
)


@dataclass
class Op:
    code: int
    wall: float
    cpu: float
    rss_mib: float
    requests: int
    stderr_first_line: str | None
    traced: bool = False
    problems: list[str] = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    self_s: dict = field(default_factory=dict)


def spawn(argv: list[str], cwd: Path, env: dict, stub: DayIndexStub | None = None) -> Op:
    """Run one child to completion; time it from spawn to exit and collect its rusage.

    Its stdout goes to ``cwd/stdout`` and its stderr to ``cwd/stdout.err``.
    """
    cwd.mkdir(parents=True, exist_ok=True)
    before = stub.count() if stub else 0
    err_path = cwd / "stdout.err"
    with open(cwd / "stdout", "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = err_path.read_text(encoding="utf-8", errors="replace").splitlines()
    return Op(
        code=proc.returncode,
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mib=usage.ru_maxrss / 1024,
        requests=(stub.count() - before) if stub else 0,
        stderr_first_line=lines[0] if lines else None,
    )


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Runner:
    """Runs and judges ops of one prepared workload."""

    def __init__(self, prepared: workloads.Prepared, env: dict, stub: DayIndexStub, work: Path):
        self.prepared = prepared
        self.env = env
        self.stub = stub
        self.work = work
        self.ops: list[Op] = []
        self.reference: dict | None = None
        self.reference_dir: Path | None = None
        self.partial_outputs = 0
        self.first_error: str | None = None
        self.spans: list[dict] = []

    def cli_op(self) -> Op:
        op_dir = self.work / f"op-{len(self.ops)}"
        argv = [sys.executable, "-m", "carbon_ledger.cli", *self.prepared.argv(op_dir)]
        op = spawn(argv, op_dir, self.env, self.stub)
        if op.code != 0 and self.prepared.out_file and (op_dir / self.prepared.out_file).exists():
            self.partial_outputs += 1
        return self._judge(op, op_dir)

    def traced_op(self) -> Op:
        op_id = len(self.ops)
        op_dir = self.work / f"op-{op_id}"
        trace_path = op_dir / "trace.json"
        argv = [sys.executable, str(HERE / "traced.py"), str(trace_path), str(op_id), "--",
                *self.prepared.argv(op_dir)]
        op = spawn(argv, op_dir, self.env, self.stub)
        op.traced = True
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        self.spans.extend(trace["spans"])
        op.layers = layer_metrics(trace, op, self.prepared.records)
        op.self_s = self_seconds(trace["spans"])
        return self._judge(op, op_dir)

    def _judge(self, op: Op, op_dir: Path) -> Op:
        if op.code != 0:
            op.problems.append(f"exit code {op.code}")
            if self.first_error is None:
                self.first_error = op.stderr_first_line
        if op.requests != self.prepared.requests_per_op:
            op.problems.append(f"{op.requests} index requests, expected {self.prepared.requests_per_op}")
        op.digests = {name: _sha256(op_dir / name) for name in self.prepared.outputs
                      if (op_dir / name).exists()}
        shutil.rmtree(op_dir / "cache", ignore_errors=True)
        if self.reference is None:
            self.reference, self.reference_dir = op.digests, op_dir
        else:
            if op.digests != self.reference:
                op.problems.append("output bytes differ from the first op")
            shutil.rmtree(op_dir, ignore_errors=True)
        self.ops.append(op)
        return op

    def check_content(self) -> list[str]:
        """Check the first op's output; every op with the same bytes shares the verdict."""
        first = self.ops[0]
        if first.code != 0:
            return []
        problems = self.prepared.check(self.reference_dir)
        if problems:
            for op in self.ops:
                if op.digests == self.reference:
                    op.problems.extend(problems)
        return problems


def layer_metrics(trace: dict, op: Op, records: int) -> dict:
    """Per-module figures of one traced op, from its spans and counters."""
    spans, counters = trace["spans"], trace["counters"]

    def seconds(prefix: str) -> float:
        """Time in spans named ``prefix...``, not counting such spans inside one another."""
        names = {s["id"]: s["name"] for s in spans}
        return sum(s["end"] - s["start"] for s in spans if s["name"].startswith(prefix)
                   and not (s["parent"] is not None and names[s["parent"]].startswith(prefix)))

    def rss_mib(module: str) -> float:
        return sum(s["rss_growth_kib"] for s in spans if s["name"].startswith(module + ".")) / 1024

    portfolio_s = seconds("ingestion.load_portfolio_json")
    allocate_s = seconds("engine.allocate_portfolio")
    calls = counters["format_sig_calls"]
    return {
        "cli.emit_s": seconds("cli.emit"),
        "remote.fetch_s": seconds("remote.fetch_days"),
        "remote.http_requests": op.requests,
        "remote.cache_reads": counters["cache_reads"],
        "remote.cache_writes": counters["cache_writes"],
        "ingestion.days_s": seconds("ingestion.load_network_csv"),
        "ingestion.portfolio_s": portfolio_s,
        "ingestion.portfolio_us_per_record": portfolio_s / records * 1e6 if portfolio_s else 0.0,
        "ingestion.apps_s": seconds("ingestion.load_apps_json"),
        "ingestion.l2_s": seconds("ingestion.load_l2_json"),
        "ingestion.join_s": seconds("ingestion.join_issues"),
        "ingestion.issues": counters.get("issues", 0),
        "ingestion.rss_growth_mib": rss_mib("ingestion"),
        "engine.allocate_s": allocate_s,
        "engine.us_per_record": allocate_s / records * 1e6 if allocate_s else 0.0,
        "engine.results": counters.get("results", 0),
        "engine.rss_growth_mib": rss_mib("engine"),
        "engine.summary_max_digits": counters.get("summary_max_digits", 0),
        "report.render_s": seconds("report."),
        "report.rss_growth_mib": rss_mib("report"),
        "numeric.format_sig_calls": calls,
        "numeric.format_sig_s": counters["format_sig_s"],
        "numeric.format_sig_us_per_call": counters["format_sig_s"] / calls * 1e6 if calls else 0.0,
    }


def self_seconds(spans: list[dict]) -> dict[str, float]:
    """Per-module self time: each span's duration less what its children cover."""
    child_time: dict[tuple, float] = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["op"], s["parent"])
            child_time[key] = child_time.get(key, 0.0) + s["end"] - s["start"]
    totals: dict[str, float] = {}
    for s in spans:
        module = s["name"].split(".", 1)[0]
        own = s["end"] - s["start"] - child_time.get((s["op"], s["id"]), 0.0)
        totals[module] = totals.get(module, 0.0) + own
    return totals


def environment(root: Path, int_max_str_digits: int) -> dict:
    commit = None
    if (root / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True).stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "int_max_str_digits": int_max_str_digits,
        "click": importlib.metadata.version("click"),
        "commit": commit,
    }


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def host_probe() -> float:
    """Seconds for a fixed pure-Python task of the CLI's kind, timed in this process.

    It parses decimal strings into Fractions, does rational arithmetic, formats
    the results and dumps them as JSON. Its input never changes, so its time
    moves only with the host's speed.
    """
    rng = random.Random(0)
    texts = [(f"{rng.randrange(10**9)}.{rng.randrange(10**8):08d}", f"0.{rng.randrange(10**6):06d}")
             for _ in range(3750)]
    start = time.perf_counter()
    total, rows = Fraction(0), []
    for amount, share in texts:
        value = Fraction(amount) * Fraction(share) / 3
        total += value
        rows.append({"amount": amount, "value": f"{float(value):.6g}", "total": str(total.limit_denominator(10**6))})
    json.dumps(rows)
    return time.perf_counter() - start


def calibrated(samples: list[tuple[float, float, float]]) -> float | None:
    """Median of timings as they would read on a quiet host.

    Each sample is (seconds, probe just before, probe just after). Co-tenants
    on a shared host slow every process of the machine, in phases from
    seconds to minutes long, so one run can be 1.7 times slower than the
    next; dividing each timing by the probes around it cancels the phase.
    """
    if not samples:
        return None
    return statistics.median(s * 2 * PROBE_QUIET_S / (before + after) for s, before, after in samples)


def import_probe(root: Path, work: Path, env: dict) -> tuple[float, int]:
    """Seconds to import carbon_ledger.cli in a fresh process, and that process's digit limit."""
    probe = spawn([sys.executable, "-c", _IMPORT_PROBE], work / "probe", env)
    seconds, digits, path = (work / "probe" / "stdout").read_text().split()
    if not Path(path).resolve().is_relative_to(root / "src"):
        raise RuntimeError(f"imported carbon_ledger from {path}, not from {root / 'src'}")
    if probe.code != 0:
        raise RuntimeError(f"import probe exited {probe.code}")
    return float(seconds), int(digits)


def set_up(name: str, seed: int, root: Path, stub: DayIndexStub, env: dict) -> workloads.Prepared:
    """Generate the inputs in a child process, serve their days, fill the warm cache."""
    generator = spawn([sys.executable, str(HERE / "workloads.py"), name, str(seed), str(root)], root, env)
    if generator.code != 0:
        raise RuntimeError(f"input generation exited {generator.code}: {generator.stderr_first_line}")
    stub.documents.update(workloads.index_documents(name, root))
    prepared = workloads.prepare(name, root, stub.base_url)
    if prepared.warm_cache_argv:
        fill = spawn([sys.executable, "-m", "carbon_ledger.cli", *prepared.warm_cache_argv], root, env, stub)
        if fill.code != 0:
            raise RuntimeError(f"filling the day cache exited {fill.code}: {fill.stderr_first_line}")
    return prepared


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "carbon_ledger" / "cli.py").is_file():
        print(f"perfbench: {root} is not a carbon-ledger checkout (no src/carbon_ledger/cli.py)",
              file=sys.stderr)
        return 2
    state = root / ".perfbench"
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = state / "work" / f"{tag}-{os.getpid()}"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    try:
        # The first import compiles bytecode; pay for it before anything is timed.
        _, digit_limit = import_probe(root, work, env)
        with DayIndexStub() as stub:
            setup_runs, probes = [], []
            while len(setup_runs) < SETUP_MIN_REPEATS or (
                    sum(setup_runs) < SETUP_MIN_SECONDS and len(setup_runs) < SETUP_MAX_REPEATS):
                setup_dir = work / f"setup-{len(setup_runs)}"
                probes.append(host_probe())
                start = time.perf_counter()
                prepared = set_up(args.workload, args.seed, setup_dir, stub, env)
                setup_runs.append(time.perf_counter() - start)
                if len(setup_runs) > 1:
                    shutil.rmtree(previous, ignore_errors=True)
                previous = setup_dir
            runner = Runner(prepared, env, stub, work)
            import_runs = []
            if args.trace:
                import_runs = [import_probe(root, work, env)[0] for _ in range(IMPORT_PROBES)]
            deadline = time.perf_counter() + args.seconds
            while not runner.ops or time.perf_counter() < deadline:
                probes.append(host_probe())
                runner.cli_op()
                if args.trace:
                    runner.traced_op()
            probes.append(host_probe())
            content_problems = runner.check_content()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = runner.ops
    cli_ops = [op for op in ops if not op.traced]
    passed = [op for op in cli_ops if not op.problems]
    failed = sum(1 for op in ops if op.problems)
    traced = [op for op in ops if op.traced]
    if traced:
        layers = {name: _median([op.layers[name] for op in traced]) for name in traced[0].layers}
        layers["cli.import_s"] = _median(import_runs)
        layers["cli.partial_outputs"] = runner.partial_outputs
        layers["trace.overhead_s"] = _median([op.wall for op in traced]) - _median([op.wall for op in cli_ops])
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        # One probe ran before each set-up and each CLI op, and one after the last.
        setup_probes, op_probes = probes[:len(setup_runs) + 1], probes[len(setup_runs):]
        timed = [(op, before, after) for op, before, after in zip(cli_ops, op_probes, op_probes[1:])
                 if not op.problems]
        wall = calibrated([(op.wall, before, after) for op, before, after in timed])
        values = {
            "wall_s": wall,
            "cpu_s": calibrated([(op.cpu, before, after) for op, before, after in timed]),
            "records_per_s": prepared.records / wall if wall else None,
            "peak_rss_mib": _median([op.rss_mib for op in passed]),
            "ok_ratio": len(passed) / len(cli_ops),
            "setup_s": calibrated(list(zip(setup_runs, setup_probes, setup_probes[1:]))),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "why": workloads.WHY[args.workload],
        "environment": environment(root, digit_limit),
        "sizes": prepared.sizes,
        "records": prepared.records,
        "precision_places": workloads.PRECISION,
        "setup_runs_s": setup_runs,
        "host_probe_s": probes,
        "cli_ops": len(cli_ops),
        "cli_ops_passed": len(passed),
        "cli_op_wall_s": [op.wall for op in cli_ops],
        "traced_ops": len(ops) - len(cli_ops),
        "output_sha256": runner.reference,
        "content_problems": content_problems[:20],
        "first_failure_stderr": runner.first_error,
        "partial_outputs": runner.partial_outputs,
        "module_self_s": {module: _median([op.self_s.get(module, 0.0) for op in traced])
                          for module in {m for op in traced for m in op.self_s}} or None,
        "metrics": metrics,
    }
    (state / "results").mkdir(parents=True, exist_ok=True)
    (state / "results" / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if runner.spans:
        (state / "traces").mkdir(parents=True, exist_ok=True)
        with open(state / "traces" / f"{tag}.jsonl", "w", encoding="utf-8") as spans_file:
            for span in runner.spans:
                spans_file.write(json.dumps(span) + "\n")
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
