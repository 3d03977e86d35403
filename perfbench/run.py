"""The parahoric benchmark: one workload per invocation, one child process at
a time, every output checked.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                             [--record-digests]

Run it from anywhere inside a checkout; it uses ``src/`` and ``goldens/`` of
the checkout it lives in and writes only under ``.bench_build/perfbench/``.
With ``--trace 0`` it prints the end-to-end metrics (setup_s, wall_s, cpu_s,
peak_rss_mb, and fail_frac), with ``--trace 1`` the per-layer metrics of a
traced pass next to an untraced one.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See README.md for the workloads and what each metric should move.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
# exactly what the `parahoric` console script runs
ENTRY = "import sys; from parahoric.cli import main; sys.exit(main())"
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import parahoric.cli; "
    "print(time.perf_counter() - t)"
)
CASE_TIMEOUT = 90
WARM_TIMEOUT = 120
SETUP_RUNS = 11
PROBE_RUNS = 3
SAMPLE_EVERY_S = 0.5


@dataclass
class Outcome:
    returncode: int | None  # None: killed at the timeout
    stdout: str
    stderr: str
    wall: float
    cpu: float
    scale: float  # reference speed / speed while this child ran


@dataclass
class PassResult:
    wall: float = 0.0  # as measured
    cpu: float = 0.0
    wall_ref: float = 0.0  # at the reference speed
    cpu_ref: float = 0.0
    attempted: int = 0
    digests: dict = field(default_factory=dict)
    problems: dict = field(default_factory=dict)  # case id -> reasons

    def fail(self, case_id: str, reason: str) -> None:
        self.problems.setdefault(case_id, []).append(reason)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # same set and dict orders on every run
    return env


class Meter:
    """Runs children one at a time and measures the machine's speed around
    and during each (see speed.py).

    The calibration loop runs right before a child starts, right after it
    exits, and every SAMPLE_EVERY_S while it runs, with the child stopped
    (SIGSTOP/SIGCONT) so that the two never share the CPU.  The time the
    child spent stopped is taken out of its wall time; its CPU time, from
    our children's rusage, covers exactly this child because children run
    one at a time.
    """

    def __init__(self):
        self.last = speed.calibrate()

    def launch(self, argv: list[str], timeout: float) -> Outcome:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        calibrations = [self.last]
        paused = 0.0
        timed_out = False
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        try:
            while True:
                try:
                    stdout, stderr = proc.communicate(timeout=SAMPLE_EVERY_S)
                    break
                except subprocess.TimeoutExpired:
                    pass
                if time.perf_counter() - start - paused > timeout:
                    timed_out = True
                    proc.kill()
                    stdout, stderr = proc.communicate()
                    break
                pause = time.perf_counter()
                proc.send_signal(signal.SIGSTOP)
                calibrations.append(speed.calibrate())
                proc.send_signal(signal.SIGCONT)
                paused += time.perf_counter() - pause
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start - paused
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        self.last = speed.calibrate()
        calibrations.append(self.last)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return Outcome(
            None if timed_out else proc.returncode, stdout, stderr, wall, cpu,
            speed.REFERENCE_S / statistics.mean(calibrations),
        )


def process_problems(out: Outcome) -> list[str]:
    reasons = []
    if out.returncode is None:
        reasons.append("timeout")
    elif out.returncode != 0:
        reasons.append(f"exit {out.returncode}")
    if "Traceback" in out.stderr:
        reasons.append("traceback: " + out.stderr.strip().splitlines()[-1])
    return reasons


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# output checks


def normalized_report(text: str) -> str:
    """The report with its timing field zeroed, as the goldens store it."""
    data = json.loads(text)
    data["timing_seconds"] = 0.0
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def report_problems(case: workloads.Case, report: dict) -> list[str]:
    """Properties every report of this subcommand must have."""
    if case.command == "scan":
        ok = report["scan"]["sum_rule_holds"] is True
    elif case.command == "grade":
        ok = report["grading"]["crosscheck"] is True
    elif case.command == "decompose":
        dec = report["decomposition"]
        ok = dec["dimensions_match"] is True and dec["span_check"] is not False
    elif case.command == "stability":
        ok = report["stability"]["verdict"] is True or not case.expect_verdict
    else:  # quotient
        ok = report["quotient"]["root_count"] == len(report["quotient"]["roots"])
    return [] if ok else [f"{case.command} property failed"]


def check_cli(case, out: Outcome, expected: dict, result: PassResult) -> None:
    reasons = process_problems(out)
    try:
        text = normalized_report(out.stdout)
        reasons += report_problems(case, json.loads(text))
    except (ValueError, KeyError, TypeError):
        reasons.append("no well-formed report")
        text = None
    if text is not None:
        digest = result.digests[case.id] = sha256(text)
        if case.golden and text != (ROOT / "goldens" / case.golden).read_text():
            reasons.append(f"differs from goldens/{case.golden}")
        reasons += digest_problem(case.id, digest, expected)
    for reason in reasons:
        result.fail(case.id, reason)


def warm_point_problems(result: dict) -> list[str]:
    return [
        f"{prop} failed"
        for prop in ("sum_rule_holds", "crosscheck", "dimensions_match")
        if result.get(prop) is not True
    ]


def check_warm(cases, out: Outcome, expected: dict, result: PassResult) -> None:
    seen = set()
    for line in out.stdout.splitlines():
        try:
            entry = json.loads(line)
            case_id = f"{cases[entry['datum']].id}/{entry['point']}"
        except (ValueError, KeyError, IndexError, TypeError):
            continue
        seen.add(case_id)
        if "result" not in entry:
            result.fail(case_id, "raised")
            continue
        digest = result.digests[case_id] = sha256(json.dumps(entry["result"], sort_keys=True))
        for reason in warm_point_problems(entry["result"]) + digest_problem(case_id, digest, expected):
            result.fail(case_id, reason)
    # the sweep process is a case of its own; a point that raised has
    # already failed with its traceback
    exit_problems = [r for r in process_problems(out) if not r.startswith("traceback")]
    for reason in exit_problems:
        result.fail("warm/process", reason)
    for case in cases:
        for k in range(len(case.points)):
            case_id = f"{case.id}/{k}"
            if case_id not in seen:
                result.fail(case_id, "no result")


# ---------------------------------------------------------------------------
# passes


def run_pass(meter, workload, cases, paths, expected, trace_dir: Path | None) -> PassResult:
    result = PassResult()
    if workload == "warm_points":
        argv = [sys.executable, str(HERE / "child.py"), "warm"]
        argv += [str(paths[c.id]) for c in cases]
        if trace_dir is not None:
            argv += ["--trace", str(trace_dir / "warm.json")]
        outs = [meter.launch(argv, WARM_TIMEOUT)]
        result.attempted = 1 + sum(len(c.points) for c in cases)
        check_warm(cases, outs[0], expected, result)
    else:
        outs = []
        for index, case in enumerate(cases):
            cli = [case.command, "--spec", str(paths[case.id])]
            if trace_dir is None:
                argv = [sys.executable, "-c", ENTRY, *cli]
            else:
                argv = [sys.executable, str(HERE / "child.py"), "cli",
                        "--trace", str(trace_dir / f"{index:03d}.json"),
                        "--case", case.id, "--", *cli]
            outs.append(meter.launch(argv, CASE_TIMEOUT))
            result.attempted += 1
            check_cli(case, outs[-1], expected, result)
    result.wall = sum(o.wall for o in outs)
    result.cpu = sum(o.cpu for o in outs)
    result.wall_ref = sum(o.wall * o.scale for o in outs)
    result.cpu_ref = sum(o.cpu * o.scale for o in outs)
    return result


def measure_setup(meter, result: PassResult) -> dict:
    """Fresh `parahoric catalog` processes with warm bytecode (at the
    reference speed and as measured), plus the import share and the
    bare-interpreter floor for reference."""
    catalog = [sys.executable, "-c", ENTRY, "catalog"]
    ids = "".join(f"{cid}\n" for cid in sorted(c[0] for c in workloads.CATALOG))
    meter.launch(catalog, CASE_TIMEOUT)  # compiles the bytecode if it is missing
    outs = []
    for k in range(SETUP_RUNS):
        outs.append(meter.launch(catalog, CASE_TIMEOUT))
        result.attempted += 1
        wrong = [] if outs[-1].stdout == ids else ["wrong id list"]
        for reason in process_problems(outs[-1]) + wrong:
            result.fail(f"setup/catalog/{k}", reason)
    imports = []
    for _ in range(PROBE_RUNS):
        out = meter.launch([sys.executable, "-c", IMPORT_PROBE], CASE_TIMEOUT)
        try:
            imports.append(float(out.stdout) * out.scale)
        except ValueError:
            pass
    floor = [meter.launch([sys.executable, "-c", "pass"], CASE_TIMEOUT) for _ in range(PROBE_RUNS)]
    return {
        "setup_s": [o.wall * o.scale for o in outs],
        "setup_measured_s": [o.wall for o in outs],
        "import_s": imports,
        "floor_s": [o.wall * o.scale for o in floor],
    }


# ---------------------------------------------------------------------------
# reporting


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median, first and third quartile."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def describe(values: list[float], unit: str, what: str) -> str:
    median, q1, q3 = summary(values)
    return f"{median:.4f} {unit}  (median of {len(values)} {what}; q1 {q1:.4f}, q3 {q3:.4f})"


def merge_problems(problems: dict, result: PassResult) -> None:
    for case_id, reasons in result.problems.items():
        problems.setdefault(case_id, []).extend(reasons)


def finish(attempted: int, problems: dict, metrics: dict) -> int:
    failed = len(problems)
    for case_id, reasons in sorted(problems.items()):
        print(f"  FAILED {case_id}: {'; '.join(reasons)}")
    print(f"  fail_frac    {failed / attempted:.4f} ratio  ({failed} failed / {attempted} attempted)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


def expected_digests(workload: str, seed: int, cases) -> dict:
    """Case id -> recorded digest (None if none was recorded) for every case
    checked at this seed: all cases at the default seed, otherwise only the
    cases that do not depend on the seed."""
    recorded = json.loads(DIGESTS.read_text()).get(workload, {}) if DIGESTS.exists() else {}
    expected = {}
    for case in cases:
        if case.seeded and seed != workloads.DEFAULT_SEED:
            continue
        ids = [f"{case.id}/{k}" for k in range(len(case.points))] if case.points else [case.id]
        for case_id in ids:
            expected[case_id] = recorded.get(case_id)
    return expected


def digest_problem(case_id: str, digest: str, expected: dict) -> list[str]:
    if case_id not in expected or digest == expected[case_id]:
        return []
    return ["digest mismatch" if expected[case_id] else "no recorded digest"]


def record_digests(workload: str, digests: dict) -> None:
    data = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    data[workload] = dict(sorted(digests.items()))
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def untraced_run(args, cases, paths, expected, meter: Meter) -> int:
    problems: dict = {}
    setup_pass = PassResult()
    setup = measure_setup(meter, setup_pass)
    merge_problems(problems, setup_pass)
    attempted = setup_pass.attempted
    passes: list[PassResult] = []
    start = time.perf_counter()
    while True:
        result = run_pass(meter, args.workload, cases, paths, expected, None)
        passes.append(result)
        attempted += result.attempted
        merge_problems(problems, result)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p.wall for p in passes) > args.seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    if args.record_digests:
        record_digests(args.workload, passes[0].digests)
        print(f"  recorded {len(passes[0].digests)} digests in {DIGESTS.name}")
    series = {
        "setup_s": setup["setup_s"],
        "wall_s": [p.wall_ref for p in passes],
        "cpu_s": [p.cpu_ref for p in passes],
    }
    print(f"perfbench {args.workload} seed={args.seed} passes={len(passes)} "
          f"cases/pass={passes[0].attempted}  (times at the reference speed; "
          f"as measured in brackets)")
    print(f"  setup_s      {describe(series['setup_s'], 's', 'catalog runs')}"
          f"  [{summary(setup['setup_measured_s'])[0]:.4f} s]")
    if setup["import_s"]:
        print(f"      import share (process.import.s) {describe(setup['import_s'], 's', 'probes')}")
    print(f"      bare interpreter {describe(setup['floor_s'], 's', 'probes')}")
    print(f"  wall_s       {describe(series['wall_s'], 's', 'passes')}"
          f"  [{summary([p.wall for p in passes])[0]:.4f} s]")
    print(f"  cpu_s        {describe(series['cpu_s'], 's', 'passes')}"
          f"  [{summary([p.cpu for p in passes])[0]:.4f} s]")
    print(f"  peak_rss_mb  {peak_mb:.1f} MB  (largest max-RSS of any child this run)")
    metrics = {name: (summary(values)[0], "s") for name, values in series.items()}
    metrics["peak_rss_mb"] = (peak_mb, "MB")
    return finish(attempted, problems, metrics)


def traced_run(args, cases, paths, expected, work: Path, meter: Meter) -> int:
    """An untraced pass, then a traced one: per-layer metrics, the tracing
    overhead, and a check that the wrappers change no result."""
    plain = run_pass(meter, args.workload, cases, paths, expected, None)
    trace_dir = work / "traces"
    trace_dir.mkdir(parents=True)
    traced = run_pass(meter, args.workload, cases, paths, expected, trace_dir)
    problems: dict = {}
    merge_problems(problems, plain)
    merge_problems(problems, traced)
    for case_id, digest in plain.digests.items():
        if traced.digests.get(case_id) != digest:
            problems.setdefault(case_id, []).append("traced result differs")
    traces = [json.loads(p.read_text()) for p in sorted(trace_dir.glob("*.json"))]
    layers = tracing.layer_metrics(traces, traced.wall_ref / traced.wall)
    units = dict(tracing.LAYER_METRICS)
    print(f"perfbench {args.workload} seed={args.seed} traced, "
          f"cases/pass={plain.attempted}  (self times at the reference speed)")
    for name, value in layers.items():
        label = "  (computed)" if name in tracing.COMPUTED else ""
        print(f"  {name:44s} {value:.6g} {units[name]}{label}")
    overhead = traced.wall_ref - plain.wall_ref
    print(f"  tracing overhead: {overhead:+.3f} s ({overhead / plain.wall_ref:+.1%}) "
          f"on an untraced wall_s of {plain.wall_ref:.3f} s (reference speed)")
    metrics = {name: (value, units[name]) for name, value in layers.items()}
    return finish(plain.attempted + traced.attempted, problems, metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure whole passes until this many seconds are spent")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's report digests (default seed only)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "parahoric" / "cli.py").is_file() or not (ROOT / "goldens").is_dir():
        print(f"perfbench: no parahoric sources (src/parahoric, goldens/) under {ROOT}",
              file=sys.stderr)
        return 2
    if args.record_digests and (args.trace or args.seed != workloads.DEFAULT_SEED):
        parser.error("--record-digests needs --trace 0 and the default seed")
    # one CPU for us and every child, so that a calibration measures the
    # speed the next child gets
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = ROOT / ".bench_build" / "perfbench" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    cases = workloads.generate(args.workload, args.seed, ROOT)
    paths = workloads.write_specs(cases, work / "specs")
    expected = {} if args.record_digests else expected_digests(args.workload, args.seed, cases)
    # a termination request unwinds through Meter.launch, which kills and
    # reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    meter = Meter()
    if args.trace:
        return traced_run(args, cases, paths, expected, work, meter)
    return untraced_run(args, cases, paths, expected, meter)


if __name__ == "__main__":
    sys.exit(main())
