#!/usr/bin/env python3
"""prstirling benchmark: three cold CLI workloads and one warm library workload.

    python3 perfbench/run.py --workload {table,series,verify,warm,all}
                             --seed N --seconds S --trace {0,1}

Run it from anywhere inside a source checkout; it uses the ``src/`` tree next
to this directory and builds nothing. Each workload is a closed loop with one
client: the next request starts when the previous one has finished.

- table, series, verify: a request is one fresh ``prstirling`` process (the
  console-script entry point, ``prstirling.cli.main``).
- warm: a request is one library call in a long-lived process. A session
  process builds a few contexts (set-up), then serves a seeded stream of row
  reads, ``bell_eval`` calls and context extensions; sessions run back to back.

Each run keeps timing a fixed reference unit (see speed.py) between its
requests and scales its time metrics by the resulting speed factor, so they
read as seconds on the reference machine at its usual speed; the raw figures
are printed and stored too. The run's length is measured on the same scale:
it issues whole rounds (whole sessions for warm) until ``--seconds`` scaled
seconds have passed, and stops after at most ``WALL_CAP`` times as many wall
seconds.

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics. With ``--trace 1`` every request is also repeated with span
wrappers installed (see tracing.py), and the JSON holds the per-layer metrics.
Everything the run writes goes to ``.perfbench/`` at the checkout root;
``--workload all`` runs every workload and prints one table.

NOTES.md explains the workloads, the metrics and what each layer metric is predicted
to move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import speed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("table", "series", "verify", "warm")
# The console-script entry point, plus one stderr line with the process's own
# peak RSS. A child's rusage max-RSS would include the benchmark process's own
# size, which the child's memory map had until exec.
CLI_PROGRAM = """import sys
from prstirling.cli import main
try:
    code = main(sys.argv[1:])
finally:
    with open("/proc/self/status") as fh:
        sys.stderr.write("\\n" + next(line for line in fh if line.startswith("VmHWM:")))
sys.exit(code)
"""
REQUEST_TIMEOUT_S = 120
MIN_SETUP_SAMPLES = 7
WARMUP_SPEED_SAMPLES = 3
SPEED_SHARE = 0.15  # reference-unit time after a request, as a share of its wall time
WALL_CAP = 1.25
CAVEAT = (
    "shared machine (the reference one has 2 cores): one table request at n_max=50 ranged "
    "1.08-1.61 s wall over 6 runs with CPU time tracking wall, so only medians over many "
    "requests are compared, and time metrics are scaled by the run's measured speed factor"
)

END_TO_END = {
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    **{f"moments.{f}.{s}": u for f in ("moment", "sum_moment", "degenerate_factorial_moment")
       for s, u in (("calls", "count"), ("self_s", "s"))},
    "moments.sum_moment.distinct_ratio": "ratio",
    "moments.degenerate_factorial_moment.distinct_ratio": "ratio",
    **{f"stirling.{f}.{s}": u
       for f in ("prob_r_stirling2", "prob_stirling2", "prob_r_stirling2_via_conv", "prob_r_stirling2_via_shift")
       for s, u in (("calls", "count"), ("self_s", "s"))},
    "stirling.prob_r_stirling2.distinct_ratio": "ratio",
    **{f"kernel.{f}.calls": "count" for f in ("stirling1_signed", "stirling2", "binomial")},
    **{f"kernel.{f}.self_s": "s" for f in ("convert_basis", "shift_argument", "degenerate_falling_coeffs")},
    **{f"bell.{f}.self_s": "s" for f in ("bell_coeffs", "bell_eval", "bell_via_convolution", "bell_dobinski")},
    "bell.bell_dobinski.terms_used": "count",
    "bell.bell_dobinski.rel_err_max": "ratio",
    **{f"identities.{i}.{s}": u for i in workloads.GATING_IDS for s, u in (("calls", "count"), ("self_s", "s"))},
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "distparse.parse_dist.self_s": "s",
    "moments.bits_max": "bits",
    "stirling.bits_max": "bits",
    "trace.overhead_ratio": "ratio",
}

ENV = dict(os.environ, PYTHONPATH=str(SRC))
NPROC = len(os.sched_getaffinity(0))  # before speed.pin() narrows it to one CPU


def spawn(argv: list[str]) -> tuple[float, int, bytes, bytes]:
    """Run one child process to the end: (wall s, exit code, stdout, stderr)."""
    with tempfile.TemporaryFile(dir=OUT) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=ENV)
        timer = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
        except BaseException:
            proc.kill()
            raise
        finally:
            proc.stdout.close()
            proc.wait()
            timer.cancel()
        wall = time.perf_counter() - t0
        err.seek(0)
        return wall, proc.returncode, out, err.read()


def split_peak_rss(err: bytes) -> tuple[float, bytes]:
    """Take the VmHWM line CLI_PROGRAM appends off stderr: (peak RSS MB, rest)."""
    head, _, last = err.rstrip(b"\n").rpartition(b"\n")
    if not last.startswith(b"VmHWM:"):
        return 0.0, err
    return int(last.split()[1]) / 1024, head


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, never below the
    median: (value, percentile)."""
    ordered = sorted(latencies)
    rank = max(len(ordered) - 10, len(ordered) // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def environment() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "commit": commit,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": NPROC,
        "pinned_to_cpu": min(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "caveat": CAVEAT,
    }


class Trace:
    """Merges span summaries from traced requests and derives per-layer metrics."""

    def __init__(self):
        self.spans: dict[str, list] = {}
        self.bits: dict[str, int] = {}
        self.distinct: dict[str, int] = {}
        self.terms: list[int] = []
        self.requests = 0
        self.traced_s = 0.0
        self.untraced_s = 0.0
        self.output_bytes = 0

    def add(self, summary: dict, requests: int) -> None:
        self.requests += requests
        for name, (calls, self_s, total_s) in summary["spans"].items():
            entry = self.spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += self_s
            entry[2] += total_s
        for layer, bits in summary["bits_max"].items():
            self.bits[layer] = max(bits, self.bits.get(layer, 0))
        for name, count in summary["distinct"].items():
            self.distinct[name] = self.distinct.get(name, 0) + count
        self.terms += summary["dobinski_terms"]

    def metrics(self, rel_err_max: float) -> dict[str, float]:
        per = max(self.requests, 1)
        out = {}
        for metric in PER_LAYER:
            name, _, stat = metric.rpartition(".")
            calls, self_s, _ = self.spans.get(name, (0, 0.0, 0.0))
            if stat == "calls":
                out[metric] = calls / per
            elif stat == "self_s" and name == "cli":
                out[metric] = sum(e[1] for n, e in self.spans.items() if n.startswith("cli.")) / per
            elif stat == "self_s":
                out[metric] = self_s / per
            elif stat == "distinct_ratio":
                out[metric] = self.distinct.get(name, 0) / calls if calls else 0.0
            elif stat == "bits_max":
                out[metric] = self.bits.get(name, 0)
            elif stat == "terms_used":
                out[metric] = statistics.fmean(self.terms) if self.terms else 0.0
        out["bell.bell_dobinski.rel_err_max"] = rel_err_max
        out["cli.output_bytes"] = self.output_bytes / per
        out["trace.overhead_ratio"] = self.traced_s / self.untraced_s if self.untraced_s else 0.0
        return out


class Result:
    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.peak_rss_mb = 0.0
        self.setup: list[float] = []
        self.speed: list[float] = []  # reference-unit wall times
        self.reference = speed.PROCESS_REFERENCE_S
        self.start = time.perf_counter()
        self.wall_s = 0.0
        self.rel_err_max = 0.0
        self.requests: list[tuple[str, float]] = []
        self.rounds: list[float] = []  # scaled seconds at the end of each round

    def scaled(self) -> float:
        """Scaled seconds since the run started."""
        wall = time.perf_counter() - self.start
        return wall * speed.factor(self.speed, self.reference) if self.speed else 0.0

    def running(self, seconds: float) -> bool:
        """Whether the run has more scaled seconds (and wall seconds) to go."""
        now = self.scaled()
        if self.attempted:  # a round (a session for warm) has just ended
            self.rounds.append(now)
        return now < seconds and time.perf_counter() - self.start < WALL_CAP * seconds

    def fail(self, reason: str, count: int = 1) -> None:
        self.failures += [reason] * count


def _fail_reason(code: int, err: bytes) -> str:
    lines = err.decode("utf-8", "replace").strip().splitlines()
    return f"exit {code}: {lines[-1] if lines else 'no stderr'}"


def cli_setup_sample(result: Result, record: bool = True) -> None:
    """Set-up of a cold request: a fresh interpreter reaching ``import prstirling.cli``."""
    wall, code, _, err = spawn([sys.executable, "-c", "import prstirling.cli"])
    if code != 0:
        raise SystemExit(f"set-up failed: {_fail_reason(code, err)}")
    if record:
        result.setup.append(wall)


def run_cli(workload: str, seed: int, seconds: float, traced: bool, tiny: bool, corrupt: bool):
    import checks

    result, trace = Result(), Trace() if traced else None
    cli_setup_sample(result, record=False)  # byte-compiles the sources once per checkout
    for _ in range(WARMUP_SPEED_SAMPLES):
        result.speed.append(speed.process_unit())
    stream = workloads.cli_stream(workload, seed, tiny)
    done = []  # (request, exit code, stdout, stderr)
    result.start = time.perf_counter()
    summary_path = OUT / "tmp" / f"summary-{os.getpid()}.json"
    spans_path = OUT / "spans" / f"{workload}-seed{seed}.json"
    # Whole rounds only: a run that stopped inside a round would hold a
    # different mix of cheap and dear requests from seed to seed. A set-up
    # sample and reference-unit samples follow every request: spread over the
    # run, their medians see the same machine speed as the requests do. A
    # longer request is followed by more reference-unit samples, so that every
    # stretch of the run weighs in the factor as much as in the latencies.
    while result.running(seconds):
        for req in next(stream):
            wall, code, out, err = spawn([sys.executable, "-c", CLI_PROGRAM, *req.argv])
            rss, err = split_peak_rss(err)
            cli_setup_sample(result)
            spent = 0.0
            while not spent or spent < SPEED_SHARE * wall:
                result.speed.append(speed.process_unit())
                spent += result.speed[-1]
            result.attempted += 1
            result.latencies.append(wall)
            result.wall_s += wall
            result.peak_rss_mb = max(result.peak_rss_mb, rss)
            if corrupt and len(done) == 0:
                out = checks.corrupt(out)
            done.append((req, code, out, err))
            result.requests.append((" ".join(req.argv), wall))
            if traced:
                first = trace.requests == 0
                t_wall, t_code, t_out, t_err = spawn(
                    [sys.executable, str(BENCH / "child.py"), "cli", str(summary_path),
                     str(spans_path) if first else "-", "--", *req.argv])
                if t_code != code or t_out != out:
                    result.fail(f"traced request differs from untraced: {_fail_reason(t_code, t_err)}")
                    continue
                trace.add(json.loads(summary_path.read_text()), 1)
                trace.untraced_s += wall
                trace.traced_s += t_wall
                trace.output_bytes += len(out)
    summary_path.unlink(missing_ok=True)
    while len(result.setup) < MIN_SETUP_SAMPLES:
        cli_setup_sample(result)
        result.speed.append(speed.process_unit())

    rng = random.Random(f"check:{workload}:{seed}")
    for i, (req, code, out, err) in enumerate(done):
        if code != 0:
            result.fail(_fail_reason(code, err))
            continue
        try:
            if workload == "table":
                checks.check_table(req.params, out, rng)
            elif workload == "series":
                rel = checks.check_series(req.params, out, witness=i % 3 == 0)
                result.rel_err_max = max(result.rel_err_max, rel)
            else:
                checks.check_verify(req.params, out)
        except checks.Invalid as exc:
            result.fail(f"{' '.join(req.argv)}: {exc}")
    return result, trace


def warm_session(seed: int, session: int, tiny: bool, traced: bool) -> tuple[dict | None, str]:
    """Run one warm session process: (report or None, failure reason)."""
    spans = OUT / "spans" / f"warm-seed{seed}.json" if traced and session == 0 else "-"
    _, code, out, err = spawn([sys.executable, str(BENCH / "child.py"), "warm", str(seed),
                                    str(session), str(int(tiny)), str(int(traced)), str(spans)])
    if code != 0:
        return None, _fail_reason(code, err)
    try:
        return json.loads(out.decode("utf-8").strip().splitlines()[-1]), ""
    except (UnicodeDecodeError, IndexError, json.JSONDecodeError):
        return None, "session report is not JSON"


def run_warm(seed: int, seconds: float, traced: bool, tiny: bool, corrupt: bool):
    import checks

    result, trace = Result(), Trace() if traced else None
    result.reference = speed.REFERENCE_S
    session = 0
    samples = []
    while result.running(seconds):
        report, reason = warm_session(seed, session, tiny, False)
        if report is None:
            result.attempted += 1
            result.fail(f"warm session {session}: {reason}")
        else:
            result.setup.append(report["setup_s"])
            result.speed += report["speed"]
            result.peak_rss_mb = max(result.peak_rss_mb, report["peak_rss_mb"])
            result.latencies += report["latencies"]
            result.wall_s += report["serve_s"]
            result.attempted += len(report["latencies"])
            if report["invalid"]:
                result.fail(f"warm session {session}: invalid results", report["invalid"])
            if corrupt and not samples:
                report["samples"][0]["value"] = checks.corrupt(report["samples"][0]["value"].encode()).decode()
            samples += report["samples"]
        if traced:
            traced_report, reason = warm_session(seed, session, tiny, True)
            if traced_report is None:
                result.fail(f"traced warm session {session}: {reason}")
            elif report is not None:
                trace.add(traced_report["trace"], len(traced_report["latencies"]))
                trace.untraced_s += report["serve_s"]
                trace.traced_s += traced_report["serve_s"]
        session += 1
    for sample in samples:
        try:
            checks.check_warm_sample(sample)
        except checks.Invalid as exc:
            result.fail(str(exc))
    return result, trace


def run_workload(workload: str, seed: int, seconds: float, traced: bool, tiny: bool = False,
                 corrupt: bool = False) -> dict:
    env = environment()
    if workload == "warm":
        result, trace = run_warm(seed, seconds, traced, tiny, corrupt)
    else:
        result, trace = run_cli(workload, seed, seconds, traced, tiny, corrupt)
    n = len(result.latencies)
    failed = len(result.failures)
    if n:
        tail_s, tail_pct = tail(result.latencies)
        raw = {
            "latency_p50_s": statistics.median(result.latencies),
            "latency_tail_s": tail_s,
            "requests_per_s": n / result.wall_s,
            "peak_rss_mb": result.peak_rss_mb,
            "setup_s": statistics.median(result.setup),
        }
        f = speed.factor(result.speed, result.reference)
        e2e = {name: value / f if name == "requests_per_s" else value if name == "peak_rss_mb" else value * f
               for name, value in raw.items()}
    else:
        tail_pct, f, raw, e2e = 0.0, 0.0, {}, {}
    metrics = trace.metrics(result.rel_err_max) if traced else e2e
    units = PER_LAYER if traced else END_TO_END
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "environment": env,
        "samples": n,
        "setup_samples": len(result.setup),
        "tail_percentile": tail_pct,
        "fail_ratio": failed / max(result.attempted, 1),
        "rel_err_max": result.rel_err_max,
        "failures": result.failures[:10],
        "speed_factor": f,
        "speed_samples": len(result.speed),
        "round_ends_scaled_s": result.rounds,
        "speed_samples_s": result.speed,
        "end_to_end": e2e,
        "end_to_end_raw": raw,
        "requests": result.requests,
        "per_layer": metrics if traced else None,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{workload}-seed{seed}-trace{int(traced)}.json").write_text(json.dumps(record, indent=2))

    print(f"workload {workload}  seed {seed}  seconds {seconds}  trace {int(traced)}")
    print(f"  commit {env['commit']}  python {env['python']}  nproc {env['nproc']}  "
          f"loadavg {' '.join(f'{v:.2f}' for v in env['loadavg_at_start'])}")
    print(f"  caveat: {CAVEAT}")
    print(f"  requests {result.attempted}  failed {failed}  fail_ratio {record['fail_ratio']:.4g}  "
          f"tail percentile p{tail_pct:.1f}  set-up samples {len(result.setup)}")
    if workload == "series":
        print(f"  rel_err_max {result.rel_err_max:.3g}")
    if not traced:
        print(f"  speed factor {f:.4g} over {len(result.speed)} reference-unit samples "
              f"(raw: {', '.join(f'{k} {v:.6g}' for k, v in raw.items())})")
    for reason in result.failures[:5]:
        print(f"  FAIL {reason}")
    for name in units:
        if name in metrics:
            print(f"  {name:<48} {metrics[name]:>14.6g} {units[name]}")
    return {
        "correct": failed == 0 and n > 0,
        "attempted": max(result.attempted, 1),
        "failed": failed if n else max(result.attempted, 1),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
        "record": record,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the smoke check")
    parser.add_argument("--corrupt-first", action="store_true",
                        help="corrupt the first output before checking it (smoke check)")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that spawn() kills and reaps the request in flight.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    speed.pin()

    if not (SRC / "prstirling" / "cli.py").is_file():
        print(f"error: no prstirling sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    (OUT / "spans").mkdir(parents=True, exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), args.tiny, args.corrupt_first)
    if args.workload == "all":
        print_table(results)
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    else:
        final = {k: v for k, v in results[args.workload].items() if k != "record"}
    print(json.dumps(final))
    return 0


def print_table(results: dict) -> None:
    print()
    print(f"{'metric':<16} {'unit':<6}" + "".join(f"{w:>14}" for w in results))
    rows = [(m, u) for m, u in END_TO_END.items()] + [("fail_ratio", "ratio"), ("rel_err_max", "ratio")]
    for metric, unit in rows:
        cells = []
        for r in results.values():
            rec = r["record"]
            value = rec["end_to_end"].get(metric, rec.get(metric))
            cells.append(f"{value:>14.6g}" if value is not None else f"{'-':>14}")
        print(f"{metric:<16} {unit:<6}" + "".join(cells))
    print(f"{'samples':<16} {'count':<6}" + "".join(f"{r['record']['samples']:>14}" for r in results.values()))
    print(f"{'tail percentile':<16} {'%':<6}" + "".join(f"{r['record']['tail_percentile']:>14.1f}" for r in results.values()))


if __name__ == "__main__":
    sys.exit(main())
