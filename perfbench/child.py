"""Child processes of the benchmark.

    child.py cli SUMMARY SPANS -- ARGV...
        One traced CLI request: install the span wrappers, run
        ``prstirling.cli.main(ARGV)`` with its normal stdout, then write the
        span summary to SUMMARY (and the spans to SPANS unless it is "-").

    child.py warm SEED SESSION TINY TRACE SPANS
        One warm library session: build the session's contexts (set-up, never
        traced), then serve its request stream in this process, timing each
        request. Prints one JSON report on stdout; with TRACE 1 the report
        holds the span summary and the spans go to SPANS unless it is "-".

The program's source directory must be on PYTHONPATH.
"""

from __future__ import annotations

import json
import random
import sys
import time
from fractions import Fraction

import speed
import tracing
import workloads

SPAN_LIMIT = 50_000
WARM_SAMPLES = 4
SPEED_EVERY = 20  # requests between two reference-unit samples


def run_cli(summary_path: str, spans_path: str, argv: list[str]) -> int:
    tracer = tracing.Tracer()
    tracing.install(tracer)
    import prstirling.cli

    tracer.active = True
    try:
        code = prstirling.cli.main(argv)
    finally:
        tracer.active = False
        sys.stdout.flush()
        with open(summary_path, "w") as fh:
            json.dump(tracer.summary(), fh)
        if spans_path != "-":
            tracer.write_spans(spans_path, SPAN_LIMIT)
    return code


def _fractions(value, length: int) -> bool:
    return len(value) == length and all(type(v) is Fraction for v in value)


def run_warm(seed: int, session: int, tiny: bool, trace: bool, spans_path: str) -> dict:
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    from prstirling import StirlingContext, bell_eval, parse_dist, prob_r_stirling2, stirling_triangle

    plan = workloads.warm_plan(seed, session, tiny)
    slots = [dict(s) for s in plan.slots]

    t0 = time.perf_counter()
    for s in slots:
        s["ctx"] = StirlingContext(parse_dist(s["dist"]), Fraction(s["lam"]), s["r"])
        stirling_triangle(s["ctx"], s["n"])
    setup_s = time.perf_counter() - t0

    pick = random.Random(f"warm-check:{seed}:{session}")
    sampled = set(pick.sample(range(len(plan.ops)), min(WARM_SAMPLES, len(plan.ops))))
    args = []
    for op in plan.ops:  # inputs are made before timing starts
        args.append(Fraction(op[3]) if op[0] == "bell" else Fraction(op[2]) if op[0] == "lambda" else None)

    latencies, invalid, samples, speeds = [], 0, [], [speed.unit()]
    if tracer:
        tracer.active = True
    serve0 = time.perf_counter()
    for i, (op, arg) in enumerate(zip(plan.ops, args)):
        if i and i % SPEED_EVERY == 0 and not tracer:
            speeds.append(speed.unit())
        kind, s = op[0], slots[op[1]]
        t = time.perf_counter()
        if kind == "row":
            n = op[2]
            result = [prob_r_stirling2(s["ctx"], n, k) for k in range(n + 1)]
        elif kind == "bell":
            n = op[2]
            result = bell_eval(s["ctx"], n, arg)
        elif kind == "grow":
            n = s["n"] = op[2]
            result = stirling_triangle(s["ctx"], n)
        else:
            n = s["n"]
            s["ctx"] = StirlingContext(s["ctx"].oracle, arg, s["r"])
            s["lam"] = op[2]
            result = stirling_triangle(s["ctx"], n)
        latencies.append(time.perf_counter() - t)

        if kind == "bell":
            ok = type(result) is Fraction
        elif kind == "row":
            ok = _fractions(result, n + 1)
        else:
            ok = len(result) == n + 1 and all(_fractions(row, m + 1) for m, row in enumerate(result))
        invalid += not ok
        if ok and i in sampled:
            sample = {"dist": s["dist"], "lam": s["lam"], "r": s["r"], "n": n}
            if kind == "bell":
                sample.update(x=op[3], value=str(result))
            else:
                row = result if kind == "row" else result[n]
                k = pick.randint(0, n)
                sample.update(k=k, value=str(row[k]))
            samples.append(sample)
    serve_s = time.perf_counter() - serve0 - sum(speeds[1:])
    if tracer:
        tracer.active = False
        if spans_path != "-":
            tracer.write_spans(spans_path, SPAN_LIMIT)
    with open("/proc/self/status") as fh:
        peak_kb = int(next(line for line in fh if line.startswith("VmHWM:")).split()[1])
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024,
        "serve_s": serve_s,
        "latencies": latencies,
        "speed": speeds,
        "invalid": invalid,
        "samples": samples,
        "trace": tracer.summary() if tracer else None,
    }


def main(argv: list[str]) -> int:
    if argv[0] == "cli":
        if argv[3] != "--":
            raise SystemExit("usage: child.py cli SUMMARY SPANS -- ARGV...")
        return run_cli(argv[1], argv[2], argv[4:])
    if argv[0] == "warm":
        seed, session, tiny, trace = (int(a) for a in argv[1:5])
        print(json.dumps(run_warm(seed, session, bool(tiny), bool(trace), argv[5])))
        return 0
    raise SystemExit(f"unknown child mode {argv[0]!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
