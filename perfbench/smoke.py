#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at tiny input sizes (about a minute).

    python3 perfbench/smoke.py

For every workload (the ones BENCHMARK.json lists, and warm) it checks that a plain run and a traced run pass and emit
exactly the metrics BENCHMARK.json names, with their units; that a run whose
first output is deliberately corrupted reports a failure; and that the
benchmark refuses to run, without printing a result, in a directory that
holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("table", "series", "verify", "warm")  # warm is not in BENCHMARK.json


def run(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    done = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return done.returncode, done.stdout


def result(args: list[str]) -> dict:
    code, out = run(*args)
    if code != 0:
        raise AssertionError(f"{args}: exit {code}")
    return json.loads(out.strip().splitlines()[-1])


def check_metrics(res: dict, spec: list[dict], label: str) -> None:
    wanted = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    if got != wanted:
        raise AssertionError(f"{label}: metrics differ from BENCHMARK.json: "
                             f"missing {sorted(set(wanted) - set(got))}, extra {sorted(set(got) - set(wanted))}")
    for name, m in res["metrics"].items():
        if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            raise AssertionError(f"{label}: {name} is not a finite number")


def main() -> int:
    spec_file = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = ["--seed", "7", "--seconds", "1", "--tiny"]
    listed = {w["name"] for w in spec_file["workloads"]}
    if not listed <= set(WORKLOADS):
        raise AssertionError(f"BENCHMARK.json names unknown workloads {sorted(listed - set(WORKLOADS))}")
    for name in WORKLOADS:
        for trace, metrics in (("0", spec_file["end_to_end"]), ("1", spec_file["per_layer"])):
            res = result(["--workload", name, "--trace", trace, *base])
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                raise AssertionError(f"{name} trace {trace}: {res['failed']} of {res['attempted']} failed")
            check_metrics(res, metrics, f"{name} trace {trace}")
        bad = result(["--workload", name, "--trace", "0", "--corrupt-first", *base])
        if bad["correct"] or bad["failed"] < 1:
            raise AssertionError(f"{name}: a corrupted output was not counted as failed")
        print(f"ok  {name}: metrics emitted; corrupted output raises fail_ratio "
              f"to {bad['failed']}/{bad['attempted']}")

    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec_file["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        code, out = run("--workload", spec_file["workloads"][0]["name"], *base, "--trace", "0", cwd=bare)
        if code == 0 or out.strip():
            raise AssertionError(f"without the program's sources: exit {code}, stdout {out!r}")
    print("ok  without the program's sources the benchmark exits non-zero and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
