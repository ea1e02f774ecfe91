#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes; takes about 20 seconds.

    python3 perfbench/smoke.py

Checks that
  * every end-to-end metric is printed by name with its unit for every
    workload, with no failed operation, by one `--workload all` command;
  * the traced run reports every per-layer metric;
  * one flipped verdict in verdicts.csv is counted as a failed operation;
  * a directory holding only BENCHMARK.json and the benchmark exits non-zero
    without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

TINY = {
    "train-t10": {"benign": 400, "attack": 60, "window": 10, "epochs": 1, "shift": 4.0},
    "score-t100": {"benign": 400, "attack": 100, "window": 100, "epochs": 1, "shift": 4.0},
    "corpus-t10": {"benign": 300, "attack": 400, "window": 10, "epochs": 1, "shift": 4.0},
}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def call(argv: list[str]) -> tuple[list[str], dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv)
    lines = buf.getvalue().splitlines()
    expect(code == 0, f"{argv}: exit code {code}")
    return lines, json.loads(lines[-1])


def metric_names(kind: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def printed(lines: list[str], workload: str, name: str, unit: str) -> bool:
    """A line `<workload> <name> <number> <unit>`."""
    for line in lines:
        parts = line.split(" ")
        if len(parts) == 4 and parts[:2] == [workload, name] and parts[3] == unit:
            with contextlib.suppress(ValueError):
                float(parts[2])
                return True
    return False


def smoke_end_to_end() -> None:
    lines, result = call(["--workload", "all", "--seed", "3", "--seconds", "0", "--trace", "0"])
    expect(result["correct"] and result["failed"] == 0, f"all: {result}")
    for workload in TINY:
        for name, unit in metric_names("end_to_end").items():
            expect(printed(lines, workload, name, unit), f"{workload} {name} [{unit}] not printed")
            expect(result["metrics"][f"{workload}.{name}"]["value"] is not None, f"{workload} {name} missing")


def smoke_traced() -> None:
    lines, result = call(["--workload", "score-t100", "--seed", "3", "--seconds", "0", "--trace", "1"])
    expect(result["correct"] and result["failed"] == 0, f"trace: {result}")
    layers = metric_names("per_layer")
    expect(set(result["metrics"]) == set(layers), "per-layer metric names differ from BENCHMARK.json")
    for name, unit in layers.items():
        expect(printed(lines, "score-t100", name, unit), f"per-layer {name} [{unit}] not reported")


def smoke_flipped_verdict() -> None:
    original = run.run_stage
    flipped = 0

    def flip_one(cli, argv):
        nonlocal flipped
        code, seconds = original(cli, argv)
        if argv[0] == "detect" and code == 0:
            flipped += 1
            path = Path(argv[argv.index("--out") + 1])
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            row, score, verdict, label = lines[1].rstrip("\n").split(",")
            lines[1] = f"{row},{score},{1 - int(verdict)},{label}\n"
            path.write_text("".join(lines), encoding="utf-8")
        return code, seconds

    run.run_stage = flip_one
    try:
        _, result = call(["--workload", "train-t10", "--seed", "3", "--seconds", "0", "--trace", "0"])
    finally:
        run.run_stage = original
    expect(not result["correct"], "a flipped verdict passed the checks")
    # every detect run is one failed operation: the peak-memory pass's and each timed one
    expect(flipped >= 1 + run.MIN_PASSES, f"detect ran {flipped} times")
    expect(result["failed"] == flipped, f"{flipped} flipped verdicts counted as {result['failed']} failures")


def smoke_bare_directory() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train-t10", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    expect(proc.returncode != 0, "a directory without the program exited 0")
    expect('"correct"' not in proc.stdout, "a directory without the program printed a result")


def main() -> int:
    run.WORKLOADS = TINY
    run.MIN_STAGE_S = 0.05  # short stages still repeat, at tiny sizes
    for test in (smoke_end_to_end, smoke_traced, smoke_flipped_verdict, smoke_bare_directory):
        test()
        print(f"smoke: {test.__name__} ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
