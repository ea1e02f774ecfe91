#!/usr/bin/env python3
"""End-to-end benchmark of the flowsentry CLI pipeline.

    python3 perfbench/run.py --workload train-t10 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Set-up runs `flowsentry synth` in a fresh interpreter (imports plus input
generation) several times and keeps the median. Then, for --seconds, one
pass runs every stage with tracemalloc on around train, calibrate and
detect, for the peak-memory metrics (it also warms the caches), and timed
passes follow, each running preprocess -> train -> calibrate -> detect ->
evaluate in this process through `flowsentry.cli.main` with the README's
flags; a short stage runs again until it has run MIN_STAGE_S in the pass.
A stage's time is the trimmed mean of its runs (see stage_seconds). Every
time is scaled by the host's speed in the run, measured by a reference task
timed before each synth and stage run (see HostProbe).
Every pass is checked against the oracles in checks.py; a stage that exits
non-zero or whose output fails a check is one failed operation.

--trace 0 prints the end-to-end metrics, from untraced passes only.
--trace 1 alternates untraced and traced passes (see tracer.py) and prints
the per-layer metrics, including the tracing overhead.

Metric names and units come from BENCHMARK.json. The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = 1  # the GEMMs are at most (b*t, 21) x (21, 64); threads only add noise
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Every workload runs the same stage chain; the sizes move the weight
# between layers (shares from a 2-core host, numpy with OpenBLAS):
#   train-t10:  train is ~70% of the pipeline (lstm forward/backward, adam);
#               a recurrent-kernel change must show here, a scoring change not.
#   score-t100: calibrate + detect outweigh train; one large forward-only batch
#               of long windows, every sample in 100 windows (t-fold memory).
#   corpus-t10: a large test CSV, so CSV parse/write, the per-row verdict
#               glue and roc_points dominate; the forward pass is minor.
# `shift` is the attack offset in noise sigmas. The max-of-benign threshold
# makes recall jump between seeds when it sits on the steep part of its
# curve: at 2 sigma its quartile spread over seeds is a third of the median
# on train-t10. train-t10 keeps an unsaturated AUC at 3 sigma; the two
# one-epoch workloads need 4 sigma for a recall that is steady across seeds.
WORKLOADS = {
    "train-t10": {"benign": 10000, "attack": 1000, "window": 10, "epochs": 3, "shift": 3.0},
    "score-t100": {"benign": 1500, "attack": 2000, "window": 100, "epochs": 1, "shift": 4.0},
    "corpus-t10": {"benign": 2500, "attack": 10000, "window": 10, "epochs": 1, "shift": 4.0},
}
# The workload seed drives synth only: the program receives the generated
# CSVs and runs with the README's own --seed for the split and the model.
PROGRAM_SEED = 7
SETUP_REPEATS = 5
MIN_PASSES = 3
# In a timed pass a stage runs again until it has run this long, so that the
# short stages are sampled as often across a run as the long ones.
MIN_STAGE_S = 0.5
STAGES = ("preprocess", "train", "calibrate", "detect", "evaluate")
PEAK_STAGES = ("train", "calibrate", "detect")


def trimmed_mean(values) -> float:
    """The mean less the lowest and the highest tenth."""
    values = sorted(values)
    cut = len(values) // 10
    return statistics.fmean(values[cut:len(values) - cut])


class HostProbe:
    """A fixed reference task, timed before each synth and stage run.

    The host shares its cores with other tenants. While they are busy, all
    code here runs 1.2-1.8x slower, with CPU time rising as much as wall time
    and no steal time, in stretches from tens of milliseconds to minutes; the
    slow share of a 40-second run moves between about a fifth and all of it.
    The probe does the kinds of work the pipeline does (small-array numpy,
    Python float parsing) and runs no flowsentry code, so its mean time over
    a run measures the host's speed in that run and not the program's. The
    times are scaled by NOMINAL_S over that mean: seconds on a host where the
    probe takes NOMINAL_S. Set-up and the timed passes have a probe each.
    """

    NOMINAL_S = 0.0025  # a little above the probe's time with the host's cores uncontended
    REPEATS = 4

    def __init__(self) -> None:
        import numpy as np  # imported once main() has set the BLAS thread count

        self.np = np
        rng = np.random.default_rng(0)
        self.x, self.w = rng.random((64, 37)), rng.random((37, 64))
        self.text = [repr(float(v)) for v in rng.random(2000)]
        self.samples: list[float] = []

    def task(self) -> float:
        np, total = self.np, 0.0
        for _ in range(60):
            gates = 1.0 / (1.0 + np.exp(-(self.x @ self.w)))
            total += float((np.tanh(gates[:, :16]) * gates[:, 16:32]).sum())
        return total + sum(float(v) for v in self.text)

    def sample(self) -> None:
        for _ in range(self.REPEATS):
            start = time.perf_counter()
            self.task()
            self.samples.append(time.perf_counter() - start)

    def scale(self) -> float:
        return self.NOMINAL_S / trimmed_mean(self.samples)


class Operations:
    """Counts stage runs and the ones that exited non-zero or failed a check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            for message in errors[:5]:
                print(f"perfbench: {what}: {message}", file=sys.stderr)


def stage_argv(cfg: dict, data: Path, out: Path) -> dict[str, list[str]]:
    prep, s = out / "prep", str(PROGRAM_SEED)
    argv = {
        "preprocess": ["preprocess", "--benign", data / "benign.csv", "--attacks", data / "attack.csv",
                       "--attack-frac", "1.0", "--seed", s, "--out", prep],
        "train": ["train", "--input", prep / "train.csv", "--scaler", prep / "scaler.json",
                  "--window", cfg["window"], "--units", 16, "--epochs", cfg["epochs"], "--batch", 64,
                  "--lr", 0.001, "--seed", s, "--out", out / "model.json", "--history", out / "history.json"],
        "calibrate": ["calibrate", "--model", out / "model.json", "--scaler", prep / "scaler.json",
                      "--input", prep / "train.csv", "--out", out / "th.json"],
        "detect": ["detect", "--model", out / "model.json", "--thresholds", out / "th.json",
                   "--input", prep / "test.csv", "--out", out / "verdicts.csv"],
        "evaluate": ["evaluate", "--verdicts", out / "verdicts.csv", "--out", out / "report.json",
                     "--roc-points", out / "roc.csv", "--history", out / "history.json"],
    }
    return {stage: [str(a) for a in args] for stage, args in argv.items()}


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), **dict.fromkeys(BLAS_VARS, str(BLAS_THREADS)))


def synth_once(cfg: dict, seed: int, data: Path, ops: Operations, probe: HostProbe) -> float:
    """`flowsentry synth` in a fresh interpreter; returns its wall time."""
    probe.sample()
    argv = [sys.executable, "-m", "flowsentry.cli", "synth", "--benign", str(cfg["benign"]),
            "--attack", str(cfg["attack"]), "--shift", str(cfg["shift"]), "--sigma", "0.5", "--amplitude", "0.5",
            "--period", "300", "--seed", str(seed), "--out", str(data)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120)
    seconds = time.perf_counter() - start
    errors = [] if proc.returncode == 0 else [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    ops.record("synth", errors)
    return seconds


def run_stage(cli, argv: list[str]) -> tuple[int, float]:
    """One CLI stage in this process; returns (exit code, wall seconds)."""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except Exception:  # a crash is a failed operation, not the end of the run
        traceback.print_exc(file=sys.stderr)
        code = -1
    return code, time.perf_counter() - start


def run_pass(cli, checks, cfg: dict, data: Path, out: Path, ops: Operations,
             peaks: dict | None = None, min_stage_s: float = 0.0,
             probe: HostProbe | None = None) -> dict[str, list[float]] | None:
    """Every stage into out/, in order, each run again until it has run for
    `min_stage_s` in this pass. Returns the wall times of each stage's runs, or
    None when a stage exited non-zero. Fills `peaks[stage]` with the
    tracemalloc peak (MB) of each stage named in it; those stages run once,
    slower, and are not timed. `probe` is sampled before each stage run."""
    argv = stage_argv(cfg, data, out)
    times: dict[str, list[float]] = {}
    for stage in STAGES:
        measure = peaks is not None and stage in peaks
        runs = times[stage] = []
        while not runs or (not measure and sum(runs) < min_stage_s):
            if probe is not None:
                probe.sample()
            gc.collect()
            if measure:
                tracemalloc.start()
            code, seconds = run_stage(cli, argv[stage])
            if measure:
                peaks[stage] = tracemalloc.get_traced_memory()[1] / 1e6
                tracemalloc.stop()
            errors = [] if code == 0 else [f"exit code {code}"]
            if not errors:
                try:
                    if stage == "detect":
                        errors = checks.check_detect(out, out / "prep" / "test.csv")
                    elif stage == "evaluate":
                        errors = checks.check_evaluate(out)
                except Exception as exc:  # unreadable output is a failed check
                    errors = [f"output check crashed: {exc!r}"]
            ops.record(stage, errors)
            if code != 0:
                return None
            runs.append(seconds)
    return times


def timed_loop(seconds: float, min_rounds: int, one_round) -> None:
    """Run rounds until the next one would end past `seconds` (at least min_rounds)."""
    start = time.perf_counter()
    rounds = 0
    while True:
        one_round()
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            return


def stage_seconds(passes: list[dict], stage: str) -> float:
    """A stage's time in a run: the mean of its timed runs, less the fastest
    and the slowest tenth.

    The host shares its cores: the code runs 1.2-1.8x slower while another
    tenant is busy, in stretches of tens of milliseconds to minutes. A long
    stage averages over them; a short one lands in either state, so the
    median or minimum of a run flips with the share of slow time. The mean
    moves with that share only in proportion, and HostProbe measures it.
    """
    return trimmed_mean(t for p in passes for t in p[stage])


def pipeline_seconds(passes: list[dict]) -> float:
    return sum(stage_seconds(passes, stage) for stage in STAGES)


def end_to_end(cfg: dict, out: Path, checks, setup_s: float, passes: list[dict], peaks: dict,
               scale: float) -> dict:
    """The end-to-end metrics; the stage times are multiplied by `scale` (HostProbe.scale)."""
    prep = out / "prep"
    train_windows = checks.data_rows(prep / "train.csv") - cfg["window"] + 1
    test_rows = checks.data_rows(prep / "test.csv")
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    history = json.loads((out / "history.json").read_text(encoding="utf-8"))

    return {
        "setup_s": setup_s,
        "pipeline_s": pipeline_seconds(passes) * scale,
        "preprocess_s": stage_seconds(passes, "preprocess") * scale,
        "train_windows_per_s": train_windows * cfg["epochs"] / (stage_seconds(passes, "train") * scale),
        "calibrate_s": stage_seconds(passes, "calibrate") * scale,
        "detect_rows_per_s": test_rows / (stage_seconds(passes, "detect") * scale),
        "evaluate_s": stage_seconds(passes, "evaluate") * scale,
        "train_peak_mb": peaks["train"],
        "calibrate_peak_mb": peaks["calibrate"],
        "detect_peak_mb": peaks["detect"],
        "auc": report["auc"],
        "recall": report["recall"],
        "train_mae_final": history["train_loss"][-1],
    }


def blas_record() -> dict:
    """OpenBLAS build version and the thread count it runs with."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    record = {"blas": blas.get("name"), "blas_version": blas.get("version"), "blas_threads": None}
    with contextlib.suppress(OSError, StopIteration):
        with open("/proc/self/maps", encoding="utf-8") as fh:
            path = next(line.split()[-1] for line in fh if "openblas" in line.lower())
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                record["blas_threads"] = int(getattr(lib, sym)())
                break
    return record


def run_record(name: str, cfg: dict, seed: int, out: Path, checks, passes: list[dict]) -> dict:
    import numpy as np

    train_csv, test_csv = out / "prep" / "train.csv", out / "prep" / "test.csv"
    train_rows = checks.data_rows(train_csv) if train_csv.exists() else None
    test_rows = checks.data_rows(test_csv) if test_csv.exists() else None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "workload": name,
        "seed": seed,
        "sizes": dict(cfg, units=16, batch=64),
        "rows": {"benign": cfg["benign"], "attack": cfg["attack"], "train": train_rows, "test": test_rows},
        "windows": {
            "train": train_rows and train_rows - cfg["window"] + 1,
            "detect": test_rows and test_rows - cfg["window"] + 1,
        },
        "program_seed": PROGRAM_SEED,
        "timed_passes": len(passes),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_record(),
        "peak_method": "tracemalloc peak of the stage, in a separate untimed pass",
        "git_commit": commit,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, units: dict) -> dict:
    """One workload; returns the result object (metrics already carry units)."""
    from flowsentry import cli

    import checks
    import tracer as tracing

    cfg = WORKLOADS[name]
    wdir = WORK / name
    shutil.rmtree(wdir, ignore_errors=True)
    data, out = wdir / "data", wdir / "out"
    out.mkdir(parents=True)
    ops = Operations()
    setup_probe, probe = HostProbe(), HostProbe()

    synth_s = [synth_once(cfg, seed, data, ops, setup_probe) for _ in range(SETUP_REPEATS)]
    setup_s = statistics.median(synth_s) * setup_probe.scale()
    start = time.perf_counter()
    passes: list[dict] = []

    def untraced_round(min_stage_s=0.0, host=None):
        times = run_pass(cli, checks, cfg, data, out, ops, min_stage_s=min_stage_s, probe=host)
        if times is not None:
            passes.append(times)

    if not trace:
        peaks = dict.fromkeys(PEAK_STAGES)
        run_pass(cli, checks, cfg, data, out, ops, peaks)
        timed_loop(seconds - (time.perf_counter() - start), MIN_PASSES, lambda: untraced_round(MIN_STAGE_S, probe))
        complete = passes and None not in peaks.values()
        values = end_to_end(cfg, out, checks, setup_s, passes, peaks, probe.scale()) if complete else {}
    else:
        tracer = tracing.Tracer()
        traced: dict[int, dict] = {}

        def traced_pass(peaks=None):
            tracer.install()
            tracer.begin_pass()
            try:
                return run_pass(cli, checks, cfg, data, out, ops, peaks)
            finally:
                tracer.uninstall()
                tracer.end_pass()

        def traced_round():
            untraced_round()
            times = traced_pass()
            if times is not None:
                traced[len(tracer.counts) - 1] = times

        # only score_matrix's peak is a per-layer metric
        traced_pass(dict.fromkeys(("calibrate", "detect")))
        timed_loop(seconds - (time.perf_counter() - start), 2, traced_round)
        values = {}
        if passes and traced:
            overhead = pipeline_seconds(list(traced.values())) / pipeline_seconds(passes) - 1.0
            values = tracing.summarize(tracer, list(traced), overhead)
        tracer.dump(wdir / "spans.json")

    record = run_record(name, cfg, seed, out, checks, passes)
    raw = dict(record, host_scale={"setup": setup_probe.scale(), "passes": probe.scale() if probe.samples else None},
               synth_seconds=synth_s, pass_seconds=passes, probe_seconds=probe.samples)
    (wdir / "record.json").write_text(json.dumps(raw, indent=2) + "\n", encoding="utf-8")
    return {
        "correct": ops.failed == 0 and bool(values),
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {m: {"value": values.get(m), "unit": unit} for m, unit in units.items()},
        "record": record,
    }


def print_metrics(name: str, result: dict) -> None:
    for metric, entry in result["metrics"].items():
        value = "absent" if entry["value"] is None else repr(entry["value"])
        print(f"{name} {metric} {value} {entry['unit']}")
    share = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(f"{name} failed {result['failed']}/{result['attempted']} ({share:.1%})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "flowsentry" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: {ROOT} holds no src/flowsentry or BENCHMARK.json to benchmark", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    os.environ.update(dict.fromkeys(BLAS_VARS, str(BLAS_THREADS)))
    sys.path.insert(0, str(ROOT / "src"))
    import flowsentry

    if Path(flowsentry.__file__).resolve().parent != ROOT / "src" / "flowsentry":
        print(f"perfbench: imported flowsentry from {flowsentry.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), units)
        print(f"# {name} record {json.dumps(results[name].pop('record'), sort_keys=True)}")
        print_metrics(name, results[name])
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": e for n, r in results.items() for m, e in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
