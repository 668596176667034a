"""The layered benchmark's command: run one workload at one seed.

Usage (from the repository root)::

    python3 refbench/run.py --workload {ingest,point_lookup,mixed_scan} \\
        [--seed N] [--seconds S] [--trace 0|1]

The inputs for ``--seed`` are generated once, in a child process
(``generate.py``), and cached under ``refbench/.cache``.  The command then
replays them in rounds -- each a fresh Backlog, set-up phase, timed phase --
until ``--seconds`` have passed (at least :data:`MIN_ROUNDS` rounds), checks
every answer, and prints one JSON object as its last line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the command alternates untraced and
traced rounds and prints the per-layer metrics, including the tracing
overhead.  A fuller record (raw wall-clock medians, the calibration slices'
distribution, the resolved configuration, exact counts) is written to
``refbench/.results/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import pickle
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Rounds of each kind a run makes at least, whatever ``--seconds`` says.
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
#: Upper bound on rounds, so a very fast host still finishes promptly.
MAX_ROUNDS = 12


def _digest(paths) -> str:
    """Content hash of the given files and of every ``.py`` under dirs."""
    digest = hashlib.sha256()
    for path in paths:
        if os.path.isdir(path):
            files = sorted(os.path.join(d, f) for d, _, names in os.walk(path)
                           for f in names if f.endswith(".py"))
        else:
            files = [path]
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def load_inputs(workload: str, seed: int, scale: str) -> dict:
    """The trace for ``(workload, seed, scale)``, generating it if needed."""
    key = _digest([os.path.join(HERE, "generate.py"), os.path.join(HERE, "spec.py"),
                   os.path.join(SRC, "repro")])
    cache_dir = os.path.join(HERE, ".cache")
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, f"{workload}-{scale}-seed{seed}-{key}.pkl")
    if not os.path.exists(path):
        subprocess.run(
            [sys.executable, os.path.join(HERE, "generate.py"), "--workload", workload,
             "--seed", str(seed), "--scale", scale, "--out", path],
            check=True, timeout=600, stdout=subprocess.DEVNULL)
    with open(path, "rb") as handle:
        return pickle.load(handle)


def metric_units() -> tuple:
    """``(end_to_end, per_layer)`` name -> unit maps from ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def measure(workload: str, seed: int, seconds: float, trace_layers: bool,
            scale: str = "full") -> tuple:
    """Run the rounds; return ``(result line, full record)``."""
    from bench import backlog_config, end_to_end, per_layer, run_round, sample_counts, time_values
    from calibrate import REFERENCE_SLICE_S, Calibrator
    from tracer import Tracer

    trace = load_inputs(workload, seed, scale)
    e2e_units, layer_units = metric_units()
    calibrator = Calibrator()
    workdir = os.path.join(HERE, ".work", str(os.getpid()))
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    try:
        while len(untraced) + len(traced) < MAX_ROUNDS:
            enough = (len(traced) >= MIN_TRACED_ROUNDS and len(untraced) >= MIN_TRACED_ROUNDS
                      if trace_layers else len(untraced) >= MIN_ROUNDS)
            if enough and time.perf_counter() >= deadline:
                break
            use_tracer = trace_layers and len(traced) < len(untraced)
            index = len(untraced) + len(traced)
            result = run_round(trace, os.path.join(workdir, str(index)), calibrator,
                               Tracer() if use_tracer else None)
            (traced if use_tracer else untraced).append(result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = untraced + traced
    reference = untraced[0].exact
    repeatable = all(r.exact == reference for r in rounds)
    failed = sum(r.failed for r in rounds)
    attempted = sum(r.attempted for r in rounds)
    if trace_layers:
        values, units = per_layer(traced, untraced, calibrator), layer_units
    else:
        values, units = end_to_end(workload, untraced, calibrator), e2e_units
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    line = {
        "correct": failed == 0 and repeatable,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "trace": int(trace_layers),
        "result": line,
        "exact_counts_repeat": repeatable,
        "mismatches": [m for r in rounds for m in r.mismatches][:20],
        "samples": sample_counts(workload, untraced),
        "raw": time_values(workload, untraced, calibrator, raw=True),
        "normalised": time_values(workload, untraced, calibrator),
        "calibration": {"reference_slice_s": REFERENCE_SLICE_S, **calibrator.summary()},
        "config": dataclasses.asdict(backlog_config(trace["params"])),
        "params": trace["params"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "code_digest": _digest([os.path.join(SRC, "repro")]),
        "exact_counts": {k: v for k, v in reference.items()},
    }
    return line, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one workload of the layered benchmark.")
    parser.add_argument("--workload", required=True,
                        choices=["ingest", "point_lookup", "mixed_scan"])
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", default="full", choices=["full", "tiny"],
                        help="input size; 'tiny' is for the benchmark's own test")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to measure: {os.path.relpath(SRC)}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from spec import DEFAULT_SEED

    seed = DEFAULT_SEED if args.seed is None else args.seed
    line, record = measure(args.workload, seed, args.seconds, bool(args.trace), args.scale)
    results_dir = os.path.join(HERE, ".results")
    os.makedirs(results_dir, exist_ok=True)
    out = os.path.join(results_dir,
                       f"{args.workload}-{args.scale}-seed{seed}-trace{args.trace}.json")
    with open(out, "w") as handle:
        json.dump(record, handle, indent=1, default=str)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
