"""The layered benchmark's own test, at tiny scale.

Run from the repository root with ``python3 -m pytest refbench -q``.  It is
kept out of ``tests/`` and ``benchmarks/`` so the tier-1 suite does not
collect it.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import bench  # noqa: E402
import calibrate  # noqa: E402
import run  # noqa: E402
import tracer as tracer_module  # noqa: E402

WORKLOADS = ["ingest", "point_lookup", "mixed_scan"]
TIME_UNITS = {"s", "ms", "us/op", "us/block"}


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_command(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "refbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def report_digests():
    digests = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "benchmarks", "reports", "*.txt"))):
        with open(path, "rb") as handle:
            digests[path] = hashlib.sha256(handle.read()).hexdigest()
    return digests


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    reports = report_digests()
    done = run_command("--workload", workload, "--seed", "3", "--seconds", "0",
                       "--trace", trace, "--scale", "tiny")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    listed = spec()["end_to_end" if trace == "0" else "per_layer"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: metric["unit"] for name, metric in line["metrics"].items()}
    for name, metric in line["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if trace == "0":
            assert metric["value"] > 0, name
    # Nothing the benchmark runs rewrites the committed figure reports.
    assert report_digests() == reports


def tiny_trace(workload, seed=5):
    return run.load_inputs(workload, seed, "tiny")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_across_rounds(workload, tmp_path):
    trace = tiny_trace(workload)
    cal = calibrate.Calibrator()
    first = bench.run_round(trace, str(tmp_path / "a"), cal)
    second = bench.run_round(trace, str(tmp_path / "b"), cal, tracer_module.Tracer())
    assert first.failed == 0
    assert first.exact == second.exact
    assert first.exact["pages_written"] > 0


def test_gate_flags_dropped_owner_and_spurious_version():
    table = {0: (3, 5, 9), 1: (4, 9)}
    expected = ((10, 2, 0, 0, (3, 5)), (10, 2, 0, 1, (4,)))
    good = [(10, 2, 0, 0, ((3, 6),)), (10, 2, 0, 1, ((4, 5),))]
    assert bench.check_answer(good, expected, table, frozenset()) == []

    dropped = good[:1]
    assert bench.check_answer(dropped, expected, table, frozenset()) == [
        ("missing", (10, 2, 0, 1), 4)]

    spurious = [(10, 2, 0, 0, ((3, 10),)), good[1]]
    assert bench.check_answer(spurious, expected, table, frozenset()) == [
        ("spurious", (10, 2, 0, 0), 9)]
    # A zombie version kept for inheritance is not spurious.
    assert bench.check_answer(spurious, expected, table, frozenset({(0, 9)})) == []


@pytest.mark.parametrize("workload", ["point_lookup", "mixed_scan"])
def test_gate_counts_wrong_answers_as_failed(workload, tmp_path, monkeypatch):
    from repro.core.backlog import Backlog

    original = Backlog.query_range

    def drop_last_owner(self, first_block, num_blocks):
        return original(self, first_block, num_blocks)[:-1]

    monkeypatch.setattr(Backlog, "query_range", drop_last_owner)
    monkeypatch.setattr(Backlog, "query", lambda self, block: drop_last_owner(self, block, 1))
    result = bench.run_round(tiny_trace(workload), str(tmp_path), calibrate.Calibrator())
    assert result.failed > 0
    assert any(kind == "missing" for kind, _, _ in result.mismatches)


def test_calibration_normalises_every_time_metric(monkeypatch):
    # Pretend every slice took a very long time: normalised times collapse
    # by that factor while the raw wall-clock times do not.
    monkeypatch.setattr(calibrate, "calibration_slice", lambda: 1000.0)
    line, record = run.measure("mixed_scan", 5, 0, False, "tiny")
    units = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    time_metrics = [name for name, unit in units.items() if unit in TIME_UNITS]
    assert set(time_metrics) == set(record["raw"])
    for name in time_metrics:
        value = line["metrics"][name]["value"]
        assert 0 < value < record["raw"][name] * 1e-4, name

    traced, _ = run.measure("mixed_scan", 5, 0, True, "tiny")
    for name, metric in traced["metrics"].items():
        if metric["unit"] == "s":
            assert metric["value"] < 1e-5, name


def test_untraced_run_installs_no_wrapper(monkeypatch):
    def refuse(self):
        raise AssertionError("the untraced run must not install the tracer")

    monkeypatch.setattr(tracer_module.Tracer, "install", refuse)
    line, _ = run.measure("ingest", 5, 0, False, "tiny")
    assert line["correct"]


def test_tracer_restores_every_original():
    import importlib

    def current():
        found = []
        for module_name, attribute, *_ in tracer_module.SPANS:
            module = importlib.import_module(module_name)
            owner_name, _, name = attribute.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            found.append(owner.__dict__[name])
        return found

    before = current()
    tracer = tracer_module.Tracer()
    tracer.install()
    assert all(a is not b for a, b in zip(before, current()))
    tracer.uninstall()
    assert all(a is b for a, b in zip(before, current()))


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "refbench",
                    ignore=shutil.ignore_patterns(".cache", ".results", ".work", "__pycache__"))
    done = run_command("--workload", "ingest", "--seed", "1", "--seconds", "1",
                       cwd=str(tmp_path))
    assert done.returncode != 0
    assert "correct" not in done.stdout
