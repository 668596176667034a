"""Generate one workload's input trace from a seed.

Runs the file-system simulator and the paper's ``SyntheticWorkload`` with a
recording listener attached, and writes what a Backlog attached to that file
system would have received -- every listener call, in order -- together
with what the measuring process needs to replay and check it without the
simulator:

* the frozen version-authority table (valid versions per line, and the
  zombie set) at every point where the database consults it -- before each
  query group and each ``maintain()``;
* the ground truth of every query: each ``(block, inode, offset, line)``
  owner in the range and the versions it must cover, walked from the live
  volumes and the retained snapshots exactly as ``verify_backlog`` does;
* the simulator's physical data bytes after every consistency point.

The trace is a pickled dict of phases, each a list of steps:

``("ops", events)``
    reference events ``(is_add, block, inode, offset, line, cp)``;
``("cp", cp, events, physical_bytes)``
    the events since the previous step, then ``on_consistency_point(cp)``;
``("clone", new_line, parent_line, parent_version, cp)`` and
``("snapdel", line, version, is_zombie, cp)``
    the clone and snapshot-deletion callbacks;
``("auth", table, zombies)``
    the version-authority state from here on;
``("maintain",)``
    one ``Backlog.maintain()`` call;
``("query", first_block, num_blocks, allocated_blocks, expected)``
    one range query and its ground truth.

Usage: ``python3 refbench/generate.py --workload NAME --seed N --out PATH
[--scale full|tiny]``.  ``run.py`` calls it in a child process, once per
seed, so the simulator never runs inside a measuring process.
"""

from __future__ import annotations

import argparse
import bisect
import os
import pickle
import random
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.fsim.dedup import DedupConfig  # noqa: E402
from repro.fsim.filesystem import (  # noqa: E402
    FileSystem,
    FileSystemConfig,
    ReferenceListener,
)
from repro.workloads.synthetic import (  # noqa: E402
    SyntheticWorkload,
    SyntheticWorkloadConfig,
    SyntheticWorkloadResult,
)

from spec import workload_params  # noqa: E402

class Recorder(ReferenceListener):
    """Appends every listener callback to the current phase's step list."""

    def __init__(self) -> None:
        self.steps: list = []
        self._events: list = []

    def flush(self) -> None:
        if self._events:
            self.steps.append(("ops", tuple(self._events)))
            self._events = []

    def on_reference_added(self, block, inode, offset, line, cp):
        self._events.append((1, block, inode, offset, line, cp))

    def on_reference_removed(self, block, inode, offset, line, cp):
        self._events.append((0, block, inode, offset, line, cp))

    def on_consistency_point(self, cp):
        # The physical byte count is known only once the file system has
        # finished the CP; the driver fills it in (see ``Driver.take_cp``).
        self.steps.append(["cp", cp, tuple(self._events), None])
        self._events = []

    def on_clone_created(self, new_line, parent_line, parent_version, cp):
        self.flush()
        self.steps.append(("clone", new_line, parent_line, parent_version, cp))

    def on_snapshot_deleted(self, line, version, is_zombie, cp):
        self.flush()
        self.steps.append(("snapdel", line, version, is_zombie, cp))


class Truth:
    """Ground-truth owners of block ranges, walked from every image.

    A retained snapshot never changes, so its owners are sorted by block once
    and kept until the snapshot is deleted.  Inode objects a live volume
    shares with a snapshot are immutable too (the file system copies them
    before a write), so their block lists are sorted once and memoised by
    identity; the memo holds the object so an identity is never reused.
    """

    def __init__(self, fs: FileSystem) -> None:
        self.fs = fs
        self._inodes: dict = {}
        self._snapshots: dict = {}

    def _inode_blocks(self, inode, immutable: bool):
        if immutable:
            entry = self._inodes.get(id(inode))
            if entry is not None:
                return entry[1], entry[2]
        pairs = sorted((block, offset) for offset, block in inode.blocks.items())
        blocks = [block for block, _ in pairs]
        offsets = [offset for _, offset in pairs]
        if immutable:
            self._inodes[id(inode)] = (inode, blocks, offsets)
        return blocks, offsets

    def _snapshot_rows(self, snap):
        key = (snap.line, snap.version)
        entry = self._snapshots.get(key)
        if entry is None:
            rows = sorted((block, number, offset)
                          for number, inode in snap.inodes.items()
                          for offset, block in inode.blocks.items())
            entry = self._snapshots[key] = ([row[0] for row in rows], rows)
        return entry

    def ranges(self, ranges):
        """``{(first, n): {(block, inode, offset, line): {versions}}}``."""
        fs = self.fs
        found = {r: defaultdict(set) for r in ranges}
        for line, volume in fs.volumes.items():
            version, frozen = fs.global_cp, volume.frozen
            for number, inode in volume.inodes.items():
                blocks, offsets = self._inode_blocks(inode, number in frozen)
                for first, n in ranges:
                    owners = found[(first, n)]
                    i = bisect.bisect_left(blocks, first)
                    stop = first + n
                    while i < len(blocks) and blocks[i] < stop:
                        owners[(blocks[i], number, offsets[i], line)].add(version)
                        i += 1
        live = set()
        for snap in fs.snapshots.all_snapshots():
            live.add((snap.line, snap.version))
            blocks, rows = self._snapshot_rows(snap)
            for first, n in ranges:
                owners = found[(first, n)]
                for block, number, offset in rows[bisect.bisect_left(blocks, first):
                                                  bisect.bisect_left(blocks, first + n)]:
                    owners[(block, number, offset, snap.line)].add(snap.version)
        for key in set(self._snapshots) - live:
            del self._snapshots[key]
        return found

    def everything(self):
        """``{(block, inode, offset, line): {versions}}`` over all blocks."""
        fs = self.fs
        found = defaultdict(set)
        images = [(line, fs.global_cp, volume.inodes) for line, volume in fs.volumes.items()]
        images += [(s.line, s.version, s.inodes) for s in fs.snapshots.all_snapshots()]
        for line, version, inodes in images:
            for number, inode in inodes.items():
                for offset, block in inode.blocks.items():
                    found[(block, number, offset, line)].add(version)
        return found

    def authority(self):
        """The valid versions of every line, and the zombie set."""
        fs = self.fs
        snapshots = fs.snapshots
        lines = set(fs.volumes) | set(snapshots.lines())
        table = {}
        for line in sorted(lines):
            current = fs.global_cp if line in fs.volumes else None
            table[line] = tuple(snapshots.retained_versions(line, current))
        zombies = frozenset(tuple(z) for z in snapshots.zombies())
        return table, zombies


def expected_tuple(owners) -> tuple:
    """Ground truth of one query as a sorted tuple of owner rows."""
    return tuple(sorted((*key, tuple(sorted(versions)))
                        for key, versions in owners.items()))


class Driver:
    """Runs the synthetic workload CP by CP, cutting the trace into phases.

    It repeats the loop of ``SyntheticWorkload.run`` with the workload's own
    per-operation and clone-churn steps, because ``run`` offers no hook
    between operations, where ``mixed_scan`` places its queries.
    """

    def __init__(self, params: dict, seed: int) -> None:
        self.params = params
        self.recorder = Recorder()
        self.fs = FileSystem(
            FileSystemConfig(ops_per_cp=10**9, auto_cp=False, dedup=DedupConfig(),
                             journal_enabled=False, dedup_seed=seed),
            listeners=[self.recorder],
        )
        self.workload = SyntheticWorkload(SyntheticWorkloadConfig(
            seed=seed, ops_per_cp=params["ops_per_cp"], **params["trace"]))
        self.result = SyntheticWorkloadResult()
        self.files = self.workload._ensure_initial_files(self.fs, self.result)
        self.clones: list = []
        self.truth = Truth(self.fs)
        self.rng = random.Random(seed * 7919 + 1)
        self._last_auth = None

    def take_cp(self, query_points=(), on_query_point=None) -> None:
        """One CP of the synthetic workload, as ``SyntheticWorkload.run`` does.

        ``on_query_point`` is called after the first operation that reaches
        each block-op count in ``query_points``.
        """
        fs, workload = self.fs, self.workload
        start = fs.counters.block_ops
        pending = sorted(query_points)
        while fs.counters.block_ops - start < self.params["ops_per_cp"]:
            workload._one_operation(fs, self.files, self.result)
            while pending and fs.counters.block_ops - start >= pending[0]:
                pending.pop(0)
                on_query_point()
        fs.take_consistency_point()
        for index in range(len(self.recorder.steps) - 1, -1, -1):
            step = self.recorder.steps[index]
            if step[0] == "cp":
                self.recorder.steps[index] = ("cp", step[1], step[2],
                                              fs.physical_data_bytes)
                break
        workload._clone_churn(fs, self.clones, self.result)

    def run_ops(self, target: int, query_points=(), on_query_point=None,
                after_cp=None) -> None:
        """Take CPs until at least ``target`` block ops have been made."""
        start = self.fs.counters.block_ops
        index = 0
        while self.fs.counters.block_ops - start < target:
            self.take_cp(query_points, on_query_point)
            index += 1
            if after_cp is not None:
                after_cp(index)

    def emit_auth(self) -> None:
        self.recorder.flush()
        auth = self.truth.authority()
        if auth != self._last_auth:
            self.recorder.steps.append(("auth",) + auth)
            self._last_auth = auth

    def maintain(self) -> None:
        self.emit_auth()
        self.recorder.steps.append(("maintain",))

    def queries(self, ranges) -> None:
        """Record queries over ``ranges`` at the current state, with truth."""
        self.emit_auth()
        found = self.truth.ranges(ranges)
        for first, n in ranges:
            owners = found[(first, n)]
            allocated = len({key[0] for key in owners})
            self.recorder.steps.append(
                ("query", first, n, allocated, expected_tuple(owners)))

    def random_live_block(self) -> int:
        """A block of a random file of the root volume (never a hole)."""
        volume = self.fs.volumes[0]
        while True:
            inode = volume.inodes[self.rng.choice(self.files)]
            if inode.blocks:
                return self.rng.choice(list(inode.blocks.values()))

    def phase(self) -> list:
        """Close the current phase and return its steps."""
        self.recorder.flush()
        steps, self.recorder.steps = self.recorder.steps, []
        return steps


def generate(workload: str, seed: int, scale: str = "full") -> dict:
    params = workload_params(workload, scale)
    driver = Driver(params, seed)
    phases = {}
    driver.run_ops(params["setup_ops"])

    if workload == "ingest":
        phases["setup"] = driver.phase()
        driver.run_ops(params["timed_ops"])
        driver.emit_auth()
        phases["timed"] = driver.phase()
        phases["final_truth"] = expected_tuple(driver.truth.everything())

    elif workload == "point_lookup":
        driver.maintain()
        driver.run_ops(params["setup_ops_after_maintain"])
        phases["setup"] = driver.phase()
        by_block = defaultdict(dict)
        for key, versions in driver.truth.everything().items():
            by_block[key[0]][key] = versions
        blocks = sorted(by_block)
        driver.emit_auth()
        for _ in range(params["point_queries"]):
            block = driver.rng.choice(blocks)
            driver.recorder.steps.append(
                ("query", block, 1, 1, expected_tuple(by_block[block])))
        phases["timed"] = driver.phase()

    elif workload == "mixed_scan":
        driver.maintain()
        phases["setup"] = driver.phase()
        points = params["query_points_per_cp"]
        ops = params["ops_per_cp"]
        marks = [ops * (k + 1) // (points + 1) for k in range(points)]

        def query_point() -> None:
            driver.queries([(driver.random_live_block(), n) for n in params["run_lengths"]])

        def after_cp(index: int) -> None:
            if index % params["maintain_every"] == 0:
                driver.maintain()

        driver.run_ops(params["timed_ops"], marks, query_point, after_cp)
        phases["timed"] = driver.phase()
    else:
        raise ValueError(f"unknown workload {workload!r}")

    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "params": params,
        "phases": phases,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    trace = generate(args.workload, args.seed, args.scale)
    tmp = f"{args.out}.{os.getpid()}.tmp"
    with open(tmp, "wb") as handle:
        pickle.dump(trace, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
