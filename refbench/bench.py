"""Replay of a generated trace into a fresh Backlog, with calibrated samples.

One *round* builds a new Backlog on the workload's backend, replays the
set-up phase, then the timed phase, then (``ingest`` only) a verification
phase.  Every CP, query and ``maintain()`` is one timed sample preceded by a
calibration slice (:mod:`calibrate`); a group of up to
:data:`QUERIES_PER_SLICE` consecutive queries shares one slice.  Every query
answer is checked against the trace's ground truth outside the timer, and
each round records the exact counts (pages, cache hits and misses, records in
and out of compaction, an answer digest) that must repeat in every round.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import os
import statistics
import time
from dataclasses import dataclass, field

from calibrate import Calibrator
from repro import Backlog, BacklogConfig
from repro.core.masking import VersionAuthority
from repro.fsim.blockdev import DiskBackend, DiskImageBackend, MemoryBackend

#: Consecutive queries timed against one calibration slice.
QUERIES_PER_SLICE = 4
#: Width of the range queries of ``ingest``'s verification scan.
VERIFY_SPAN = 64
#: Every environment-defaulted knob, pinned so no variable changes the program.
PINNED_KNOBS = {"flush_workers": 1, "maintenance_workers": 1,
                "query_workers": 1, "cluster_shards": 1}

#: Which phase's samples each end-to-end metric family is computed from.
SOURCES = {
    "ingest": {"cp": "timed", "query": "verify", "maint": "verify", "space": "timed"},
    "point_lookup": {"cp": "setup", "query": "timed", "maint": "setup", "space": "setup"},
    "mixed_scan": {"cp": "timed", "query": "timed", "maint": "timed", "space": "timed"},
}


class FrozenAuthority(VersionAuthority):
    """The version authority as the trace recorded it at each point."""

    def __init__(self) -> None:
        self.table: dict = {}
        self.zombies: frozenset = frozenset()

    def valid_versions(self, line: int):
        return list(self.table.get(line, ()))


def _covers(ranges, version: int) -> bool:
    for lo, hi in ranges:
        if lo <= version < hi:
            return True
    return False


def check_answer(results, expected, table, zombies) -> list:
    """Mismatches between a query's answer and its ground truth.

    ``verify_backlog`` semantics: every expected ``(owner, version)`` must be
    covered by one of the owner's returned ranges ("missing" otherwise), and
    every valid version a returned range covers must be in the truth, unless
    it is a zombie version kept for inheritance ("spurious" otherwise).
    """
    found = {tuple(ref[:4]): ref[4] for ref in results}
    truth = {}
    mismatches = []
    for block, inode, offset, line, versions in expected:
        key = (block, inode, offset, line)
        truth[key] = versions
        ranges = found.get(key, ())
        for version in versions:
            if not _covers(ranges, version):
                mismatches.append(("missing", key, version))
    for key, ranges in found.items():
        line = key[3]
        valid = table.get(line, ())
        claimed = truth.get(key, ())
        for lo, hi in ranges:
            for index in range(bisect.bisect_left(valid, lo), bisect.bisect_left(valid, hi)):
                version = valid[index]
                if version not in claimed and (line, version) not in zombies:
                    mismatches.append(("spurious", key, version))
    return mismatches


def rss_bytes() -> int:
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def backlog_config(params: dict) -> BacklogConfig:
    return BacklogConfig(cache_bytes=params["cache_bytes"], **PINNED_KNOBS)


@dataclass
class RoundResult:
    """Everything one round measured."""

    # Per phase, lists of samples; ``(raw, slice)`` is a raw time in seconds
    # and the index of the calibration slice taken before it.
    cps: dict = field(default_factory=dict)      # (ops, ((raw, slice), ...), flush_raw, flush_slice, pages)
    queries: dict = field(default_factory=dict)  # (raw, slice, allocated_blocks, pages_read)
    maints: dict = field(default_factory=dict)   # (raw, slice)
    samples: dict = field(default_factory=dict)  # every (raw, slice) of the phase
    space_pct: dict = field(default_factory=dict)
    exact: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    mismatches: list = field(default_factory=list)
    mem_peak_growth: int = 0
    layer_seconds: dict = field(default_factory=dict)
    layer_counts: dict = field(default_factory=dict)


class Replayer:
    """Replays one round of a trace (see the module docstring)."""

    def __init__(self, trace: dict, workdir: str, calibrator: Calibrator,
                 tracer=None) -> None:
        self.trace = trace
        self.params = trace["params"]
        self.workdir = workdir
        self.cal = calibrator
        self.tracer = tracer
        self.result = RoundResult()
        self.authority = FrozenAuthority()
        self.digest = hashlib.blake2b(digest_size=16)
        self.phys_bytes = 0
        self._phase = "setup"
        self._cp_acc = [0, []]
        self._query_slice = None
        self._queries_on_slice = 0
        self._rss_base = 0
        self._rss_peak = 0

    # ----------------------------------------------------------- samples

    def _take_slice(self) -> int:
        self._query_slice = None
        return self.cal.take()

    def _end_sample(self, raw: float, index: int) -> None:
        self.result.samples.setdefault(self._phase, []).append((raw, index))
        if self.tracer is not None:
            self.tracer.end_sample(self.cal.slices[index])

    def _segment(self, events, cp) -> None:
        backlog = self.backlog
        add = backlog.on_reference_added
        remove = backlog.on_reference_removed
        index = self._take_slice()
        start = time.perf_counter()
        for is_add, block, inode, offset, line, event_cp in events:
            if is_add:
                add(block, inode, offset, line, event_cp)
            else:
                remove(block, inode, offset, line, event_cp)
        flush_start = time.perf_counter()
        if cp is not None:
            backlog.on_consistency_point(cp)
        end = time.perf_counter()
        self._end_sample(end - start, index)
        acc = self._cp_acc
        acc[0] += len(events)
        acc[1].append((end - start, index))
        if cp is not None:
            pages = backlog.stats.checkpoints[-1].pages_written
            self.result.cps.setdefault(self._phase, []).append(
                (acc[0], tuple(acc[1]), end - flush_start, index, pages))
            self._cp_acc = [0, []]
            self.result.attempted += 1

    def _maintain(self) -> None:
        backlog = self.backlog
        pages_before = backlog.backend.stats.pages_written
        index = self._take_slice()
        start = time.perf_counter()
        stats = backlog.maintain()
        raw = time.perf_counter() - start
        self._end_sample(raw, index)
        self.result.maints.setdefault(self._phase, []).append((raw, index))
        self.result.attempted += 1
        self._exact_append(f"maintain_{self._phase}", (
            stats.partitions_processed, stats.records_in, stats.records_out,
            stats.records_purged, backlog.backend.stats.pages_written - pages_before))

    def _query(self, first_block: int, num_blocks: int, allocated: int,
               expected, timed: bool = True) -> None:
        backlog = self.backlog
        if self._query_slice is None or self._queries_on_slice >= QUERIES_PER_SLICE:
            self._query_slice = self.cal.take()
            self._queries_on_slice = 0
        index = self._query_slice
        self._queries_on_slice += 1
        pages_before = backlog.backend.stats.pages_read
        start = time.perf_counter()
        if num_blocks == 1:
            results = backlog.query(first_block)
        else:
            results = backlog.query_range(first_block, num_blocks)
        raw = time.perf_counter() - start
        pages = backlog.backend.stats.pages_read - pages_before
        if timed:
            self._end_sample(raw, index)
            self.result.queries.setdefault(self._phase, []).append(
                (raw, index, allocated, pages))
        self.result.attempted += 1
        mismatches = check_answer(results, expected, self.authority.table,
                                  self.authority.zombies)
        if mismatches:
            self.result.failed += 1
            self.result.mismatches.extend(mismatches[:5])
        self.digest.update(hash(tuple(results)).to_bytes(8, "big", signed=True))

    def _exact_append(self, name: str, value) -> None:
        self.result.exact.setdefault(name, []).append(value)

    def _sample_rss(self) -> None:
        rss = rss_bytes()
        if rss > self._rss_peak:
            self._rss_peak = rss

    # ------------------------------------------------------------ replay

    def _replay(self, steps) -> None:
        backlog = self.backlog
        for step in steps:
            kind = step[0]
            if kind == "ops":
                self._segment(step[1], None)
            elif kind == "cp":
                self._segment(step[2], step[1])
                self.phys_bytes = step[3]
            elif kind == "query":
                self._query(*step[1:])
            elif kind == "clone":
                self._query_slice = None
                backlog.on_clone_created(*step[1:])
            elif kind == "snapdel":
                self._query_slice = None
                backlog.on_snapshot_deleted(*step[1:])
            elif kind == "auth":
                self._query_slice = None
                self.authority.table, self.authority.zombies = step[1], step[2]
            elif kind == "maintain":
                self._maintain()
            else:
                raise ValueError(f"unknown trace step {kind!r}")
            self._sample_rss()

    def _make_backend(self):
        kind = self.params["backend"]
        if kind == "memory":
            return MemoryBackend()
        if kind == "disk":
            return DiskBackend(os.path.join(self.workdir, "runs"))
        if kind == "image":
            return DiskImageBackend(os.path.join(self.workdir, "device.img"))
        raise ValueError(f"unknown backend {kind!r}")

    def _space(self) -> None:
        db = self.backlog.database_size_bytes()
        self.result.space_pct[self._phase] = 100.0 * db / self.phys_bytes
        self._exact_append("database_bytes", db)

    def _verify_scan(self, span: int, timed: bool) -> None:
        """Query every block of the device in ``span``-block ranges."""
        rows = self.trace["phases"]["final_truth"]
        blocks = [row[0] for row in rows]
        top = blocks[-1] + 1 if blocks else 1
        for first in range(0, top, span):
            lo = bisect.bisect_left(blocks, first)
            hi = bisect.bisect_left(blocks, first + span)
            expected = rows[lo:hi]
            allocated = len(set(blocks[lo:hi]))
            if not allocated:
                # Nothing may be returned either; checked, never timed.
                self._query(first, span, 0, expected, timed=False)
                continue
            self._query(first, span, allocated, expected, timed=timed)

    def run(self) -> RoundResult:
        """Replay one full round and return its measurements."""
        phases = self.trace["phases"]
        gc.collect()
        self._rss_base = self._rss_peak = rss_bytes()
        index = self._take_slice()
        start = time.perf_counter()
        self.backlog = Backlog(backend=self._make_backend(),
                               config=backlog_config(self.params),
                               version_authority=self.authority)
        created = time.perf_counter() - start
        try:
            self._phase = "setup"
            self._end_sample(created, index)
            self._replay(phases["setup"])
            self._space()

            self._phase = "timed"
            before = self._counters()
            if self.tracer is not None:
                self.tracer.install()
            try:
                self._replay(phases["timed"])
            finally:
                if self.tracer is not None:
                    self.tracer.uninstall()
                    self.tracer.discard_sample()
            after = self._counters()
            self.result.exact["timed_counters"] = {
                name: tuple(a - b for a, b in zip(after[name], before[name]))
                for name in after}
            self._space()

            if "final_truth" in phases:
                self._phase = "verify"
                self._verify_scan(VERIFY_SPAN, timed=True)
                self._maintain()
            self._finish_exact()
        finally:
            self.backlog.close()
            if isinstance(self.backlog.backend, DiskImageBackend):
                self.backlog.backend.close()
        self.result.mem_peak_growth = self._rss_peak - self._rss_base
        if self.tracer is not None:
            self.result.layer_seconds = dict(self.tracer.seconds)
            self.result.layer_counts = dict(self.tracer.counts)
        return self.result

    def _counters(self) -> dict:
        """The program's own cumulative counters, for phase deltas."""
        backlog = self.backlog
        io = backlog.backend.stats
        cache = backlog.cache.stats
        query = backlog.stats.query
        pools = (backlog.stats.flush_pool, backlog.stats.maintenance_pool,
                 backlog.stats.query_pool)
        return {
            "io": (io.pages_written, io.pages_read, io.files_created, io.files_deleted),
            "cache": (cache.hits, cache.misses, cache.evictions),
            "query": (query.queries, query.back_references_returned,
                      query.runs_probed, query.narrow_fast_path_queries),
            "pools": (sum(p.dispatches for p in pools), sum(p.retries for p in pools)),
        }

    def _finish_exact(self) -> None:
        backlog = self.backlog
        io = backlog.backend.stats
        cache = backlog.cache.stats
        exact = self.result.exact
        exact["pages_written"] = io.pages_written
        exact["pages_read"] = io.pages_read
        exact["files_created"] = io.files_created
        exact["files_deleted"] = io.files_deleted
        exact["cache"] = (cache.hits, cache.misses, cache.evictions)
        exact["query_stats"] = backlog.stats.query.snapshot_counters()
        exact["pools"] = tuple(
            (pool.dispatches, pool.jobs, pool.retries)
            for pool in (backlog.stats.flush_pool, backlog.stats.maintenance_pool,
                         backlog.stats.query_pool))
        exact["cp_pages"] = tuple(s[4] for phase in sorted(self.result.cps)
                                  for s in self.result.cps[phase])
        exact["query_pages"] = tuple(q[3] for phase in sorted(self.result.queries)
                                     for q in self.result.queries[phase])
        exact["answers"] = self.digest.hexdigest()
        exact["failed"] = self.result.failed


def run_round(trace: dict, workdir: str, calibrator: Calibrator, tracer=None) -> RoundResult:
    """One round in ``workdir``.  Its files stay until the caller removes the
    directory: deleting them between rounds would put the file system's
    unlink and discard work inside the next round's timed phase."""
    os.makedirs(workdir, exist_ok=True)
    return Replayer(trace, workdir, calibrator, tracer).run()


# ------------------------------------------------------------------ metrics

def _quantile(values, n: int, k: int) -> float:
    """The ``k``-th of ``n``-quantiles (``statistics.quantiles``, exclusive)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=n)[k - 1]


#: Half-width, in slices, of the calibration window a ``maintain()`` sample is
#: normalised with.  A pass lasts hundreds of milliseconds, far longer than
#: one host speed period, so it sees the mix of both speeds while a single
#: slice sees one; every other sample uses the slice taken right before it.
MAINT_HALF_WINDOW = 25


def _families(workload: str, rounds: list) -> tuple:
    source = SOURCES[workload]
    cps = [s for r in rounds for s in r.cps.get(source["cp"], ())]
    queries = [q for r in rounds for q in r.queries.get(source["query"], ())]
    maints = [m for r in rounds for m in r.maints.get(source["maint"], ())]
    return cps, queries, maints


def time_values(workload: str, rounds: list, cal: Calibrator, raw: bool = False) -> dict:
    """The time metrics, calibration-normalised (or ``raw`` wall clock)."""
    cps, queries, maints = _families(workload, rounds)

    def norm(seconds, index, half_window=0):
        return seconds if raw else cal.normalise(seconds, index, half_window)

    per_op = [sum(norm(t, i) for t, i in s[1]) / s[0] * 1e6 for s in cps]
    flush_ms = [norm(s[2], s[3]) * 1e3 for s in cps]
    per_block = [norm(q[0], q[1]) / q[2] * 1e6 for q in queries]
    setups = [sum(norm(t, i) for t, i in r.samples["setup"]) for r in rounds]
    return {
        "setup_s": statistics.median(setups),
        "ingest_us_per_op": statistics.median(per_op),
        "cp_ms_p50": statistics.median(flush_ms),
        "cp_ms_p90": _quantile(flush_ms, 10, 9),
        "query_us_per_block_p50": statistics.median(per_block),
        "query_us_per_block_p90": _quantile(per_block, 10, 9),
        "maint_s": statistics.mean(norm(m[0], m[1], MAINT_HALF_WINDOW) for m in maints),
    }


def end_to_end(workload: str, rounds: list, cal: Calibrator) -> dict:
    """Every end-to-end metric, pooled over ``rounds``."""
    source = SOURCES[workload]
    first = rounds[0]
    round_cps = first.cps.get(source["cp"], ())
    round_queries = first.queries.get(source["query"], ())
    values = time_values(workload, rounds, cal)
    values.update({
        "writes_per_op": sum(s[4] for s in round_cps) / sum(s[0] for s in round_cps),
        "space_pct": first.space_pct[source["space"]],
        "reads_per_block": (sum(q[3] for q in round_queries)
                            / sum(q[2] for q in round_queries)),
        "mem_mb": first.mem_peak_growth / 1e6,
    })
    return values


def timed_phase_seconds(rounds: list, cal: Calibrator) -> float:
    """Median over rounds of the timed phase's normalised sample time."""
    return statistics.median(sum(cal.normalise(t, i) for t, i in r.samples["timed"])
                             for r in rounds)


def sample_counts(workload: str, rounds: list) -> dict:
    source = SOURCES[workload]
    return {
        "rounds": len(rounds),
        "cp_samples": sum(len(r.cps.get(source["cp"], ())) for r in rounds),
        "query_samples": sum(len(r.queries.get(source["query"], ())) for r in rounds),
        "maint_samples": sum(len(r.maints.get(source["maint"], ())) for r in rounds),
    }


def per_layer(traced: list, untraced: list, cal: Calibrator) -> dict:
    """Every per-layer metric, from the traced rounds (times: median round)."""

    def seconds(*layers):
        return statistics.median(sum(r.layer_seconds.get(l, 0.0) for l in layers)
                                 for r in traced)

    counts = traced[0].layer_counts
    exact = traced[0].exact

    def count(name):
        return counts.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    timed = exact["timed_counters"]
    io, cache, pools = timed["io"], timed["cache"], timed["pools"]
    queries, refs_returned, runs_probed, materialized = timed["query"]
    maint = exact.get("maintain_timed", ())
    records_in = sum(m[1] for m in maint)
    records_out = sum(m[2] for m in maint)
    purged = sum(m[3] for m in maint)
    traced_total = timed_phase_seconds(traced, cal)
    plain_total = timed_phase_seconds(untraced, cal)
    return {
        "write_store.self_s": seconds("write_store", "write_store.sort"),
        "write_store.sort_s": seconds("write_store.sort"),
        "write_store.calls": count("write_store.calls"),
        "partitioning.split_s": seconds("partitioning.split"),
        "read_store.pack_s": seconds("read_store.pack"),
        "read_store.pages_packed": count("read_store.pages_packed"),
        "read_store.gather_s": seconds("read_store.gather"),
        "read_store.pages_decoded": count("read_store.pages_decoded"),
        "read_store.crc_checks": count("read_store.crc_checks"),
        "read_store.records_decoded": count("read_store.records_decoded"),
        "read_store.records_per_ref": ratio(count("read_store.records_decoded"),
                                            refs_returned),
        "bloom.build_s": seconds("bloom.build"),
        "bloom.shrink_s": seconds("bloom.shrink"),
        "bloom.shrink_calls": count("bloom.shrink_calls"),
        "bloom.probe_s": seconds("bloom.probe"),
        "bloom.probes": count("bloom.probes"),
        "bloom.skip_frac": ratio(count("bloom.skips"), count("bloom.probes")),
        "bloom.false_pos_frac": ratio(count("bloom.false_positives"), count("bloom.probes")),
        "lsm.build_run_s": seconds("lsm.build_run"),
        "lsm.runs_built": count("lsm.runs_built"),
        "lsm.runs_per_query": ratio(runs_probed, queries),
        "catalogue.select_s": seconds("catalogue.select"),
        "catalogue.publish_s": seconds("catalogue.publish"),
        "query.self_s": seconds("query"),
        "query.calls": count("query.calls"),
        "query.materialized_frac": ratio(materialized, queries),
        "join.self_s": seconds("join"),
        "join.records_in": count("join.records_in"),
        "masking.self_s": seconds("masking"),
        "inheritance.self_s": seconds("inheritance"),
        "inheritance.refs_out": count("inheritance.refs_out"),
        "columnar.self_s": seconds("columnar"),
        "columnar.rows_in": count("columnar.rows_in"),
        "columnar.owners_out": count("columnar.owners_out"),
        "cursor.self_s": seconds("cursor"),
        "compaction.self_s": seconds("compaction"),
        "compaction.records_in": records_in,
        "compaction.records_out": records_out,
        "compaction.purged_frac": ratio(purged, records_in),
        "compaction.pages_written": sum(m[4] for m in maint),
        "executor.dispatches": pools[0],
        "executor.retries": pools[1],
        "cache.read_s": seconds("cache.read"),
        "cache.hits": cache[0],
        "cache.misses": cache[1],
        "cache.evictions": cache[2],
        "cache.hit_ratio": ratio(cache[0], cache[0] + cache[1]),
        "blockdev.pages_written": io[0],
        "blockdev.pages_read": io[1],
        "blockdev.write_s": seconds("blockdev.write"),
        "blockdev.read_s": seconds("blockdev.read"),
        "blockdev.files_created": io[2],
        "blockdev.files_deleted": io[3],
        "trace.overhead_pct": 100.0 * (traced_total / plain_total - 1.0),
    }
