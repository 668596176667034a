"""Per-layer tracing by wrapping the program's functions from outside.

Nothing in ``src/`` knows about this module.  :meth:`Tracer.install` replaces
the functions and methods listed in :data:`SPANS` with wrappers that keep a
span stack: each call (or, for a generator, each resumption) opens a span of
its layer, and on exit the span's duration minus the time covered by its
child spans is added to the layer's *self* time.  Counters ride on the same
wrappers.  :meth:`Tracer.uninstall` puts every original back, so the
untraced run executes the program exactly as shipped.

Module-level functions are also re-bound wherever another ``repro`` module
imported them by name, so a call through ``from x import f`` is traced too.

Self times are accumulated per timed sample and normalised with that
sample's calibration slice (:meth:`Tracer.end_sample`), so they read in the
same reference seconds as the end-to-end metrics.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict
from collections.abc import Sequence

from calibrate import REFERENCE_SLICE_S

# (module, attribute, layer, call counter, item counter)
#
# The call counter is incremented once per call.  The item counter adds the
# length of a returned sequence, or one per item a generator yields.
SPANS = [
    ("repro.core.write_store", "WriteStore.insert", "write_store", "write_store.calls", None),
    ("repro.core.write_store", "WriteStore.remove_key", "write_store", "write_store.calls", None),
    ("repro.core.write_store", "WriteStore.clear", "write_store", None, None),
    ("repro.core.write_store", "WriteStore.freeze", "write_store", None, None),
    ("repro.core.write_store", "WriteStore.records_for_block_range", "write_store", None, None),
    ("repro.core.write_store", "WriteStore.sorted_records", "write_store.sort", None, None),
    ("repro.core.partitioning", "Partitioner.split_sorted_records", "partitioning.split", None, None),
    ("repro.core.read_store", "ReadStoreWriter.build", "read_store.pack", None, None),
    ("repro.core.read_store", "ReadStoreWriter.add", "read_store.pack", None, None),
    ("repro.core.read_store", "ReadStoreWriter.finish", "read_store.pack", None, None),
    ("repro.core.read_store", "ReadStoreWriter._flush_leaf", "read_store.pack", "read_store.pages_packed", None),
    ("repro.core.read_store", "ReadStoreWriter._flush_index_page", "read_store.pack", "read_store.pages_packed", None),
    ("repro.core.read_store", "ReadStoreReader.records_for_block_range", "read_store.gather", None, "gather.items"),
    ("repro.core.read_store", "ReadStoreReader.rows_for_block_range", "read_store.gather", None, "gather.items"),
    ("repro.core.read_store", "ReadStoreReader.iter_block_range", "read_store.gather", None, "gather.items"),
    ("repro.core.read_store", "ReadStoreReader.iter_rows_block_range", "read_store.gather", None, "gather.items"),
    ("repro.core.read_store", "ReadStoreReader.iter_record_blocks", "read_store.gather", None, "gather.items"),
    ("repro.core.read_store", "ReadStoreReader.iter_from", "read_store.gather", None, "gather.items"),
    ("repro.core.read_store", "ReadStoreReader.iter_all", "read_store.gather", None, None),
    ("repro.core.read_store", "ReadStoreReader._leaf_records", "read_store.gather", "read_store.pages_decoded", "read_store.records_decoded"),
    ("repro.core.read_store", "ReadStoreReader._leaf_rows", "read_store.gather", "read_store.pages_decoded", "read_store.records_decoded"),
    ("repro.core.read_store", "ReadStoreReader._leaf_block", "read_store.gather", "read_store.pages_decoded", "read_store.records_decoded"),
    ("repro.core.read_store", "_page_crc", None, "crc", None),
    ("repro.core.bloom", "BloomFilter.add", "bloom.build", None, None),
    ("repro.core.bloom", "BloomFilter.add_many", "bloom.build", None, None),
    ("repro.core.bloom", "BloomBulkAdder.add_chunk", "bloom.build", None, None),
    ("repro.core.bloom", "BloomFilter.to_bytes", "bloom.build", None, None),
    ("repro.core.bloom", "BloomFilter.shrink_to", "bloom.shrink", "bloom.shrink_calls", None),
    ("repro.core.bloom", "BloomFilter.might_contain", "bloom.probe", None, None),
    ("repro.core.bloom", "BloomFilter.might_contain_range", "bloom.probe", None, None),
    ("repro.core.read_store", "ReadStoreReader.might_contain_block", "bloom.probe", "bloom.probes", None),
    ("repro.core.read_store", "ReadStoreReader.might_contain_range", "bloom.probe", "bloom.probes", None),
    ("repro.core.lsm", "RunManager.build_run", "lsm.build_run", "lsm.runs_built", None),
    ("repro.core.catalogue", "Catalogue.select", "catalogue.select", None, None),
    ("repro.core.catalogue", "Catalogue.publishing", "catalogue.publish", None, None),
    ("repro.core.query", "QueryEngine.query_range", "query", "query.calls", "query.refs_out"),
    ("repro.core.query", "QueryEngine._cursor_iter", "query", "query.calls", "query.refs_out"),
    ("repro.core.join", "merge_join_for_query", "join", None, None),
    ("repro.core.join", "stream_join_tables", "join", None, None),
    ("repro.core.join", "materialized_join", "join", None, None),
    ("repro.core.join", "combine_for_query", "join", None, None),
    ("repro.core.join", "join_tables", "join", None, None),
    ("repro.core.masking", "iter_mask_records", "masking", None, None),
    ("repro.core.masking", "mask_records", "masking", None, None),
    ("repro.core.inheritance", "expand_clones", "inheritance", None, "inheritance.refs_out"),
    ("repro.core.inheritance", "materialized_expand", "inheritance", None, "inheritance.refs_out"),
    ("repro.core.inheritance", "expand_row_group", "inheritance", None, None),
    ("repro.core.columnar", "join_rows_for_query", "columnar", None, None),
    ("repro.core.columnar", "fold_rows_for_query", "columnar", None, "columnar.owners_out"),
    ("repro.core.columnar", "scan_rows_bulk", "columnar", None, "columnar.owners_out"),
    ("repro.core.cursor", "QueryResult.all", "cursor", None, None),
    ("repro.core.cursor", "QueryResult.__next__", "cursor", None, None),
    ("repro.core.compaction", "Compactor.compact_all", "compaction", None, None),
    ("repro.fsim.cache", "PageCache.read_page", "cache.read", None, None),
    ("repro.fsim.blockdev", "PageFile.append_page", "blockdev.write", None, None),
    ("repro.fsim.blockdev", "PageFile.read_page", "blockdev.read", None, None),
]

#: Functions whose first positional arguments are record streams; the sum of
#: their lengths (lists) or of the items pulled from them (iterators) is
#: counted as the layer's input.
INPUT_COUNTERS = {
    "merge_join_for_query": (3, "join.records_in"),
    "stream_join_tables": (3, "join.records_in"),
    "materialized_join": (3, "join.records_in"),
    "combine_for_query": (3, "join.records_in"),
    "join_tables": (3, "join.records_in"),
    "scan_rows_bulk": (3, "columnar.rows_in"),
    "join_rows_for_query": (3, "columnar.rows_in"),
}


class _TimedContext:
    """Times the body of a ``with`` block entered on a wrapped context."""

    def __init__(self, tracer: "Tracer", inner, layer: str) -> None:
        self._tracer, self._inner, self._layer = tracer, inner, layer

    def __enter__(self):
        value = self._inner.__enter__()
        self._tracer.enter(self._layer)
        return value

    def __exit__(self, *exc):
        self._tracer.exit()
        return self._inner.__exit__(*exc)


class Tracer:
    """Span stack, self-time accounting and counters for the wrapped layers."""

    def __init__(self) -> None:
        self.counts = defaultdict(int)
        self.seconds = defaultdict(float)  # reference seconds, per layer
        self._raw = defaultdict(float)     # raw self seconds in the open sample
        self._stack: list = []
        self._patches: list = []
        self._probed: dict = {}            # reader id -> probed positive, not yet gathered

    # ------------------------------------------------------------- spans

    def enter(self, layer: str) -> None:
        self._stack.append([layer, time.perf_counter(), 0.0])

    def exit(self) -> None:
        layer, start, child = self._stack.pop()
        elapsed = time.perf_counter() - start
        self._raw[layer] += elapsed - child
        if self._stack:
            self._stack[-1][2] += elapsed

    def in_layer(self, layer: str) -> bool:
        return any(frame[0] == layer for frame in self._stack)

    def end_sample(self, slice_seconds: float) -> None:
        """Fold the open sample's self times into reference seconds."""
        for layer, raw in self._raw.items():
            self.seconds[layer] += raw / slice_seconds * REFERENCE_SLICE_S
        self._raw.clear()

    def discard_sample(self) -> None:
        self._raw.clear()

    # -------------------------------------------------------- bloom probes

    def _probe_result(self, reader, positive: bool) -> None:
        if positive:
            self._probed[id(reader)] = True
        else:
            self.counts["bloom.skips"] += 1

    def _gathered(self, reader, items: int) -> None:
        if items and id(reader) in self._probed:
            del self._probed[id(reader)]

    def _query_done(self) -> None:
        self.counts["bloom.false_positives"] += len(self._probed)
        self._probed.clear()

    # ------------------------------------------------------------ wrapping

    def _wrap(self, original, name: str, layer, calls, items):
        tracer = self
        counts = self.counts
        inputs = INPUT_COUNTERS.get(name)
        is_probe = name.startswith("might_contain") and calls == "bloom.probes"
        is_gather = items == "gather.items"
        is_query = layer == "query"
        is_crc = calls == "crc"

        def count_inputs(args):
            args = list(args)
            limit = min(inputs[0], len(args))
            for index in range(limit):
                stream = args[index]
                if isinstance(stream, Sequence):
                    counts[inputs[1]] += len(stream)
                else:
                    args[index] = _counting(stream, counts, inputs[1])
            return args

        if is_crc:
            def crc_wrapper(*args, **kwargs):
                if tracer.in_layer("read_store.gather"):
                    counts["read_store.crc_checks"] += 1
                return original(*args, **kwargs)
            return crc_wrapper

        if inspect.isgeneratorfunction(original):
            def gen_wrapper(*args, **kwargs):
                if calls:
                    counts[calls] += 1
                if inputs:
                    args = count_inputs(args)
                return _traced_generator(tracer, original(*args, **kwargs), layer, items,
                                         args[0] if is_gather else None, is_query)
            return gen_wrapper

        if name == "publishing":
            def context_wrapper(*args, **kwargs):
                return _TimedContext(tracer, original(*args, **kwargs), layer)
            return context_wrapper

        def wrapper(*args, **kwargs):
            if calls:
                counts[calls] += 1
            if inputs:
                args = count_inputs(args)
            tracer.enter(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit()
            if items and hasattr(result, "__len__"):
                counts[items] += len(result)
                if is_gather:
                    tracer._gathered(args[0], len(result))
            if is_probe:
                tracer._probe_result(args[0], bool(result))
            if is_query and not tracer.in_layer("query"):
                tracer._query_done()
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every function in :data:`SPANS` (idempotent per instance)."""
        if self._patches:
            return
        for module_name, attribute, layer, calls, items in SPANS:
            module = importlib.import_module(module_name)
            owner_name, _, name = attribute.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[name] if owner_name else getattr(module, name)
            wrapped = self._wrap(original, name, layer, calls, items)
            self._patch(owner, name, original, wrapped)
            if not owner_name:
                # Re-bind names imported with ``from module import name``.
                for other_name, other in list(sys.modules.items()):
                    if (other is not module and other_name.startswith("repro.")
                            and other.__dict__.get(name) is original):
                        self._patch(other, name, original, wrapped)

    def _patch(self, owner, name, original, wrapped) -> None:
        setattr(owner, name, wrapped)
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        """Restore every original function."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        self._stack.clear()


def _counting(stream, counts, key):
    for item in stream:
        counts[key] += 1
        yield item


def _traced_generator(tracer, generator, layer, items, reader, is_query):
    produced = 0
    try:
        while True:
            tracer.enter(layer)
            try:
                item = next(generator)
            except StopIteration:
                return
            finally:
                tracer.exit()
            produced += 1
            if items:
                tracer.counts[items] += 1
            yield item
    finally:
        generator.close()
        if reader is not None:
            tracer._gathered(reader, produced)
        if is_query and not tracer.in_layer("query"):
            tracer._query_done()
