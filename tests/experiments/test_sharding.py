"""Property tests for the shard partition and dataset merging.

The worker pool's equivalence guarantee rests on two algebraic facts
checked here with hypothesis:

* the interleave partition is a *partition* — every pending index lands
  in exactly one shard, no index is dropped, duplicated, or reordered
  within its shard, and exactly ``workers`` shards come back;
* :meth:`TraceDataset.merge_many` never drops, duplicates, or reorders
  rows, is associative over grouping, and therefore yields a stable
  ``content_sha256`` no matter how a sweep was split across runs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.datasets import TraceDataset, _content_sha256
from repro.experiments.parallel import shard_interleave

indices_strategy = st.lists(
    st.integers(min_value=0, max_value=10_000), max_size=200, unique=True
).map(sorted)
workers_strategy = st.integers(min_value=1, max_value=12)


# The ``interleave`` id keeps these tests' ids stable.
@pytest.mark.parametrize("partition", [shard_interleave], ids=["interleave"])
class TestShardPartition:
    @given(indices=indices_strategy, workers=workers_strategy)
    @settings(max_examples=200, deadline=None)
    def test_is_a_partition(self, partition, indices, workers):
        shards = partition(indices, workers)
        assert len(shards) == workers
        flat = [index for shard in shards for index in shard]
        assert sorted(flat) == indices, "dropped or duplicated indices"

    @given(indices=indices_strategy, workers=workers_strategy)
    @settings(max_examples=200, deadline=None)
    def test_per_shard_order_preserved(self, partition, indices, workers):
        for shard in partition(indices, workers):
            assert shard == sorted(shard)
            positions = [indices.index(i) for i in shard]
            assert positions == sorted(positions)

    @given(indices=indices_strategy, workers=workers_strategy)
    @settings(max_examples=50, deadline=None)
    def test_deterministic(self, partition, indices, workers):
        assert partition(indices, workers) == partition(indices, workers)

    def test_rejects_zero_workers(self, partition):
        with pytest.raises(ValueError):
            partition([0, 1, 2], 0)


class TestShardShapes:
    @given(indices=indices_strategy, workers=workers_strategy)
    @settings(max_examples=100, deadline=None)
    def test_interleave_round_robin(self, indices, workers):
        shards = shard_interleave(indices, workers)
        for worker, shard in enumerate(shards):
            assert shard == list(indices[worker::workers])


# ----------------------------------------------------------------------
# Dataset merge algebra
# ----------------------------------------------------------------------
_SLOTS = 5
_CLASSES = ("a", "b", "c")


def _dataset(rows: list[tuple[int, int]]) -> TraceDataset:
    """A tiny dataset whose rows are (label, fill) pairs — fill values
    make every row distinguishable so reordering or duplication shifts
    the checksum."""
    if rows:
        traces = np.array(
            [[fill + slot for slot in range(_SLOTS)] for _, fill in rows],
            dtype=np.int32,
        )
        labels = np.array([label for label, _ in rows], dtype=np.int64)
    else:
        traces = np.zeros((0, _SLOTS), dtype=np.int32)
        labels = np.zeros((0,), dtype=np.int64)
    return TraceDataset(traces=traces, labels=labels, class_names=_CLASSES)


rows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(_CLASSES) - 1),
        st.integers(min_value=0, max_value=1_000),
    ),
    min_size=1,
    max_size=30,
)


class TestMergeMany:
    @given(chunks=st.lists(rows_strategy, min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_never_drops_duplicates_or_reorders(self, chunks):
        merged = TraceDataset.merge_many([_dataset(rows) for rows in chunks])
        flat = [row for rows in chunks for row in rows]
        expected = _dataset(flat)
        assert np.array_equal(merged.traces, expected.traces)
        assert np.array_equal(merged.labels, expected.labels)
        assert merged.class_names == _CLASSES

    @given(
        chunks=st.lists(rows_strategy, min_size=2, max_size=6),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_associative_over_grouping(self, chunks, data):
        datasets = [_dataset(rows) for rows in chunks]
        split = data.draw(
            st.integers(min_value=1, max_value=len(datasets) - 1)
        )
        flat = TraceDataset.merge_many(datasets)
        grouped = TraceDataset.merge(
            TraceDataset.merge_many(datasets[:split]),
            TraceDataset.merge_many(datasets[split:]),
        )
        assert np.array_equal(flat.traces, grouped.traces)
        assert np.array_equal(flat.labels, grouped.labels)

    @given(chunks=st.lists(rows_strategy, min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_content_sha256_stable_across_chunking(self, chunks):
        merged = TraceDataset.merge_many([_dataset(rows) for rows in chunks])
        expected = _dataset([row for rows in chunks for row in rows])
        assert _content_sha256(merged.traces, merged.labels) == _content_sha256(
            expected.traces, expected.labels
        )

    def test_mismatched_class_names_rejected(self):
        other = TraceDataset(
            traces=np.zeros((1, _SLOTS), dtype=np.int32),
            labels=np.zeros((1,), dtype=np.int64),
            class_names=("x", "y", "z"),
        )
        with pytest.raises(ValueError):
            TraceDataset.merge(_dataset([(0, 1)]), other)

    def test_mismatched_slots_rejected(self):
        other = TraceDataset(
            traces=np.zeros((1, _SLOTS + 1), dtype=np.int32),
            labels=np.zeros((1,), dtype=np.int64),
            class_names=_CLASSES,
        )
        with pytest.raises(ValueError):
            TraceDataset.merge(_dataset([(0, 1)]), other)
