"""``FlatIndex``'s coordinate-major scan against the row-major code it replaced.

The index keeps its table ``(d, N)`` and sums each distance's ``d``
terms itself, lane by lane, in the order ``ndarray.sum`` adds a
contiguous last axis — so a numpy that changes that order fails
``TestScanBlock`` here, not a CRC three layers down.  ``search`` is held
to a slow model (per-row :func:`repro.index.top_k` over the one-line
broadcast formula) and ``state()`` to what the row-major index emitted
for the same ``add`` sequence.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import FlatIndex, batch_top_k, pairwise_distances, top_k
from repro.index import flat

from .test_hot_path import formula_distances, same_bytes

POWERS = {"l1": np.abs, "l2": np.square}


def scan_block(query, base, metric):
    """``_scan_block`` over the whole of ``base`` as one block."""
    block = np.ascontiguousarray(base.T)
    out = flat._scan_block(
        query[:, None],
        block,
        POWERS[metric],
        np.empty((2, 8, len(base))),
        np.empty(len(base)),
    )
    return out if metric == "l1" else np.sqrt(out)


def small_scans(scan_width, merge_elements):
    """Both scan constants patched, so a small table takes many blocks."""
    return mock.patch.multiple(
        flat, _SCAN_WIDTH=scan_width, _MERGE_ELEMENTS=merge_elements
    )


class TestScanBlock:
    @pytest.mark.parametrize("metric", ["l1", "l2"])
    def test_every_dim_to_300_sums_in_numpy_order(self, metric):
        rng = np.random.default_rng(300)
        for dim in range(1, 301):
            base = rng.standard_normal((11, dim))
            query = rng.standard_normal(dim)
            assert same_bytes(
                scan_block(query, base, metric),
                pairwise_distances(query[None], base, metric)[0],
            ), dim

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["l1", "l2"]),
        st.integers(1, 300),
        st.sampled_from([1, 2, 3]),
        st.integers(-2, 2),
        st.integers(0, 2**16),
    )
    def test_block_widths_straddling_the_scan_width(
        self, metric, dim, blocks, offset, seed
    ):
        rng = np.random.default_rng(seed)
        scan_width = 16
        base = rng.standard_normal((max(0, blocks * scan_width + offset), dim))
        queries = rng.standard_normal((3, dim))
        index = FlatIndex(dim, metric=metric, block_size=1)
        index.add(base)
        with small_scans(scan_width, 1 << 17):
            got = index.search(queries, max(1, len(base)))[0]
        want = np.sort(pairwise_distances(queries, base, metric), axis=1)
        assert same_bytes(got[:, : len(base)], want)

    def test_the_real_scan_width_cuts_equal_blocks(self):
        # One table wide enough for two real blocks and a ragged split.
        rng = np.random.default_rng(7)
        base = rng.standard_normal((2 * flat._SCAN_WIDTH + 5, 9))
        queries = rng.standard_normal((2, 9))
        index = FlatIndex(9, metric="l1")
        index.add(base)
        got_d, got_i = index.search(queries, 4)
        want = pairwise_distances(queries, base, "l1")
        for row in range(2):
            want_d, want_i = top_k(want[row], np.arange(len(base)), 4)
            assert same_bytes(got_d[row], want_d)
            assert same_bytes(got_i[row], want_i)


@st.composite
def flat_cases(draw):
    """(metric, dim, adds, queries, k, block_size, scan_width, merge_elements).

    Vectors sit on a coarse grid and some are repeated under different
    ids, so equal distances straddle the k-th place; ids are shuffled
    and the table arrives in several ``add`` calls.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    dim = draw(st.sampled_from([1, 3, 8, 9, 17]))
    total = draw(st.sampled_from([0, 1, 7, 40, 130]))
    vectors = rng.integers(-2, 3, size=(total, dim)).astype(np.float64)
    if total > 3:
        vectors[rng.integers(0, total, total // 3)] = vectors[0]
    ids = rng.permutation(10 * total + 1)[:total].astype(np.int64)
    cuts = sorted(rng.integers(0, total + 1, draw(st.integers(0, 3))).tolist())
    adds = [
        (vectors[low:high], ids[low:high])
        for low, high in zip([0, *cuts], [*cuts, total])
    ]
    n_q = draw(st.sampled_from([1, 2, 9, 200]))
    queries = rng.integers(-2, 3, size=(n_q, dim)).astype(np.float64)
    return (
        draw(st.sampled_from(["l1", "l2"])),
        dim,
        adds,
        queries,
        draw(st.sampled_from([1, 5, 50, 200])),
        draw(st.sampled_from([1, 7, 1024])),
        draw(st.sampled_from([1, 3, 16, flat._SCAN_WIDTH])),
        draw(st.sampled_from([1, 40, 500, flat._MERGE_ELEMENTS])),
    )


class TestSearchAgainstTheRowMajorModel:
    @settings(max_examples=150, deadline=None)
    @given(flat_cases())
    def test_search_state_and_counters(self, case):
        metric, dim, adds, queries, k, block_size, scan_width, merge = case
        index = FlatIndex(dim, metric=metric, block_size=block_size)
        for vectors, ids in adds:
            index.add(vectors, ids)
        vectors = np.concatenate([np.empty((0, dim))] + [a[0] for a in adds])
        ids = np.concatenate([np.empty(0, np.int64)] + [a[1] for a in adds])
        searched = index.metrics.counter("index.search.queries")
        computed = index.metrics.counter("index.search.distance_computations")

        with small_scans(scan_width, merge):
            got_d, got_i = index.search(queries, k)
        assert searched.value == len(queries)
        assert computed.value == len(queries) * len(vectors)
        want = formula_distances(queries, vectors, metric)
        for row in range(len(queries)):
            want_d, want_i = top_k(want[row], ids, k)
            assert same_bytes(got_d[row], want_d)
            assert same_bytes(got_i[row], want_i)

        # What the row-major index emitted for these adds, byte for byte.
        arrays, meta = index.state()
        assert list(arrays) == ["vectors", "ids"]
        assert arrays["vectors"].flags.c_contiguous
        assert same_bytes(arrays["vectors"], vectors)
        assert same_bytes(arrays["ids"], ids)
        assert meta == {
            "kind": "flat",
            "dim": dim,
            "metric": metric,
            "block_size": block_size,
        }
        again = FlatIndex.from_state(arrays, meta)
        assert again.ntotal == index.ntotal == len(vectors)
        again_arrays, again_meta = again.state()
        assert again_meta == meta
        assert same_bytes(again_arrays["vectors"], vectors)
        assert same_bytes(again_arrays["ids"], ids)
        again_d, again_i = again.search(queries, k)
        assert same_bytes(again_d, got_d) and same_bytes(again_i, got_i)

    def test_counters_add_up_over_searches(self, clustered_catalog):
        base, queries = clustered_catalog
        index = FlatIndex(base.shape[1], metric="l1")
        index.add(base[:500])
        searched = index.metrics.counter("index.search.queries")
        computed = index.metrics.counter("index.search.distance_computations")
        index.search(queries[:5], 3)
        assert (searched.value, computed.value) == (5, 5 * 500)
        index.add(base[500:])
        index.search(queries, 3)
        assert searched.value == 5 + len(queries)
        assert computed.value == 5 * 500 + len(queries) * len(base)

    def test_the_table_is_held_once_and_coordinate_major(self, clustered_catalog):
        base, _ = clustered_catalog
        index = FlatIndex(base.shape[1])
        index.add(base[:10])
        index.add(base[10:])
        held = [
            value
            for value in vars(index).values()
            if isinstance(value, np.ndarray) and value.dtype == np.float64
        ]
        assert [array.shape for array in held] == [base.T.shape]
        assert held[0].flags.c_contiguous


class TestBatchTopKIdShapes:
    """One id row shared by every query, in each of the three width bands."""

    @pytest.mark.parametrize("k", [40, 10, 5])  # pads; sorts whole; thresholds
    @pytest.mark.parametrize("shape", ["(C,)", "(1, C)", "(Q, C)"])
    def test_every_id_shape_in_every_band(self, k, shape):
        rng = np.random.default_rng(k)
        distances = rng.integers(0, 4, size=(2, 30)).astype(np.float64)
        row = rng.permutation(30).astype(np.int64)
        ids = {"(C,)": row, "(1, C)": row[None], "(Q, C)": np.stack([row, row[::-1]])}[
            shape
        ]
        got_d, got_i = batch_top_k(distances, ids, k)
        for query, query_ids in enumerate(np.broadcast_to(ids, distances.shape)):
            want_d, want_i = top_k(distances[query], query_ids, k)
            assert same_bytes(got_d[query], want_d)
            assert same_bytes(got_i[query], want_i)
