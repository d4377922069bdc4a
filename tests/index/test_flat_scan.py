"""``FlatIndex``'s float32 screen against the exact row-major model.

The index screens every vector with a float32 distance and rescores
only the vectors its error bound cannot rule out, so ``search`` must
return the bytes of per-row :func:`repro.index.top_k` over the one-line
broadcast formula — whatever the metric, the dimension, the magnitudes,
the ties at the k-th place, the non-finite coordinates and the chunk
width.  ``state()`` must emit what the row-major index emitted for the
same ``add`` sequence.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import FlatIndex, batch_top_k, top_k
from repro.index import flat

from .test_hot_path import formula_distances, same_bytes


def small_screens(width, gather_elements):
    """Both chunk constants patched, so a small table takes many chunks."""
    return mock.patch.multiple(
        flat, _SCREEN_WIDTH=width, _GATHER_ELEMENTS=gather_elements
    )


def assert_is_the_model(index, vectors, ids, queries, k):
    """``index.search`` is per-row ``top_k`` over the formula, as bytes."""
    got_d, got_i = index.search(queries, k)
    want = formula_distances(queries, vectors, index.metric)
    for row in range(len(queries)):
        want_d, want_i = top_k(want[row], ids, k)
        assert same_bytes(got_d[row], want_d), row
        assert same_bytes(got_i[row], want_i), row
    return got_d, got_i


@st.composite
def screen_cases(draw):
    """(metric, vectors, queries, k, width): tables the bound must survive.

    Coordinates are normal draws, a coarse grid (ties at the k-th
    distance) or the grid moved by less than a float32 ulp (distances
    a float32 screen ranks in the wrong order); some vectors are
    repeated, and everything is scaled by powers of two: one scale, a
    scale per coordinate across the range the bound covers, the grid
    at ``2**59`` (squared L2 screens overflow), or some coordinates past
    the ``2**±60`` guard.  NaN and ±inf land in the table, the queries
    or both.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    dim = draw(st.integers(1, 300))
    total = draw(st.sampled_from([0, 1, 6, 40, 130]))
    n_q = draw(st.sampled_from([1, 3]))
    shape = (total + n_q, dim)
    kind = draw(st.sampled_from(["normal", "grid", "near"]))
    if kind == "normal":
        values = rng.standard_normal(shape)
    else:
        values = rng.integers(-2, 3, size=shape).astype(np.float64)
    if kind == "near":
        values += rng.random(shape) * 2.0**-21
    scale = draw(st.sampled_from(["one", "each", "top", "past"]))
    if scale == "one":
        values *= 2.0 ** draw(st.integers(-40, 40))
    elif scale == "each":
        values *= 2.0 ** rng.integers(-60, 60, size=dim)
    elif scale == "top":
        values = np.clip(values, -2, 2) * 2.0**59
    else:
        past = rng.random(shape) < 0.05
        values[past] *= 2.0 ** rng.choice([-80, -70, 70, 80, 600], past.sum())
    vectors, queries = values[:total], values[total:]
    if total > 3:
        vectors[rng.integers(0, total, total // 3)] = vectors[0]
    special = draw(st.sampled_from(["none", "table", "queries", "both"]))
    for part in {"table": [vectors], "queries": [queries]}.get(
        special, [vectors, queries] if special == "both" else []
    ):
        spots = rng.random(part.shape) < 0.02
        part[spots] = rng.choice([np.nan, np.inf, -np.inf], spots.sum())
    return (
        draw(st.sampled_from(["l1", "l2"])),
        vectors,
        queries,
        draw(st.sampled_from([1, 3, 10, 50, 200])),
        draw(st.sampled_from([1, 3, 16, flat._SCREEN_WIDTH])),
    )


class TestScreenAgainstTheFormula:
    @settings(max_examples=250, deadline=None)
    @given(screen_cases())
    def test_search_is_top_k_over_the_formula(self, case):
        metric, vectors, queries, k, width = case
        index = FlatIndex(vectors.shape[1], metric=metric)
        index.add(vectors)
        ids = np.arange(len(vectors), dtype=np.int64)
        with np.errstate(invalid="ignore", over="ignore"):
            with small_screens(width, flat._GATHER_ELEMENTS):
                assert_is_the_model(index, vectors, ids, queries, k)

    @pytest.mark.parametrize("metric", ["l1", "l2"])
    def test_every_dim_to_300_at_both_ends_of_the_bound(self, metric):
        # Coordinates at 2**±59 and vectors a hair apart: the screen must
        # keep every vector its bound cannot separate from the k-th.
        rng = np.random.default_rng(300)
        for dim in range(1, 301):
            scale = 2.0 ** rng.choice([-59, 0, 59])
            base = (1 + 2.0**-30 * rng.integers(0, 3, size=(23, dim))) * scale
            base *= rng.choice([-1.0, 1.0], size=dim)
            queries = base[[0, 5]] * (1 + 2.0**-40)
            index = FlatIndex(dim, metric=metric)
            index.add(base)
            with np.errstate(over="ignore"):
                with small_screens(4, flat._GATHER_ELEMENTS):
                    assert_is_the_model(index, base, np.arange(23), queries, 5)

    @pytest.mark.parametrize("metric", ["l1", "l2"])
    @pytest.mark.parametrize("exponent", [-40, 0, 40])
    def test_near_ties_the_screen_misranks(self, metric, exponent):
        # Grid points moved by less than a float32 ulp: float32 screens
        # rank these in the wrong order often enough that a sixteenth of
        # the bound returns a wrong neighbor here.
        rng = np.random.default_rng(exponent + 100)
        for trial in range(150):
            dim = int(rng.integers(1, 40))
            values = rng.integers(-2, 3, size=(63, dim)) + rng.random((63, dim)) / 2**21
            values *= 2.0**exponent
            index = FlatIndex(dim, metric=metric)
            index.add(values[3:])
            k = int(rng.choice([1, 3]))
            with small_screens(int(rng.choice([7, 64])), flat._GATHER_ELEMENTS):
                assert_is_the_model(index, values[3:], np.arange(60), values[:3], k)

    def test_thresholds_round_up_and_nan_or_inf_screens_survive(self):
        assert flat._round_up32(1 + 2.0**-30) == np.nextafter(
            np.float32(1), np.float32(2)
        )
        assert flat._round_up32(1.0) == np.float32(1)
        assert flat._round_up32(1e39) == np.inf
        assert np.isnan(flat._round_up32(np.nan))
        screens = np.asarray([0, 1, 2, np.inf, np.nan, 1 + 2**-20], np.float32)
        assert flat._not_above(screens, 1.0 + 2.0**-30).tolist() == [0, 1, 3, 4]

    def test_the_screen_ranks_no_wider_than_it_must(self):
        # Far apart, well-scaled vectors: every chunk's survivors are
        # its few nearest, so the exact rescoring sees a few rows, not N.
        rng = np.random.default_rng(11)
        base = rng.standard_normal((5000, 16))
        index = FlatIndex(16, metric="l1")
        index.add(base)
        rescored = []
        merge = index._merge

        def counting(query, best, cols, k):
            rescored.append(len(cols))
            return merge(query, best, cols, k)

        with mock.patch.object(index, "_merge", counting):
            with small_screens(1000, flat._GATHER_ELEMENTS):
                assert_is_the_model(
                    index, base, np.arange(5000), base[:4] + 0.01, 10
                )
        assert len(rescored) <= 4 * 5 and sum(rescored) < 4 * 5 * 30


class TestScreenChunks:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["l1", "l2"]),
        st.integers(1, 300),
        st.sampled_from([1, 2, 3]),
        st.integers(-2, 2),
        st.integers(0, 2**16),
    )
    def test_chunk_widths_straddling_the_screen_width(
        self, metric, dim, chunks, offset, seed
    ):
        rng = np.random.default_rng(seed)
        width = 16
        base = rng.standard_normal((max(0, chunks * width + offset), dim))
        queries = rng.standard_normal((3, dim))
        index = FlatIndex(dim, metric=metric, block_size=1)
        index.add(base)
        with small_screens(width, 1 << 17):
            assert_is_the_model(
                index, base, np.arange(len(base)), queries, max(1, len(base))
            )

    def test_the_real_screen_width_cuts_equal_chunks(self):
        # One table wide enough for two real chunks and a ragged split.
        rng = np.random.default_rng(7)
        base = rng.standard_normal((2 * flat._SCREEN_WIDTH + 5, 9))
        queries = rng.standard_normal((2, 9))
        index = FlatIndex(9, metric="l1")
        index.add(base)
        assert_is_the_model(index, base, np.arange(len(base)), queries, 4)


@st.composite
def flat_cases(draw):
    """(metric, dim, adds, queries, k, block_size, width, gather_elements).

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
        draw(st.sampled_from([1, 3, 16, flat._SCREEN_WIDTH])),
        draw(st.sampled_from([1, 40, 500, flat._GATHER_ELEMENTS])),
    )


class TestSearchAgainstTheRowMajorModel:
    @settings(max_examples=150, deadline=None)
    @given(flat_cases())
    def test_search_state_and_counters(self, case):
        metric, dim, adds, queries, k, block_size, width, gather = case
        index = FlatIndex(dim, metric=metric, block_size=block_size)
        for vectors, ids in adds:
            index.add(vectors, ids)
        vectors = np.concatenate([np.empty((0, dim))] + [a[0] for a in adds])
        ids = np.concatenate([np.empty(0, np.int64)] + [a[1] for a in adds])
        searched = index.metrics.counter("index.search.queries")
        computed = index.metrics.counter("index.search.distance_computations")

        with small_screens(width, gather):
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

    def test_float64_rows_and_float32_columns(self, clustered_catalog):
        base, _ = clustered_catalog
        index = FlatIndex(base.shape[1])
        index.add(base[:10])
        index.add(base[10:])
        held = {
            array.dtype.name: array
            for array in vars(index).values()
            if isinstance(array, np.ndarray) and array.dtype.kind == "f"
        }
        assert sorted(held) == ["float32", "float64"]
        assert same_bytes(held["float64"], base)
        assert same_bytes(held["float32"], base.T.astype(np.float32))
        assert held["float32"].flags.c_contiguous
        assert index.bytes_per_vector == base.shape[1] * 12 + 8


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
