"""The vectorised index helpers against the slow forms they replaced.

``batch_top_k`` thresholds with a partition before it sorts and
``pairwise_distances`` blocks over queries; both must return the bytes
of the one-row-at-a-time code — :func:`repro.index.top_k` (a single-row
``lexsort``) and the one-line broadcast formula, both kept here as the
oracles.  ``IVFFlatIndex.search`` computes each query's distances in a
scratch block and ranks one padded candidate matrix; whatever it
probes, it must be the formula plus ``top_k`` over the probed rows it
did not drop, at dimensions on both sides of numpy's 8-lane and
128-element summation blocks; probing every cell it must be a
``FlatIndex`` over whatever was not dropped, and its counters must
equal their formulas.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import (
    FlatIndex,
    IVFFlatIndex,
    batch_top_k,
    kmeans,
    pairwise_distances,
    top_k,
)
from repro.index import flat


def same_bytes(left, right):
    left, right = np.asarray(left), np.asarray(right)
    return (
        left.dtype == right.dtype
        and left.shape == right.shape
        and left.tobytes() == right.tobytes()
    )


def formula_distances(queries, base, metric):
    """``pairwise_distances`` as it was: one unblocked broadcast."""
    if metric == "l1":
        return np.abs(queries[:, None, :] - base[None, :, :]).sum(axis=2)
    diff = queries[:, None, :] - base[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


@st.composite
def candidate_rows(draw):
    """(distances, ids, k): few distinct distances, so ties straddle the
    k-th place; shuffled ids; some rows padded with ``(inf, -1)``; some
    real candidates at NaN or inf, up to whole rows of NaN."""
    n_q = draw(st.integers(1, 5))
    n_c = draw(st.sampled_from([0, 1, 3, 8, 9, 33, 41, 120]))
    k = draw(st.sampled_from([1, 2, 8, 10]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    levels = draw(st.sampled_from([1, 2, 4]))  # 1: every distance equal
    distances = rng.integers(0, levels, size=(n_q, n_c)).astype(np.float64)
    ids = np.stack([rng.permutation(n_c) for _ in range(n_q)]).astype(np.int64)
    if draw(st.booleans()):  # one id row shared by every query
        ids = ids[:1]
    elif draw(st.booleans()):
        pads = rng.random((n_q, n_c)) < draw(st.sampled_from([0.3, 1.0]))
        distances[pads], ids[pads] = np.inf, -1
    odd = rng.random((n_q, n_c)) < draw(st.sampled_from([0.0, 0.3, 0.95, 1.0]))
    distances[odd] = rng.choice([np.nan, np.inf], odd.sum())
    return distances, ids, k


class TestBatchTopK:
    @settings(max_examples=300, deadline=None)
    @given(candidate_rows())
    def test_is_top_k_row_by_row(self, case):
        distances, ids, k = case
        got_d, got_i = batch_top_k(distances, ids, k)
        for row, row_ids in enumerate(np.broadcast_to(ids, distances.shape)):
            want_d, want_i = top_k(distances[row], row_ids, k)
            assert same_bytes(got_d[row], want_d)
            assert same_bytes(got_i[row], want_i)

    def test_ties_straddling_the_kth_place_break_by_id(self):
        # Five candidates at the 3rd-smallest distance; the two lowest
        # ids among them must win wherever they sit in the row.
        distances = np.full((1, 64), 9.0)
        ids = np.arange(64, dtype=np.int64)[None, ::-1].copy()
        distances[0, [5, 17, 29, 41, 63]] = 2.0
        distances[0, 50] = 1.0
        got_d, got_i = batch_top_k(distances, ids, 3)
        assert got_d.tolist() == [[1.0, 2.0, 2.0]]
        assert got_i.tolist() == [[13, 0, 22]]

    @pytest.mark.parametrize("width", [30, 100])  # sorted whole; thresholded
    def test_nan_ranks_after_every_number(self, width):
        # Five finite distances among NaNs: the k-th distance is NaN, and
        # the five must still come first, then the NaNs by id.
        distances = np.full((1, width), np.nan)
        distances[0, [3, 11, 17, 22, 29]] = [4.0, 0.0, 2.0, 2.0, 1.0]
        ids = np.arange(width, dtype=np.int64)
        got_d, got_i = batch_top_k(distances, ids, 10)
        assert got_i.tolist() == [[11, 29, 17, 22, 3, 0, 1, 2, 4, 5]]
        want_d, want_i = top_k(distances[0], ids, 10)
        assert same_bytes(got_d[0], want_d) and same_bytes(got_i[0], want_i)


class TestPairedDistances:
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["l1", "l2"]),
        st.integers(1, 300),
        st.sampled_from([0, 1, 7, 437, 1000]),  # 437 pairs of 300 terms: two chunks
        st.integers(0, 2**16),
    )
    def test_every_pair_has_its_bits_in_the_full_matrix(self, metric, dim, pairs, seed):
        rng = np.random.default_rng(seed)
        queries = rng.standard_normal((9, dim))
        base = rng.integers(-2, 3, size=(6, dim)) * rng.choice([1.0, 0.5, 1e-3], dim)
        rows, cols = rng.integers(0, 9, pairs), rng.integers(0, 6, pairs)
        got = flat.paired_distances(queries, base, rows, cols, metric)
        assert same_bytes(got, pairwise_distances(queries, base, metric)[rows, cols])


class TestPairwiseDistances:
    def test_the_cases_below_straddle_the_block_size(self):
        assert flat._BLOCK_ELEMENTS == 64 * 32 * 16

    @pytest.mark.parametrize("metric", ["l1", "l2"])
    @pytest.mark.parametrize(
        "n_q, n_b, dim",
        [
            (1, 0, 4),
            (0, 5, 4),
            (1, 1100, 32),  # one query, base wider than a block
            (70, 32, 16),  # 64-query blocks and a 6-query tail
            (64, 32, 16),  # exactly one block
            (65, 32, 16),
            (5, 1025, 32),  # every block is one query
            (33, 31, 33),
            (300, 1, 3),
        ],
    )
    def test_blocking_keeps_every_bit(self, metric, n_q, n_b, dim):
        rng = np.random.default_rng(n_q * 1000 + n_b)
        queries = rng.standard_normal((n_q, dim))
        base = rng.standard_normal((n_b, dim))
        assert same_bytes(
            pairwise_distances(queries, base, metric),
            formula_distances(queries, base, metric),
        )


@st.composite
def ivf_cases(draw):
    """(metric, dim, vectors, ids, queries, nprobe, drop, k): Gaussian
    rows and queries, some with a NaN (either sign) or ±inf coordinate;
    every cell probed or only a few."""
    metric = draw(st.sampled_from(["l1", "l2"]))
    dim = draw(st.sampled_from([1, 7, 8, 9, 33, 128, 129, 200]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    vectors = rng.standard_normal((int(rng.integers(8, 90)), dim))
    queries = rng.standard_normal((int(rng.integers(1, 5)), dim))
    if draw(st.booleans()):
        # One shared coordinate, so a query's NaN meets a row's NaN of
        # the other sign: only then does q - x differ from x - q.
        column = int(rng.integers(dim))
        for table in (vectors, queries):
            odd = rng.random(len(table)) < 0.3
            table[odd, column] = rng.choice([np.nan, -np.nan, np.inf, -np.inf], odd.sum())
    ids = rng.permutation(500)[: len(vectors)].astype(np.int64)
    nprobe = draw(st.sampled_from([1, 2, 4]))
    drop = set(rng.choice(ids, int(rng.integers(0, len(ids))), replace=False).tolist())
    return metric, dim, vectors, ids, queries, nprobe, drop, draw(st.sampled_from([1, 3, 30]))


class TestIVFScanAgainstTheFormula:
    @settings(max_examples=200, deadline=None)
    @given(ivf_cases())
    def test_search_is_the_formula_over_the_probed_rows_left(self, case):
        metric, dim, vectors, ids, queries, nprobe, drop, k = case
        ivf = IVFFlatIndex(dim=dim, nlist=4, nprobe=1, metric=metric, seed=0)
        finite = np.isfinite(vectors).all(axis=1)
        ivf.train(np.concatenate([vectors[finite], np.zeros((4, dim))]))
        ivf.add(vectors, ids)  # the non-finite rows land in some cell too
        got_d, got_i = ivf.search(
            queries, k, nprobe=nprobe, drop=np.fromiter(drop, np.int64, len(drop))
        )
        arrays = ivf.state()[0]
        offsets = arrays["offsets"]
        cell_ids = np.arange(4, dtype=np.int64)
        for row, query in enumerate(queries):
            centroid_d = formula_distances(query[None], ivf.centroids, metric)[0]
            rows = np.concatenate(
                [
                    np.arange(offsets[c], offsets[c + 1])
                    for c in top_k(centroid_d, cell_ids, nprobe)[1].tolist()
                ]
            ).astype(np.int64)
            rows = rows[[i not in drop for i in arrays["ids"][rows].tolist()]]
            distances = formula_distances(query[None], arrays["vectors"][rows], metric)
            want_d, want_i = top_k(distances[0], arrays["ids"][rows], k)
            assert same_bytes(got_d[row], want_d)
            assert same_bytes(got_i[row], want_i)


class TestIVFAgainstFlat:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["l1", "l2"]),
        st.integers(0, 2**16),
        st.sampled_from([1, 5, 40, 200]),
    )
    def test_probing_every_cell_is_a_flat_scan_of_what_is_left(self, metric, seed, k):
        rng = np.random.default_rng(seed)
        # A coarse grid: duplicate vectors and tied distances are common.
        vectors = rng.integers(-2, 3, size=(120, 3)).astype(np.float64)
        ids = rng.permutation(1000)[:120].astype(np.int64)
        ivf = IVFFlatIndex(dim=3, nlist=6, nprobe=2, metric=metric, seed=1)
        ivf.build(vectors, ids)
        dropped = set(rng.choice(ids, int(rng.integers(0, 120)), replace=False).tolist())
        kept = np.asarray([i not in dropped for i in ids.tolist()])
        exact = FlatIndex(dim=3, metric=metric, block_size=50)
        exact.add(vectors[kept], ids[kept])
        queries = rng.integers(-2, 3, size=(7, 3)).astype(np.float64)
        got = ivf.search(
            queries, k, nprobe=6, drop=np.fromiter(dropped, np.int64, len(dropped))
        )
        want = exact.search(queries, k)
        assert same_bytes(got[0], want[0])
        assert same_bytes(got[1], want[1])

    def test_counters_equal_their_formulas(self, clustered_catalog):
        base, queries = clustered_catalog
        nlist, nprobe, iters = 12, 3, 4
        ivf = IVFFlatIndex(
            dim=base.shape[1], nlist=nlist, nprobe=nprobe, seed=3, kmeans_iters=iters
        )
        ivf.build(base[:900])
        trained = kmeans(base[:900], nlist, iters=iters, seed=3).distance_computations
        ivf.add(base[900:])
        build = ivf.metrics.counter("index.build.distance_computations")
        # build files its training vectors from k-means' last step; add
        # evaluates one row per vector.
        assert build.value == trained + (len(base) - 900) * nlist

        sizes = np.diff(ivf.state()[0]["offsets"])
        probes = ivf.probe_cells(queries, nprobe)
        search = ivf.metrics.counter("index.search.distance_computations")
        before = search.value
        # Dropped ids are scanned all the same: their bytes are still there.
        ivf.search(queries, 10, drop=np.arange(0, len(base), 2))
        scanned = int(sizes[probes].sum())
        assert search.value - before == len(queries) * nlist + scanned
