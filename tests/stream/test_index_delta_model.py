"""``DeltaIndex`` against a model that does everything the slow way.

The model keeps a dict ``id -> vector`` and one Python list of ids per
cell.  It assigns a vector with the one-line distance formula, strikes
one id at a time, and searches the way ``DeltaIndex`` used to: per
query row, ``repro.index.top_k`` over the rows of the probed cells,
overfetched by the tombstone count, then filtered in Python.  After
every operation the index must hold the model's bytes — search
results, ``state()`` arrays, gauges and counters — and ``ntotal`` must
be the number of rows in the lists.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.index import IVFFlatIndex, kmeans, top_k
from repro.stream import DeltaIndex
from repro.stream.index_delta import (
    MIN_VECTORS_FOR_RECLUSTER,
    RECLUSTER_SEED,
    SKEW_RATIO,
    TOMBSTONE_RATIO,
)
from tests.index.test_hot_path import formula_distances, same_bytes

# Eight lists, so one crowded list can reach SKEW_RATIO (4) times the mean.
DIM, NLIST, NPROBE, ITERS, START = 3, 8, 2, 5, 64
OPS = ["insert", "delete", "update", "maintenance", "compact", "recluster", "search"]


def draw_vectors(rng, count):
    """A coarse grid: duplicate vectors and tied distances are common."""
    return rng.integers(-2, 3, size=(count, DIM)).astype(np.float64)


class Model:
    def __init__(self, metric, vectors, ids):
        self.metric, self.seed, self.nlist = metric, 0, NLIST
        self.vectors, self.tombstones, self.reclusters = {}, set(), 0
        self.counts = dict.fromkeys(
            ["inserts", "deletes", "updates", "compactions", "reclusters"], 0
        )
        self.build_dc = self.search_dc = 0
        self._build(vectors, ids)

    def _build(self, vectors, ids):
        result = kmeans(vectors, self.nlist, self.metric, ITERS, self.seed)
        self.build_dc += result.distance_computations
        self.centroids = result.centroids
        self.lists = [[] for _ in range(self.nlist)]
        # A build files its training vectors without evaluating again.
        for vector, vector_id in zip(vectors, ids.tolist()):
            self._place(vector_id, vector)

    def _file(self, vector_id, vector):
        self.build_dc += self.nlist
        self._place(vector_id, vector)

    def _place(self, vector_id, vector):
        distances = formula_distances(vector[None, :], self.centroids, self.metric)
        self.lists[int(np.argmin(distances[0]))].append(vector_id)
        self.vectors[vector_id] = vector

    def _strike(self, vector_id):
        next(ids for ids in self.lists if vector_id in ids).remove(vector_id)
        del self.vectors[vector_id]

    @property
    def ntotal(self):
        return sum(len(ids) for ids in self.lists)

    def insert(self, vectors, ids):
        for vector, vector_id in zip(vectors, ids.tolist()):
            self._file(vector_id, vector)
        self.counts["inserts"] += len(ids)

    def delete(self, ids):
        fresh = {i for i in ids.tolist() if i in self.vectors} - self.tombstones
        self.tombstones |= fresh
        self.counts["deletes"] += len(fresh)
        return len(fresh)

    def update(self, vector_id, vector):
        self._strike(vector_id)
        self.tombstones.discard(vector_id)
        self._file(vector_id, vector)
        self.counts["updates"] += 1

    def compact(self):
        for vector_id in sorted(self.tombstones):
            self._strike(vector_id)
        self.tombstones.clear()
        self.counts["compactions"] += 1

    def recluster(self):
        if self.tombstones:
            self.compact()
        ids = np.asarray(sorted(self.vectors), dtype=np.int64)
        vectors = np.asarray([self.vectors[i] for i in ids.tolist()])
        self.nlist = min(self.nlist, len(ids))
        self.seed = int(
            np.random.default_rng([RECLUSTER_SEED, self.reclusters]).integers(2**31)
        )
        self.vectors = {}
        self._build(vectors.reshape(len(ids), DIM), ids)
        self.reclusters += 1
        self.counts["reclusters"] += 1

    def maintenance(self):
        actions = []
        total = self.ntotal
        if self.tombstones and len(self.tombstones) / total >= TOMBSTONE_RATIO:
            self.compact()
            actions.append("compact")
        sizes = [len(ids) for ids in self.lists if ids]
        if (
            self.ntotal - len(self.tombstones) >= MIN_VECTORS_FOR_RECLUSTER
            and max(sizes) / (sum(sizes) / len(sizes)) >= SKEW_RATIO
        ):
            self.recluster()
            actions.append("recluster")
        return actions

    def search(self, queries, k, nprobe):
        out_d = np.full((len(queries), k), np.inf)
        out_i = np.full((len(queries), k), -1, dtype=np.int64)
        cells = np.arange(self.nlist, dtype=np.int64)
        for row, query in enumerate(queries):
            to_cells = formula_distances(query[None, :], self.centroids, self.metric)
            _, probes = top_k(to_cells[0], cells, nprobe)
            ids = [i for cell in probes.tolist() for i in self.lists[cell]]
            self.search_dc += self.nlist + len(ids)
            base = np.asarray([self.vectors[i] for i in ids]).reshape(len(ids), DIM)
            distances = formula_distances(query[None, :], base, self.metric)[0]
            ranked = top_k(
                distances, np.asarray(ids, dtype=np.int64), k + len(self.tombstones)
            )
            live = [
                (d, i)
                for d, i in zip(*ranked)
                if i >= 0 and int(i) not in self.tombstones
            ][:k]
            for column, (d, i) in enumerate(live):
                out_d[row, column], out_i[row, column] = d, i
        return out_d, out_i

    def state(self):
        flat = [i for ids in self.lists for i in ids]
        return {
            "centroids": self.centroids,
            "vectors": np.asarray([self.vectors[i] for i in flat]).reshape(-1, DIM),
            "ids": np.asarray(flat, dtype=np.int64),
            "offsets": np.cumsum([0] + [len(ids) for ids in self.lists]),
        }

    def stream_metrics(self, gauges):
        metrics = {f"stream.index.{name}": n for name, n in self.counts.items()}
        if gauges:
            metrics["stream.index.tombstones"] = len(self.tombstones)
            metrics["stream.index.live"] = self.ntotal - len(self.tombstones)
        return metrics


def assert_same_index(index, model):
    arrays, meta = index.index.state()
    expected = model.state()
    assert sorted(arrays) == sorted(expected)
    for name in arrays:
        assert same_bytes(arrays[name], expected[name]), name
    ntotal = index.index.ntotal
    assert type(ntotal) is int
    assert ntotal == model.ntotal == len(arrays["ids"]) == arrays["offsets"][-1]
    assert IVFFlatIndex.from_state(arrays, meta).ntotal == ntotal
    assert index.index.metrics.gauge("index.size").value == ntotal
    assert index.tombstones == model.tombstones
    assert index.live_count == model.ntotal - len(model.tombstones)
    assert index.tombstone_fraction == (
        len(model.tombstones) / model.ntotal if model.ntotal else 0.0
    )
    assert index.recluster_count == model.reclusters
    assert all(index.is_live(i) == (i not in model.tombstones) for i in model.vectors)
    registry = index.index.metrics
    assert registry.counter("index.build.distance_computations").value == model.build_dc
    assert registry.counter("index.search.distance_computations").value == model.search_dc


#: Two crowds of 29 on 64 vectors, then 54 deletes: one ``maintenance``
#: compacts, and with 68 rows live the crowded list still holds four
#: times the mean, so it re-clusters too.
BOTH_TRIGGERS = [("insert", 2949), ("insert", 2916), ("delete", 1), ("maintenance", 0)]


@settings(max_examples=60, deadline=None)
@example("l1", BOTH_TRIGGERS)
@example("l2", BOTH_TRIGGERS)
@given(
    st.sampled_from(["l1", "l2"]),
    st.lists(
        st.tuples(st.sampled_from(OPS), st.integers(0, 2**16)), min_size=1, max_size=24
    ),
)
def test_every_operation_leaves_the_models_bytes(metric, ops):
    rng = np.random.default_rng(0)
    vectors, ids = draw_vectors(rng, START), np.arange(START, dtype=np.int64)
    base = IVFFlatIndex(
        dim=DIM, nlist=NLIST, nprobe=NPROBE, metric=metric, seed=0, kmeans_iters=ITERS
    )
    base.build(vectors, ids)
    index, model = DeltaIndex(base), Model(metric, vectors, ids)
    assert_same_index(index, model)
    next_id = START
    for op, seed in ops:
        rng = np.random.default_rng(seed)
        mutated = True  # the gauges are set by whatever changes the index
        known = np.asarray(sorted(model.vectors), dtype=np.int64)
        live = len(known) - len(model.tombstones)
        if op == "insert":
            count = int(rng.integers(0, 30))
            new = draw_vectors(rng, count)
            if seed % 3 == 0:  # a tight far-off crowd now and then, to skew one list
                new = new * 0.25 + 8.0
            new_ids = np.arange(next_id, next_id + count, dtype=np.int64)
            next_id += count
            index.insert(new, new_ids)
            model.insert(new, new_ids)
            mutated = count > 0
        elif op == "delete":
            # Known ids (some already tombstoned), one unknown; a few stay live.
            count = int(rng.integers(0, max(1, live - 6)))
            chosen = np.append(rng.choice(known, size=count, replace=False), 10**6)
            assert index.delete(chosen) == model.delete(chosen)
        elif op == "update":
            target, vector = int(rng.choice(known)), draw_vectors(rng, 1)[0]
            index.update(target, vector)
            model.update(target, vector)
        elif op == "maintenance":
            actions = model.maintenance()
            assert index.maintenance() == actions
            mutated = bool(actions)
        elif op == "compact":
            index.compact()
            model.compact()
        elif op == "recluster":
            index.recluster()
            model.recluster()
        else:
            queries = draw_vectors(rng, int(rng.integers(0, 6)))
            k = int(rng.choice([1, 3, 10, 80]))
            nprobe = int(rng.integers(1, model.nlist + 1))
            got, want = index.search(queries, k, nprobe), model.search(queries, k, nprobe)
            assert same_bytes(got[0], want[0])
            assert same_bytes(got[1], want[1])
            mutated = False
        assert_same_index(index, model)
        expected = model.stream_metrics(gauges=mutated)
        snapshot = index.metrics.snapshot()
        assert {name: snapshot[name] for name in expected} == expected
