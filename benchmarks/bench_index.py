"""Retrieval index trade-offs — recall vs work vs memory (repro.index).

Builds the two index kinds over a seeded category-clustered catalog
(a mixture of Gaussians: the geometry trained PKGM embeddings converge
toward, where same-category items share attribute values and cluster —
the mechanism ``knn_category_purity`` measures) and scores each against
the exact Flat baseline on held-out queries drawn from the same
mixture:

* **recall@10** — mean overlap with Flat's exact top-10;
* **distance computations** — from the ``index.search.*`` metrics
  counters, not wall-time guesses;
* **bytes/vector** — what the index holds per vector: IVF's float64
  coordinates and int64 id; Flat's float64 coordinates, the float32
  copy its screen reads and the id (``12 * dim + 8``);
* **seconds** — wall time to build and to search (real cost, so
  ``time.perf_counter`` is fine here — benchmarks live outside the
  virtual-clock packages lint rule R007 covers).

Acceptance (asserted below): IVF-Flat reaches recall@10 ≥ 0.9 with
≥ 5x fewer distance computations than Flat.
"""

import time

import numpy as np

from repro.index import FlatIndex, IVFFlatIndex

SEED = 0
DIM = 24
N_BASE = 8192
N_QUERIES = 64
N_CLUSTERS = 96
SPREAD = 0.35
K = 10

NLIST = 96
NPROBE = 8


def _clustered_catalog():
    """Seeded mixture-of-Gaussians base/query tables."""
    rng = np.random.default_rng(42)
    centers = rng.normal(size=(N_CLUSTERS, DIM))
    base = (
        centers[rng.integers(0, N_CLUSTERS, size=N_BASE)]
        + SPREAD * rng.normal(size=(N_BASE, DIM))
    )
    queries = (
        centers[rng.integers(0, N_CLUSTERS, size=N_QUERIES)]
        + SPREAD * rng.normal(size=(N_QUERIES, DIM))
    )
    return base, queries


def _make_index(kind):
    if kind == "flat":
        return FlatIndex(DIM, metric="l2")
    return IVFFlatIndex(DIM, nlist=NLIST, nprobe=NPROBE, metric="l2", seed=SEED)


def _measure(kind, base, queries, exact_ids):
    index = _make_index(kind)
    build_start = time.perf_counter()
    if hasattr(index, "build"):
        index.build(base)
    else:
        index.add(base)
    build_seconds = time.perf_counter() - build_start
    search_start = time.perf_counter()
    _, ids = index.search(queries, K)
    search_seconds = time.perf_counter() - search_start
    dc = index.metrics.counter("index.search.distance_computations").value
    if exact_ids is None:
        recall = 1.0
    else:
        recall = float(
            np.mean(
                [
                    len(set(exact_ids[q].tolist()) & set(ids[q].tolist())) / K
                    for q in range(len(queries))
                ]
            )
        )
    return {
        "kind": kind,
        "ids": ids,
        "recall": recall,
        "dc": dc,
        "bytes": index.bytes_per_vector,
        "build_s": build_seconds,
        "search_s": search_seconds,
    }


def test_index_retrieval(benchmark, record_table):
    base, queries = _clustered_catalog()
    rows = {}

    def sweep():
        flat = _measure("flat", base, queries, None)
        rows["flat"] = flat
        rows["ivf"] = _measure("ivf", base, queries, flat["ids"])

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    flat = rows["flat"]
    lines = [
        "Retrieval index trade-offs — clustered catalog "
        f"(N={N_BASE}, dim={DIM}, {N_CLUSTERS} clusters, "
        f"{N_QUERIES} queries, k={K}, seed {SEED})",
        "kind | params | recall@10 | distance comps | saving | "
        "bytes/vec | build s | search s",
    ]
    for kind, params in (
        ("flat", "exact scan"),
        ("ivf", f"nlist={NLIST} nprobe={NPROBE}"),
    ):
        row = rows[kind]
        lines.append(
            f"{kind} | {params} | {row['recall']:.3f} | {row['dc']} | "
            f"{flat['dc'] / row['dc']:.1f}x | {row['bytes']:.0f} | "
            f"{row['build_s']:.3f} | {row['search_s']:.3f}"
        )
    ivf_saving = flat["dc"] / rows["ivf"]["dc"]
    lines.append(
        f"acceptance: IVF recall {rows['ivf']['recall']:.3f} >= 0.9 at "
        f"{ivf_saving:.1f}x >= 5x"
    )
    record_table("index_retrieval", lines)

    assert rows["ivf"]["recall"] >= 0.9, rows["ivf"]
    assert ivf_saving >= 5.0, f"IVF saves only {ivf_saving:.2f}x"
