"""repro.index — deterministic vector retrieval (Flat / IVF).

The retrieval layer that turns PKGM's inferred tail embeddings
(``S_T = h + r``) back into entities.  Two index kinds share one
determinism contract — every distance's terms added in one fixed order
whatever the memory layout (stated in :mod:`repro.index.flat`),
``(distance, id)`` tie-breaking, seeded k-means — so that the same seed
and vectors always produce byte-identical snapshots and identical
search results:

* :class:`FlatIndex` — exact search: a float32 screen of every vector,
  float64 rescoring of those its error bound cannot rule out, memory
  bounded whatever the table's size; the recall oracle.
* :class:`IVFFlatIndex` — inverted-file cells, exact in-cell distances.

:func:`save_index` / :func:`load_index` persist either as a
checksummed :mod:`repro.store` directory.
"""

from .flat import FlatIndex, batch_top_k, pairwise_distances, top_k
from .ivf import IVFFlatIndex
from .kmeans import kmeans
from .snapshot import INDEX_KINDS, IndexSnapshotError, load_index, save_index

__all__ = [
    "FlatIndex",
    "IVFFlatIndex",
    "INDEX_KINDS",
    "IndexSnapshotError",
    "batch_top_k",
    "kmeans",
    "load_index",
    "pairwise_distances",
    "save_index",
    "top_k",
]
