"""The two projection strategies against each other.

``PKGMServer._project`` copies one transfer matrix per pair for a call
with few pairs per relation and sorts the pairs by relation otherwise
(``GROUPS_AT`` pairs on the fixtures of ``test_service_block``).  A call
reaches a strategy by its size alone, so every comparison here is made
of calls: the same pairs cut into pieces that are gathered, tiled into a
batch that is grouped, and asked for whole must be the same bytes — and
the bytes of the one-line formula.  Batch composition never changes an
item's bytes: a block equals its single serves, a score batch its single
scores, on both sides of the constant.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import KeyRelationSelector, PKGM, PKGMConfig, PKGMServer
from repro.data import CatalogConfig, generate_catalog

from .test_service_block import (  # the fixtures are used by name
    DIM,
    ENTITIES,
    GROUPS_AT,
    ITEMS,
    K,
    RELATIONS,
    gathers,
    resident,
    same_bytes,
    selector,
    server,
    store_backed,
    transfer_gathers,
)

#: Always gathered, whatever it is cut from.
PIECE = RELATIONS
#: Pair counts below, at and above the break-even.
SIZES = [1, 2, RELATIONS, GROUPS_AT - 1, GROUPS_AT, GROUPS_AT + 1, 3 * GROUPS_AT]
#: Blocks of B items hold B·K pairs: the last gathered size, the first grouped.
BLOCKS = [1, GROUPS_AT // K, GROUPS_AT // K + 1, 40, 256]


def formula(resident, heads, relations):
    """``M_r h − r`` as the raw service computed it before it had a choice."""
    transformed = np.matvec(
        resident.transfer_tensor[relations], resident.entity_table[heads]
    )
    return transformed - resident.relation_table[relations]


@st.composite
def pair_arrays(draw):
    """``(heads, relations)`` of one shape — 0-/1-/2-D, empty, straddling
    the break-even — with duplicate pairs, one relation only, or a
    different relation for every pair (as far as five relations go)."""
    shape = draw(
        st.sampled_from(
            [(), (0,), (2, 0), (1, 1), (3, 13), (2, GROUPS_AT // 2), (2, 3, 11)]
            + [(size,) for size in SIZES]
        )
    )
    size = int(np.prod(shape, dtype=np.int64))
    heads = draw(
        st.lists(st.integers(0, ENTITIES - 1), min_size=size, max_size=size)
    )
    relations = draw(
        st.one_of(
            st.lists(st.integers(0, RELATIONS - 1), min_size=size, max_size=size),
            st.integers(0, RELATIONS - 1).map(lambda only: [only] * size),
            st.integers(0, RELATIONS - 1).map(
                lambda first: [(first + pair) % RELATIONS for pair in range(size)]
            ),
        )
    )
    return tuple(
        np.asarray(ids, dtype=np.int64).reshape(shape) for ids in (heads, relations)
    )


class TestEachStrategyIsTheOthersOracle:
    @settings(max_examples=80, deadline=None)
    @given(pair_arrays())
    def test_gathered_grouped_and_whole_are_the_same_bytes(
        self, server, resident, pairs
    ):
        heads, relations = pairs
        whole = server.relation_service(heads, relations)
        assert same_bytes(whole, formula(resident, heads, relations))

        flat_heads, flat_relations = heads.reshape(-1), relations.reshape(-1)
        gathered = [
            server.relation_service(
                flat_heads[at : at + PIECE], flat_relations[at : at + PIECE]
            )
            for at in range(0, heads.size, PIECE)
        ]
        if not gathered:
            assert whole.size == 0
            return
        assert same_bytes(whole, np.concatenate(gathered).reshape(whole.shape))

        repeats = -(-GROUPS_AT // heads.size)
        grouped = server.relation_service(
            np.tile(flat_heads, repeats), np.tile(flat_relations, repeats)
        )
        assert same_bytes(whole, grouped[: heads.size].reshape(whole.shape))

    @pytest.mark.parametrize(
        "heads_shape, relations_shape",
        [
            ((6, 1), (8,)),
            ((1,), (GROUPS_AT,)),
            ((3, 1), (3, GROUPS_AT)),
            ((2, 1, 1), (GROUPS_AT + 3,)),
        ],
    )
    def test_operands_broadcast_as_numpy_would(
        self, server, resident, heads_shape, relations_shape
    ):
        rng = np.random.default_rng(3)
        heads = rng.integers(0, ENTITIES, heads_shape)
        relations = rng.integers(0, RELATIONS, relations_shape)
        assert same_bytes(
            server.relation_service(heads, relations),
            formula(resident, heads, relations),
        )

    @pytest.mark.parametrize("size", SIZES)
    def test_the_pair_count_alone_picks_the_strategy(
        self, store_backed, gathers, transfer_gathers, size
    ):
        rng = np.random.default_rng(size)
        heads = rng.integers(0, ENTITIES, size)
        relations = rng.integers(0, RELATIONS, size)
        store_backed.relation_service(heads, relations)
        matrices = size if size < GROUPS_AT else len(np.unique(relations))
        assert gathers == [("entity_table", size)]
        assert transfer_gathers == [matrices]


class TestBatchCompositionNeverChangesAnItemsBytes:
    @pytest.mark.parametrize("size", BLOCKS)
    def test_a_block_is_its_single_serves(self, server, size):
        ids = np.random.default_rng(size).choice(ITEMS, size)
        singles = [server.serve(int(item)) for item in ids]
        for vectors, single in zip(server.serve_batch(ids), singles):
            assert vectors.entity_id == single.entity_id
            assert same_bytes(vectors.key_relations, single.key_relations)
            assert same_bytes(vectors.triple_vectors, single.triple_vectors)
            assert same_bytes(vectors.relation_vectors, single.relation_vectors)
        assert same_bytes(
            server.serve_sequence_batch(ids),
            np.stack([single.sequence() for single in singles]),
        )
        assert same_bytes(
            server.serve_condensed_batch(ids),
            np.stack([single.condensed() for single in singles]),
        )

    @pytest.mark.parametrize("size", SIZES)
    def test_a_score_batch_is_its_single_scores(self, server, size):
        rng = np.random.default_rng(size)
        heads = rng.integers(0, ENTITIES, size)
        relations = rng.integers(0, RELATIONS, size)
        scores = server.relation_existence_scores(heads, relations)
        assert scores.shape == (size,)
        assert scores.tolist() == [
            server.relation_existence_score(int(head), int(relation))
            for head, relation in zip(heads, relations)
        ]


def test_the_page_cache_sees_the_traffic_it_saw(tmp_path):
    """Exact page traffic of 30 seeded 64-item calls at ``bulk_store``'s
    shape through 64 pages, the cold open included.  The relation and
    transfer tables are walked once at open, so every later fault is an
    entity page."""
    catalog = generate_catalog(
        CatalogConfig(num_categories=24, products_per_category=200, seed=2021)
    )
    model = PKGM(
        len(catalog.entities),
        len(catalog.relations),
        PKGMConfig(dim=32),
        rng=np.random.default_rng(1),
    )
    categories = {item.entity_id: item.category_id for item in catalog.items}
    resident = PKGMServer(model, KeyRelationSelector(catalog.store, categories, k=10))
    resident.save_store(tmp_path / "store", num_shards=4, page_bytes=4096).close()
    server = PKGMServer.from_store(tmp_path / "store", cache_pages=64)
    try:
        items = np.asarray(server.known_items())
        rng = np.random.default_rng(2)
        for call in range(30):
            ids = items[rng.integers(0, len(items), 64)]
            relations = rng.integers(0, server.num_relations, 64)
            if call % 3 == 0:
                server.serve_sequence_batch(ids)
            elif call % 3 == 1:
                server.serve_condensed_batch(ids)
            else:
                server.relation_existence_scores(ids, relations)
        counted = {
            name: server.store.metrics.counter(f"store.{name}").value
            for name in ("page_faults", "bytes_read", "page_evictions", "page_hits")
        }
    finally:
        server.store.close()
    assert counted == {
        "page_faults": 2063,
        "bytes_read": 8_480_912,
        "page_evictions": 1999,
        "page_hits": 23_743,
    }


class TestOneFormulaForSR:
    """``S_R = M_r h − r`` is one ``np.matvec`` per pair wherever it is
    computed; ``einsum`` stays here only as the numeric reference."""

    @pytest.mark.parametrize("size", SIZES)
    def test_the_model_serves_the_servers_bytes(self, selector, size):
        model = PKGM(
            ENTITIES, RELATIONS, PKGMConfig(dim=DIM), rng=np.random.default_rng(0)
        )
        server = PKGMServer(model, selector)
        rng = np.random.default_rng(size)
        heads = rng.integers(0, ENTITIES, size)
        relations = rng.integers(0, RELATIONS, size)
        assert np.array_equal(
            model.service_relation(heads, relations),
            server.relation_service(heads, relations),
        )

    def test_a_bulk_block_is_the_einsum_formula_to_1e_13(self):
        """A seeded 256-item block at ``bulk_ram``'s shape (k = 10, d = 32,
        17 relations), grouped by relation, against the einsum it replaced."""
        catalog = generate_catalog(
            CatalogConfig(num_categories=24, products_per_category=20, seed=2021)
        )
        model = PKGM(
            len(catalog.entities),
            len(catalog.relations),
            PKGMConfig(dim=32),
            rng=np.random.default_rng(4),
        )
        categories = {item.entity_id: item.category_id for item in catalog.items}
        server = PKGMServer(model, KeyRelationSelector(catalog.store, categories, k=10))
        items = np.asarray(server.known_items())
        ids = items[np.random.default_rng(4).integers(0, len(items), 256)]
        relations = np.stack([server.serve(int(item)).key_relations for item in ids])
        heads = np.repeat(ids[:, None], 10, axis=1)
        einsum = np.einsum(
            "...ij,...j->...i",
            server.transfer_tensor[relations],
            server.entity_table[heads],
        )
        expected = einsum - server.relation_table[relations]
        served = server.serve_sequence_batch(ids)[:, 10:]
        assert np.allclose(served, expected, rtol=0.0, atol=1e-13)
