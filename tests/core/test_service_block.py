"""The block kernel against the per-item formulas it replaced.

``reference_serve`` is the per-item service code ``PKGMServer.serve``
used to be — ``E[h] + R[r]`` and ``matvec(T[r], E[h]) − R[r]`` over an
item's key relations, every head repeated k times.  Every serve-shaped
method must equal it byte for byte, on a resident server and on
``from_store`` with a one-page cache, for id batches with duplicates,
empty, and 0-/1-/2-D; and a store-backed block must cost exactly one
store gather, on the entity table, the transfer gather as wide as the
block's strategy makes it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    KeyRelationSelector,
    PKGM,
    PKGMConfig,
    PKGMServer,
)
from repro.core.key_relations import KeyRelationTable
from repro.core.service import _GROUP_AT_PAIRS_PER_RELATION, _StoreBackedServer
from repro.kg import TripleStore
from repro.store import (
    EmbeddingStore,
    QuarantinedRowError,
    StoreTable,
    shard_filename,
)

ENTITIES, RELATIONS, DIM, K = 48, 5, 6, 3
ITEMS = list(range(1, 37, 2))
#: Mapped to a category of its own and head of no triple: the selector
#: knows the entity, but its category has no key relations.
UNANSWERABLE = 40
#: Pairs in a call from which this fixture's projections are grouped by
#: relation: a block of ``ITEMS`` twice (108 pairs) is, ``ITEMS`` once (54) is not.
GROUPS_AT = _GROUP_AT_PAIRS_PER_RELATION * RELATIONS


def reference_serve(tables, key_table, item):
    """One item through the per-item formulas: (key relations, S_T, S_R)."""
    entity_table, relation_table, transfer = tables
    relations = np.asarray(key_table[item], dtype=np.int64)
    heads = np.full(len(relations), item, dtype=np.int64)
    triple = entity_table[heads] + relation_table[relations]
    transformed = np.matvec(transfer[relations], entity_table[heads])
    return relations, triple, transformed - relation_table[relations]


@pytest.fixture(scope="module")
def selector():
    rng = np.random.default_rng(5)
    triples = [
        (item, int(relation), int(rng.integers(0, ENTITIES)))
        for item in ITEMS
        for relation in rng.choice(RELATIONS, size=2, replace=False)
    ]
    categories = {item: item % 4 for item in ITEMS}
    categories[UNANSWERABLE] = 1_000_000
    return KeyRelationSelector(TripleStore(triples), categories, k=K)


@pytest.fixture(scope="module")
def resident(selector):
    model = PKGM(ENTITIES, RELATIONS, PKGMConfig(dim=DIM), rng=np.random.default_rng(0))
    return PKGMServer(model, selector)


@pytest.fixture(scope="module")
def store_backed(resident, tmp_path_factory):
    directory = tmp_path_factory.mktemp("block") / "store"
    # 96-byte pages: two entity rows, two relation rows, a third of a
    # transfer matrix — every block spans many pages of a one-page cache.
    resident.save_store(directory, num_shards=2, page_bytes=96).close()
    server = PKGMServer.from_store(directory, cache_pages=1)
    yield server
    server.store.close()


@pytest.fixture(scope="module", params=["resident", "store_backed"])
def server(request):
    return request.getfixturevalue(request.param)


@pytest.fixture(scope="module")
def oracle(resident, selector):
    tables = (resident.entity_table, resident.relation_table, resident.transfer_tensor)
    key_table = {item: selector.for_item(item) for item in ITEMS}
    return lambda item: reference_serve(tables, key_table, item)


def same_bytes(left, right):
    left, right = np.asarray(left), np.asarray(right)
    return (
        left.dtype == right.dtype
        and left.shape == right.shape
        and left.tobytes() == right.tobytes()
    )


@st.composite
def id_batches(draw):
    """Known item ids with duplicates, in 0-/1-/2-D and empty shapes."""
    shape = draw(
        st.sampled_from([(), (0,), (1,), (7,), (40,), (3, 5), (2, 0), (1, 1)])
    )
    size = int(np.prod(shape, dtype=np.int64))
    flat = draw(st.lists(st.sampled_from(ITEMS), min_size=size, max_size=size))
    return np.asarray(flat, dtype=np.int64).reshape(shape)


class TestAgainstThePerItemFormulas:
    @settings(max_examples=60, deadline=None)
    @given(id_batches())
    def test_every_serve_shape_is_the_reference_bytes(self, server, oracle, ids):
        flat = ids.reshape(-1).tolist()
        expected = [oracle(item) for item in flat]

        batch = server.serve_batch(ids)
        assert [vectors.entity_id for vectors in batch] == flat
        for vectors, (relations, triple, relation) in zip(batch, expected):
            assert same_bytes(vectors.key_relations, relations)
            assert same_bytes(vectors.triple_vectors, triple)
            assert same_bytes(vectors.relation_vectors, relation)
            assert not vectors.degraded

        sequence = server.serve_sequence_batch(ids)
        condensed = server.serve_condensed_batch(ids)
        assert sequence.shape == (len(flat), 2 * K, DIM)
        assert condensed.shape == (len(flat), 2 * DIM)
        for row, (_, triple, relation) in enumerate(expected):
            assert same_bytes(sequence[row], np.concatenate([triple, relation]))
            paired = np.concatenate([triple, relation], axis=1)
            assert same_bytes(condensed[row], paired.mean(axis=0))

        for item in set(flat):
            single = server.serve(item)
            relations, triple, relation = oracle(item)
            assert single.entity_id == item
            assert same_bytes(single.key_relations, relations)
            assert same_bytes(single.sequence(), np.concatenate([triple, relation]))

    def test_empty_batches_are_empty_arrays(self, server):
        assert server.serve_batch([]) == []
        assert same_bytes(server.serve_sequence_batch([]), np.empty((0, 2 * K, DIM)))
        assert same_bytes(server.serve_condensed_batch([]), np.empty((0, 2 * DIM)))

    def test_a_2d_batch_is_flattened(self, server):
        ids = np.asarray([[1, 3], [5, 1]])
        assert same_bytes(
            server.serve_sequence_batch(ids),
            server.serve_sequence_batch([1, 3, 5, 1]),
        )
        assert same_bytes(
            server.serve_condensed_batch(ids),
            server.serve_condensed_batch([1, 3, 5, 1]),
        )
        assert [v.entity_id for v in server.serve_batch(ids)] == [1, 3, 5, 1]


class TestAnItemTheServerCannotAnswerFor:
    def test_is_not_a_known_item(self, selector, server):
        assert UNANSWERABLE in selector.items()
        assert server.known_items() == ITEMS

    def test_serve_raises_the_one_key_error(self, server):
        with pytest.raises(KeyError) as raised:
            server.serve(UNANSWERABLE)
        assert raised.value.args == (f"entity {UNANSWERABLE} is not a known item",)

    def test_snapshot_round_trips(self, resident, store_backed, tmp_path):
        """``save_store`` used to abort on the item's ``KeyError``."""
        assert store_backed.known_items() == resident.known_items()
        assert store_backed.unreadable_items == 0
        store_backed.save_store(tmp_path / "again").close()
        again = PKGMServer.from_store(tmp_path / "again")
        try:
            assert again.known_items() == resident.known_items()
        finally:
            again.store.close()


class TestNegativeIdsAreRefused:
    """numpy and ``StoreTable`` read a negative index from the end; the
    raw services must not answer for that other row."""

    @pytest.mark.parametrize(
        "heads, relations", [([-1], [0]), ([1], [-1]), ([1, -3], [0, 0])]
    )
    def test_raw_services(self, server, heads, relations):
        for service in (server.triple_service, server.relation_service):
            with pytest.raises(IndexError, match="is negative"):
                service(heads, relations)

    def test_scores_and_retrieval(self, server):
        with pytest.raises(IndexError, match="entity id -1 is negative"):
            server.relation_existence_score(-1, 0)
        with pytest.raises(IndexError, match="relation id -1 is negative"):
            server.relation_existence_score(1, -1)
        with pytest.raises(IndexError, match="entity id -1 is negative"):
            server.nearest_tails(-1, 0, 3)

    def test_a_refused_retrieval_builds_no_index(self, selector):
        model = PKGM(ENTITIES, RELATIONS, PKGMConfig(dim=DIM))
        fresh = PKGMServer(model, selector)
        with pytest.raises(IndexError):
            fresh.nearest_tails(ENTITIES, 0, 3)
        assert fresh.tail_index is None


class TestABlockIsNotPinned:
    def test_serve_arrays_own_at_most_their_one_item_block(self, server):
        vectors = server.serve(5)
        for array in (
            vectors.key_relations,
            vectors.triple_vectors,
            vectors.relation_vectors,
        ):
            assert array.base is None or array.base.nbytes == array.nbytes


@pytest.fixture
def gathers(monkeypatch):
    """Every ``read_rows`` call made while the test runs, in order, as
    ``(table, rows asked for)``; a ``read_row`` fails the test."""
    seen = []
    original = EmbeddingStore.read_rows

    def counted(self, name, rows):
        seen.append((name, np.asarray(rows).size))
        return original(self, name, rows)

    monkeypatch.setattr(EmbeddingStore, "read_rows", counted)
    monkeypatch.setattr(
        EmbeddingStore,
        "read_row",
        lambda *args: pytest.fail("a gather read a single row"),
    )
    return seen


@pytest.fixture
def transfer_gathers(store_backed, monkeypatch):
    """The rows of every gather from the store-backed server's transfer
    array while the test runs, in order."""
    seen = []
    transfer = store_backed.transfer_tensor

    class Counted:
        def __getitem__(self, rows):
            seen.append(np.asarray(rows).size)
            return transfer[rows]

    monkeypatch.setattr(store_backed, "_transfer", Counted())
    return seen


class TestOneGatherPerTable:
    """One ``read_rows`` per block, on the entity table: the relation
    and transfer tables were read at open.  The transfer gather holds a
    matrix per pair below ``GROUPS_AT`` pairs and a matrix per distinct
    key relation from it."""

    @pytest.mark.parametrize(
        "ids",
        [[7], [1, 3, 5, 7], [9, 9, 9], list(ITEMS), (ITEMS * 15)[:256]],
    )
    def test_a_block_reads_each_table_once(
        self, store_backed, selector, gathers, transfer_gathers, ids
    ):
        pairs = len(ids) * K
        transfer_rows = pairs
        if pairs >= GROUPS_AT:
            transfer_rows = len(np.unique([selector.for_item(item) for item in ids]))
            assert transfer_rows <= RELATIONS
        for call in (
            store_backed.serve_batch,
            store_backed.serve_sequence_batch,
            store_backed.serve_condensed_batch,
        ):
            gathers.clear()
            transfer_gathers.clear()
            call(ids)
            assert gathers == [("entity_table", len(ids))]
            assert transfer_gathers == [transfer_rows]
        gathers.clear()
        transfer_gathers.clear()
        store_backed.serve(ids[0])
        assert gathers == [("entity_table", 1)]
        assert transfer_gathers == [K]


class TestOnlyTheEntityTableIsPaged:
    """``from_store`` holds ``relation_table`` and ``transfer`` as
    read-only arrays; a table with a damaged page stays behind its view
    and refuses what a server holding three views refuses."""

    def test_a_clean_store_holds_read_only_arrays(self, store_backed, resident):
        assert isinstance(store_backed.entity_table, StoreTable)
        for held, own in (
            (store_backed.relation_table, resident.relation_table),
            (store_backed.transfer_tensor, resident.transfer_tensor),
        ):
            assert type(held) is np.ndarray
            assert not held.flags.writeable
            assert same_bytes(held, own)
            with pytest.raises(ValueError, match="read-only"):
                held[0] = 0

    @pytest.mark.parametrize(
        "table, offset",
        [
            # Two 48-byte relation rows to a 96-byte page: page 1 of shard 0.
            ("relation_table", 96 + 5),
            # One 288-byte matrix to a page: page 1 of shard 0.
            ("transfer", 288 + 5),
        ],
    )
    def test_a_damaged_table_stays_a_view(self, resident, tmp_path, table, offset):
        directory = tmp_path / "store"
        resident.save_store(directory, num_shards=2, page_bytes=96).close()
        path = directory / shard_filename(table, 0)
        blob = bytearray(path.read_bytes())
        blob[offset] ^= 0x04
        path.write_bytes(bytes(blob))

        server = PKGMServer.from_store(directory, cache_pages=1)
        # Every table paged: the damage is found at serve time.
        store = EmbeddingStore.open(directory, cache_pages=1)
        views = _StoreBackedServer(
            *(
                StoreTable(store, name)
                for name in ("entity_table", "relation_table", "transfer")
            ),
            KeyRelationTable(
                store.read_table("item_ids"), store.read_table("key_relations")
            ),
            store=store,
            unreadable_items=0,
        )
        try:
            # Found at open, not at the first serve that touches it.
            assert server.store.quarantined_pages() == [(table, 0, 1)]
            assert server.unreadable_items == 0
            held = {
                "relation_table": server.relation_table,
                "transfer": server.transfer_tensor,
            }
            assert isinstance(held[table], StoreTable)
            (clean,) = (array for name, array in held.items() if name != table)
            assert type(clean) is np.ndarray

            def outcome(call, *args):
                try:
                    return np.asarray(call(*args)).tobytes()
                except QuarantinedRowError as error:
                    return (error.table, error.row, error.shard, error.page)

            served = [
                outcome(lambda item: srv.serve(item).sequence(), item)
                for srv in (server, views)
                for item in ITEMS
            ]
            assert served[: len(ITEMS)] == served[len(ITEMS) :]
            scored = [
                outcome(srv.relation_existence_scores, [item], [relation])
                for srv in (server, views)
                for item in ITEMS
                for relation in range(RELATIONS)
            ]
            half = len(scored) // 2
            assert scored[:half] == scored[half:]
            refused = [answer for answer in scored[:half] if isinstance(answer, tuple)]
            assert 0 < len(refused) < half
            assert {answer[0] for answer in refused} == {table}
            assert outcome(server.serve_sequence_batch, ITEMS * 2) == outcome(
                views.serve_sequence_batch, ITEMS * 2
            )
        finally:
            server.store.close()
            store.close()
