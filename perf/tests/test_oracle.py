"""The oracle agrees with the program, and a broken comparison fails a run."""

import numpy as np
import pytest

from perf import cli, oracle, runner


def _tables(rng):
    return (
        rng.standard_normal((50, 8)),
        rng.standard_normal((5, 8)),
        rng.standard_normal((5, 8, 8)),
    )


def test_service_references_follow_the_papers_definitions():
    rng = np.random.default_rng(0)
    entity, relation, transfer = tables = _tables(rng)
    ids = np.asarray([3, 17, 3])
    key_relations = np.asarray([[0, 1, 2], [4, 3, 2], [1, 1, 0]])
    rows = np.empty((3, 6, 8))
    for b, (item, relations) in enumerate(zip(ids, key_relations)):
        for j, r in enumerate(relations):
            rows[b, j] = entity[item] + relation[r]
            rows[b, 3 + j] = transfer[r] @ entity[item] - relation[r]
    assert oracle.check_sequence(tables, ids, key_relations, rows)
    condensed = np.concatenate([rows[:, :3], rows[:, 3:]], axis=2).mean(axis=1)
    assert oracle.check_condensed(tables, ids, key_relations, condensed)
    scores = np.abs(rows[:, 3]).sum(axis=-1)
    assert oracle.check_existence(tables, ids, key_relations[:, 0], scores)
    rows[1, 4, 2] += 1e-9
    assert not oracle.check_sequence(tables, ids, key_relations, rows)
    assert not oracle.close(rows[:, :5], rows)  # shape-strict


def test_equal_digests_mean_bit_exact_arrays():
    a = np.arange(6.0).reshape(2, 3)
    digest = oracle.array_digest(a)
    assert oracle.array_digest(a.copy()) == digest
    assert oracle.array_digest(a.T.copy().T) == digest  # layout does not matter
    assert oracle.array_digest(np.nextafter(a, 10.0)) != digest
    assert oracle.array_digest(a.astype(np.float32)) != digest
    assert oracle.array_digest(a.reshape(3, 2)) != digest


def test_recall_and_live_ids():
    vectors = np.asarray([[0.0], [1.0], [2.0], [10.0]])
    ids = np.asarray([7, 8, 9, 10])
    exact = oracle.exact_l1_top_k(vectors, ids, np.asarray([[0.4]]), 2)
    assert exact == [{7, 8}]
    assert oracle.recall_at_k(np.asarray([[7, 9]]), exact) == 0.5
    assert oracle.recall_at_k(np.asarray([[8, 7]]), exact) == 1.0
    assert oracle.only_live(np.asarray([[8, -1]]), ids)
    assert not oracle.only_live(np.asarray([[8, 6]]), ids)  # 6 was never live


def test_losses_must_be_finite_and_improve():
    assert oracle.losses_improved([3.0, 2.5, 2.0, 1.0])[0]
    assert not oracle.losses_improved([1.0, 1.0, 1.0, 1.0])[0]
    assert not oracle.losses_improved([2.0, float("nan"), 1.0, 0.5])[0]


@pytest.fixture
def in_process_passes(monkeypatch):
    """Run passes in this process, so a patched oracle is the one used."""
    monkeypatch.setattr(
        runner,
        "_spawn_pass",
        lambda name, seed, seconds, trace, smoke=False: runner.run_pass(
            name, seed, seconds, trace, smoke
        ),
    )


def test_a_corrupted_oracle_comparison_fails_the_run(
    monkeypatch, capsys, in_process_passes
):
    arguments = ["run", "--workload", "bulk_ram", "--smoke", "--trace", "0"]
    arguments += ["--seconds", "0.2"]
    assert cli.main(arguments) == 0
    assert '"correct": true' in capsys.readouterr().out

    monkeypatch.setattr(oracle, "close", lambda actual, expected: False)
    assert cli.main(arguments) == 1
    out = capsys.readouterr().out
    assert '"correct": false' in out and "failed the oracle" in out
    # Every metric is still printed before the non-zero exit.
    assert "throughput_items_s" in out and "peak_rss_mib" in out
