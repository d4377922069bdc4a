"""Concurrent-mutation pass over the seeded ``concurrency`` corpus.

Module-level mutables in ``repro.state`` are mutated from a
``threading.Thread`` target and from the public API of the
``repro.distributed`` package; the read-only accessor stays clean.
"""

import pytest


@pytest.fixture
def result(analyze_corpus):
    return analyze_corpus("concurrency", select=["concurrent-mutation"])


def mutations(result):
    return [v for v in result.violations if v.rule == "concurrent-mutation"]


class TestSeededViolations:
    def test_both_mutated_globals_flagged(self, result):
        flagged = sorted(v.message.split("'")[1] for v in mutations(result))
        assert flagged == ["CACHE", "EVENTS"]
        assert result.exit_code() == 1

    def test_thread_target_entry_with_chain(self, result):
        [cache] = [v for v in mutations(result) if "'CACHE'" in v.message]
        assert "repro.worker.handle -> repro.state.remember" in cache.message
        assert (
            "entry: threading.Thread target at src/repro/worker.py:13"
            in cache.message
        )

    def test_distributed_public_api_entry(self, result):
        [events] = [v for v in mutations(result) if "'EVENTS'" in v.message]
        assert "repro.distributed.shards.push -> repro.state.record" in events.message
        assert (
            "public API of concurrent package 'repro.distributed.shards'"
            in events.message
        )

    def test_mutation_kind_reported(self, result):
        kinds = {v.message.split("mutated (")[1].split(")")[0] for v in mutations(result)}
        assert kinds == {"subscript-assign", "call:append"}


class TestCleanPathsUnflagged:
    def test_readonly_accessor_not_flagged(self, result):
        assert "lookup" not in " ".join(v.message for v in mutations(result))

    def test_immutable_global_not_flagged(self, result):
        # LIMIT is an int: rebinding never happens and it is not a
        # mutable container, so it must not appear.
        assert "'LIMIT'" not in " ".join(v.message for v in mutations(result))

    def test_private_helper_not_an_entry(self, result):
        # repro.distributed.shards._internal is private: not part of
        # the concurrent package's public API.
        assert "_internal" not in " ".join(v.message for v in mutations(result))
