"""Determinism-taint pass over the seeded ``taint_chain`` corpus.

The corpus wires ``time.time()`` into ``repro.core`` through a
two-module call chain and plants an unseeded ``default_rng()`` directly
inside the boundary; clean twins of both paths must stay unflagged.
"""

import pytest


@pytest.fixture
def result(analyze_corpus):
    return analyze_corpus("taint_chain", select=["determinism-taint"])


def taints(result):
    return [v for v in result.violations if v.rule == "determinism-taint"]


class TestSeededViolations:
    def test_exactly_the_two_seeded_findings(self, result):
        assert [(v.path, v.line) for v in taints(result)] == [
            ("src/repro/core/engine.py", 6),
            ("src/repro/core/noise.py", 6),
        ]
        assert result.exit_code() == 1

    def test_chain_reported_hop_by_hop(self, result):
        [chain] = [v for v in taints(result) if "engine" in v.path]
        assert (
            "repro.core.engine.step -> repro.schedule.backoff -> "
            "repro.jitterlib.jitter -> time.time()" in chain.message
        )

    def test_chain_ends_at_primitive_location(self, result):
        [chain] = [v for v in taints(result) if "engine" in v.path]
        assert chain.message.endswith("[src/repro/jitterlib.py:7]")

    def test_direct_unseeded_rng_inside_boundary(self, result):
        [direct] = [v for v in taints(result) if "noise" in v.path]
        assert "np.random.default_rng() [unseeded]" in direct.message


class TestCleanTwinsUnflagged:
    def test_clean_boundary_functions_not_reported(self, result):
        messages = " ".join(v.message for v in taints(result))
        # clean_step calls the untainted cadence/steady chain;
        # seeded_sample passes an explicit seed to default_rng.
        assert "clean_step" not in messages
        assert "seeded_sample" not in messages

    def test_taint_outside_boundary_not_reported(self, result):
        # jitter/backoff are themselves tainted but live outside the
        # deterministic boundary: only boundary functions are findings.
        assert all(v.path.startswith("src/repro/core/") for v in taints(result))


#: Wall-clock forms in one module of the boundary (``repro.stream``).
#: The last four run when the ``def`` or ``class`` runs, so they taint
#: the enclosing scope rather than the function they decorate or
#: parameterise.
WALL_CLOCK_FORMS = {
    "sleep_time_monotonic": """
        import time

        def bad():
            time.sleep(0.1)
            a = time.time()
            b = time.monotonic()
            return a + b
    """,
    "module_alias": """
        import time as t

        def bad():
            t.sleep(1)
    """,
    "from_import_and_alias": """
        from time import monotonic as mono

        def bad():
            return mono()
    """,
    "perf_counter": """
        import time

        def bad():
            return time.perf_counter()
    """,
    "class_body": """
        import time

        class Clocked:
            STARTED = time.time()
    """,
    "lambda": """
        import time

        stamp = lambda: time.time()
    """,
    "comprehension": """
        import time

        def bad(n):
            return [time.perf_counter() for _ in range(n)]
    """,
    "nested_async_def": """
        import time

        def bad():
            async def inner():
                time.sleep(0)
            return inner
    """,
    "default_argument": """
        import time

        def g(xs=(time.perf_counter(),)):
            return xs
    """,
    "decorator": """
        import time

        def deco(stamp):
            return lambda fn: fn

        @deco(time.time())
        def f():
            return 1
    """,
    "method_default": """
        import time

        class Job:
            def m(self, t=time.time()):
                return t
    """,
    "nested_default": """
        import time

        def bad():
            def inner(t=time.time()):
                return t
            return inner
    """,
}


class TestWallClockForms:
    @pytest.mark.parametrize("form", sorted(WALL_CLOCK_FORMS))
    def test_flagged(self, lint_tree, form):
        result = lint_tree(
            {"src/repro/stream/clocked.py": WALL_CLOCK_FORMS[form]},
            select=["determinism-taint"],
        )
        [finding] = result.violations
        assert finding.path == "src/repro/stream/clocked.py"
        assert "time." in finding.message

    def test_each_tainted_function_reported_once(self, lint_tree):
        # A function with three wall-clock calls is one finding, and
        # the chain names the first primitive it reaches.
        result = lint_tree(
            {"src/repro/stream/clocked.py": WALL_CLOCK_FORMS["sleep_time_monotonic"]},
            select=["determinism-taint"],
        )
        [finding] = result.violations
        assert finding.message.endswith("time.sleep() [src/repro/stream/clocked.py:5]")


class TestWallClockScope:
    SOURCE = """
        import time

        def pause():
            time.sleep(1)
    """

    @pytest.mark.parametrize(
        "package",
        ["index", "obs", "reliability", "scenarios", "serving", "store", "stream"],
    )
    def test_flags_inside_boundary_package(self, lint_tree, package):
        path = f"src/repro/{package}/clocked.py"
        result = lint_tree({path: self.SOURCE}, select=["determinism-taint"])
        assert [v.path for v in result.violations] == [path]

    def test_flags_only_inside_boundary(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/reliability/clocked.py": self.SOURCE,
                "src/repro/analysis/clocked.py": self.SOURCE,
            },
            select=["determinism-taint"],
        )
        assert [v.path for v in result.violations] == [
            "src/repro/reliability/clocked.py"
        ]


class TestWallClockClean:
    @pytest.mark.parametrize(
        "source",
        [
            """
            from repro.reliability.retry import StepClock

            def good(clock: StepClock):
                clock.advance(1.0)
                return clock.now()
            """,
            """
            import time

            def fine():
                return time.strftime("%Y")
            """,
            """
            class Timer:
                def sleep(self):
                    return 0

            def fine(t: Timer):
                return t.sleep()
            """,
            """
            import time

            def g(xs=(1, 2), t=time):
                return xs, t
            """,
        ],
        ids=["virtual_clock", "non_clock_time_attr", "unrelated_names", "plain_defaults"],
    )
    def test_not_flagged(self, lint_tree, source):
        result = lint_tree(
            {"src/repro/reliability/clocked.py": source}, select=["determinism-taint"]
        )
        assert result.violations == []
