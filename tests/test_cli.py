"""Tests for the command-line interface."""

import re
import shlex
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import repro.cli
from repro.cli import PRESETS, build_parser, main

ROOT = Path(__file__).resolve().parent.parent

#: Options deleted because no caller passed them or their subcommand
#: never read them, keyed by an argv that parses without them.
REMOVED = {
    "chaos": "--epochs --shards --workers --rpc-error --crash-batch "
    "--fault-seed --tolerance",
    "loadtest": "--deadline --admit-burst --drain-at",
    "index build --out x": "--block-size --relation --verbose -k --queries",
    "index search": "--block-size --relation --verbose",
    "index eval": "--block-size --relation --verbose --kind",
    "store build --out x": "--shards --page-bytes --cache-pages --verbose",
    "store verify --dir x": "--shards --page-bytes --cache-pages --verbose "
    "--preset --seed",
    "store scrub --dir x": "--shards --page-bytes --cache-pages --verbose "
    "--preset --seed",
    "store chaos --dir x": "--shards --page-bytes --cache-pages --lost-tails "
    "--fault-seed --verbose",
    "serve chaos --dir x": "--window --max-batch --max-delay --store-shards "
    "--page-bytes --scrub-pages",
    "serve loadtest --dir x": "--window --max-batch --max-delay --store-shards "
    "--page-bytes --verbose",
    "scenarios workload": "--verbose",
    "scenarios coldstart": "--cold-fraction --no-ncf --verbose",
    "scenarios explain": "--min-support --min-confidence --verbose",
    "scenarios transfer": "--min-support --min-confidence --verbose",
    "pretrain": "--verbose",
}
#: A value each removed option would have accepted; flags take none.
VALUES = {"--verbose": [], "--no-ncf": [], "--preset": ["smoke"], "--kind": ["flat"]}
REMOVED_PAIRS = [
    (base, option) for base, options in REMOVED.items() for option in options.split()
]


def caller_lines():
    """Every ``python -m repro.cli`` command the docs, CI and gate run.

    Backslash continuations are joined, a shell loop variable takes the
    loop's first value and any other ``$VAR`` a placeholder, and a
    ``{a,b}`` brace list expands to one command per choice.
    """
    for name in ("README.md", ".github/workflows/ci.yml", "tools/check.sh"):
        text = (ROOT / name).read_text()
        loops = dict(re.findall(r"for (\w+) in (\w+)", text))
        lines = iter(enumerate(text.splitlines(), start=1))
        for number, line in lines:
            while line.endswith("\\"):
                line = line[:-1] + next(lines)[1]
            if "python -m repro.cli" not in line:
                continue
            command = line.split("python -m repro.cli", 1)[1].split("`")[0]
            command = re.sub(
                r"\$\{?(\w+)\}?", lambda m: loops.get(m.group(1), "x"), command
            )
            words = []
            for word in shlex.split(command, comments=True):
                if word in ("|", ">", "&&", ";"):
                    break
                words.append(word[1:-1].split(",") if word[:1] == "{" else [word])
            for argv in product(*words):
                yield f"{name}:{number}", list(argv)


CALLERS = list(caller_lines())


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("stats", "pretrain", "classify", "align", "recommend", "complete"):
            args = parser.parse_args([command])
            assert args.command == command
        # chaos injects push drops, RPC errors and crashes only; flags
        # for any other fault family are refused.
        assert parser.parse_args(["chaos", "--push-drop", "0.1"]).push_drop == 0.1
        for flag in ("--pull-delay", "--push-duplicate"):
            with pytest.raises(SystemExit):
                parser.parse_args(["chaos", flag, "0.1"])

    def test_preset_choices(self):
        parser = build_parser()
        args = parser.parse_args(["stats", "--preset", "bench"])
        assert args.preset == "bench"
        with pytest.raises(SystemExit):
            parser.parse_args(["stats", "--preset", "huge"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_align_category_flag(self):
        args = build_parser().parse_args(["align", "--category", "2"])
        assert args.category == 2

    def test_complete_fraction_flag(self):
        args = build_parser().parse_args(["complete", "--fraction", "0.25"])
        assert args.fraction == pytest.approx(0.25)

    def test_presets_are_callables(self):
        for factory in PRESETS.values():
            config = factory()
            assert config.pkgm.dim >= 1

    def test_scenarios_subcommands_registered(self):
        parser = build_parser()
        for sub in ("workload", "coldstart", "explain", "transfer"):
            args = parser.parse_args(["scenarios", sub])
            assert args.command == "scenarios"
            assert args.scenarios_command == sub
        args = parser.parse_args(
            ["scenarios", "workload", "--requests", "40", "--pool-requests", "8"]
        )
        assert (args.requests, args.pool_requests) == (40, 8)
        args = parser.parse_args(["scenarios", "explain", "--kind", "existence"])
        assert args.kind == "existence"
        with pytest.raises(SystemExit):
            parser.parse_args(["scenarios"])

    @pytest.mark.parametrize(
        "base, option", REMOVED_PAIRS, ids=[" ".join(p) for p in REMOVED_PAIRS]
    )
    def test_a_removed_option_is_refused(self, base, option):
        parser = build_parser()
        parser.parse_args(base.split())
        with pytest.raises(SystemExit):
            parser.parse_args(base.split() + [option] + VALUES.get(option, ["1"]))

    def test_sixty_seven_pairs_are_gone(self):
        assert len(REMOVED_PAIRS) == len(set(REMOVED_PAIRS)) == 67

    @pytest.mark.parametrize(
        "argv", [argv for _, argv in CALLERS], ids=[where for where, _ in CALLERS]
    )
    def test_every_documented_invocation_parses(self, argv):
        build_parser().parse_args(argv)

    def test_the_documented_invocations_are_found(self):
        assert len(CALLERS) >= 40
        assert ["serve", "loadtest", "--preset", "smoke", "--dir",
                "/tmp/serveload", "--workers", "2", "--requests", "256"] in [
            argv for _, argv in CALLERS
        ]

    def test_stream_from_checkpoint_flag(self):
        args = build_parser().parse_args(
            ["stream", "run", "--dir", "/tmp/x", "--from-checkpoint", "ckpt"]
        )
        assert args.from_checkpoint == "ckpt"


class TestCommands:
    def test_stats_runs(self, capsys):
        assert main(["stats", "--preset", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "Table IX" in out

    def test_pretrain_saves_server(self, tmp_path, capsys):
        path = tmp_path / "server"
        assert main(["pretrain", "--preset", "smoke", "--save", str(path)]) == 0
        assert (path / "manifest.json").exists()
        from repro.core import PKGMServer

        server = PKGMServer.from_store(path)
        assert server.dim >= 1
        server.store.close()

    def test_complete_runs(self, capsys):
        assert main(["complete", "--preset", "smoke", "--fraction", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "Hit@10" in out

    def test_classify_runs(self, capsys):
        assert main(["classify", "--preset", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "Table IV" in out
        assert "pkgm-all" in out

    def test_align_runs(self, capsys):
        assert main(["align", "--preset", "smoke", "--category", "0"]) == 0
        out = capsys.readouterr().out
        assert "Hit@10" in out
        assert "pkgm-all" in out

    def test_recommend_runs(self, capsys):
        assert main(["recommend", "--preset", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "Table VIII" in out
        assert "pkgm-r" in out

    def test_seed_override_changes_catalog(self, capsys):
        main(["stats", "--preset", "smoke", "--seed", "1"])
        first = capsys.readouterr().out
        main(["stats", "--preset", "smoke", "--seed", "2"])
        second = capsys.readouterr().out
        assert first != second


class TestTelemetryCommands:
    def test_parser_defaults(self):
        met = build_parser().parse_args(["metrics"])
        assert met.command == "metrics"
        assert met.requests == 400
        assert met.format == "prom"
        tra = build_parser().parse_args(["trace"])
        assert tra.command == "trace"
        assert tra.epochs == 2
        assert tra.format == "tree"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["metrics", "--format", "xml"])

    def test_metrics_prometheus_output(self, capsys):
        assert main(["metrics", "--preset", "smoke", "--requests", "150"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE gateway_arrived counter" in out
        assert "# TYPE gateway_latency histogram" in out
        assert 'gateway_latency_bucket{le="+Inf"}' in out
        assert "admission_arrived 150" in out

    def test_metrics_json_output(self, capsys):
        import json

        argv = ["metrics", "--preset", "smoke", "--requests", "150"]
        assert main(argv + ["--format", "json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["gateway.arrived"] == 150
        assert snapshot["admission.arrived"] == 150
        assert snapshot["gateway.swaps"] == 1

    def test_metrics_byte_identical_across_runs(self, capsys):
        argv = ["metrics", "--preset", "smoke", "--requests", "150"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert first == capsys.readouterr().out

    def test_trace_tree_output(self, capsys):
        assert main(["trace", "--preset", "smoke", "--epochs", "1"]) == 0
        out = capsys.readouterr().out
        assert "train.epoch" in out
        assert "phase | calls | steps | tensor-ops | units" in out
        assert "top tensor ops" in out

    def test_trace_chrome_output_is_reproducible(self, capsys):
        import json

        argv = ["trace", "--preset", "smoke", "--epochs", "1", "--format", "chrome"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        payload = json.loads(first)
        assert payload["traceEvents"][0]["name"] == "train.epoch"
        assert main(argv) == 0
        assert first == capsys.readouterr().out


class TestLoadtest:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["loadtest"])
        assert args.command == "loadtest"
        assert args.profile == "spike"
        assert args.requests == 2000
        assert args.replicas == 2
        with pytest.raises(SystemExit):
            build_parser().parse_args(["loadtest", "--profile", "tsunami"])

    def test_runs_and_reports(self, capsys):
        assert main(["loadtest", "--preset", "smoke", "--requests", "300"]) == 0
        out = capsys.readouterr().out
        assert "goodput" in out
        assert "latency p50" in out
        assert "gateway:" in out
        assert "admission:" in out
        assert "drains 2 | swaps 1" in out  # mid-run drain+swap ran

    def test_byte_identical_output_across_runs(self, capsys):
        argv = ["loadtest", "--preset", "smoke", "--requests", "300"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_load_seed_changes_output(self, capsys):
        base = ["loadtest", "--preset", "smoke", "--requests", "300"]
        main(base)
        first = capsys.readouterr().out
        main(base + ["--load-seed", "9"])
        second = capsys.readouterr().out
        assert first != second

    def test_hedging_can_be_disabled(self, capsys):
        argv = [
            "loadtest",
            "--preset",
            "smoke",
            "--requests",
            "300",
            "--hedge-after",
            "0",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "hedges 0 | hedge-wins 0" in out

    def test_verbose_prints_replicas(self, capsys):
        argv = [
            "loadtest",
            "--preset",
            "smoke",
            "--requests",
            "200",
            "--verbose",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "replica-0" in out
        assert "replica-1" in out


class TestIndexCommand:
    def test_parser_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["index", "search"])
        assert args.command == "index"
        assert args.index_command == "search"
        assert args.kind == "ivf"
        assert args.metric == "l1"
        assert args.k == 10
        args = parser.parse_args(["index", "build", "--out", "x"])
        assert args.out == "x"
        with pytest.raises(SystemExit):  # build requires --out
            parser.parse_args(["index", "build"])
        with pytest.raises(SystemExit):  # a subcommand is required
            parser.parse_args(["index"])
        # The IVF-PQ kind and its --m / --ksub options are gone (``--m``
        # now abbreviates --metric, which refuses "8").
        for argv in (["--kind", "ivfpq"], ["--m", "8"], ["--ksub", "16"]):
            with pytest.raises(SystemExit):
                parser.parse_args(["index", "search", *argv])

    def test_build_writes_verified_snapshot(self, tmp_path, capsys):
        out = tmp_path / "idx"
        argv = [
            "index", "build", "--preset", "smoke",
            "--kind", "ivf", "--nlist", "8", "--nprobe", "2",
            "--out", str(out),
        ]
        assert main(argv) == 0
        assert (out / "manifest.json").exists()
        assert not out.with_suffix(".npz").exists()
        printed = capsys.readouterr().out
        assert "ivf index:" in printed
        assert f"snapshot -> {out}" in printed
        from repro.index import load_index

        index = load_index(out)
        assert index.kind == "ivf" and index.ntotal > 0

    def test_search_from_snapshot_matches_fresh_build(
        self, tmp_path, capsys
    ):
        out = tmp_path / "idx"
        main([
            "index", "build", "--preset", "smoke",
            "--kind", "flat", "--out", str(out),
        ])
        capsys.readouterr()
        argv = ["index", "search", "--preset", "smoke", "--kind", "flat"]
        assert main(argv) == 0
        fresh = capsys.readouterr().out
        assert main(argv + ["--snapshot", str(out)]) == 0
        from_snapshot = capsys.readouterr().out
        assert fresh == from_snapshot
        assert "S_T(" in fresh

    def test_search_byte_identical_across_runs(self, capsys):
        argv = ["index", "search", "--preset", "smoke", "--kind", "ivf"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert first == capsys.readouterr().out

    def test_eval_reports_all_kinds(self, capsys):
        argv = ["index", "eval", "--preset", "smoke", "--nlist", "8", "--nprobe", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        rows = out.splitlines()
        assert "recall@10" in rows[0]
        assert [row.split(" | ")[0] for row in rows[1:]] == ["flat", "ivf"]


class TestStoreCommand:
    def test_parser_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["store", "build", "--out", "st"])
        assert args.command == "store"
        assert args.store_command == "build"
        assert args.out == "st"
        args = parser.parse_args(["store", "chaos", "--dir", "w"])
        assert args.torn == 1 and args.flips == 2
        assert args.torn_manifest is False
        with pytest.raises(SystemExit):  # verify requires --dir
            parser.parse_args(["store", "verify"])
        with pytest.raises(SystemExit):  # a subcommand is required
            parser.parse_args(["store"])

    def test_build_then_verify_clean(self, tmp_path, capsys):
        out = tmp_path / "st"
        assert main(["store", "build", "--preset", "smoke", "--out", str(out)]) == 0
        built = capsys.readouterr().out
        assert "entity_table" in built
        assert (out / "manifest.json").exists()
        assert main(["store", "verify", "--dir", str(out)]) == 0
        assert "0 bad" in capsys.readouterr().out

    def test_scrub_flags_corruption(self, tmp_path, capsys):
        out = tmp_path / "st"
        main(["store", "build", "--preset", "smoke", "--out", str(out)])
        capsys.readouterr()
        target = next(iter(sorted(out.glob("entity_table-*.bin"))))
        blob = bytearray(target.read_bytes())
        blob[10] ^= 0xFF
        target.write_bytes(bytes(blob))
        assert main(["store", "scrub", "--dir", str(out)]) == 1
        scrubbed = capsys.readouterr().out
        assert "1 bad" in scrubbed
        assert "quarantined rows" in scrubbed

    def test_verify_refuses_torn_manifest(self, tmp_path, capsys):
        out = tmp_path / "st"
        main(["store", "build", "--preset", "smoke", "--out", str(out)])
        capsys.readouterr()
        manifest = out / "manifest.json"
        manifest.write_bytes(manifest.read_bytes()[:100])
        assert main(["store", "verify", "--dir", str(out)]) == 2
        assert "REFUSED" in capsys.readouterr().out

    def test_builds_are_byte_identical(self, tmp_path, capsys):
        for run in ("r1", "r2"):
            assert main(
                ["store", "build", "--preset", "smoke", "--out", str(tmp_path / run)]
            ) == 0
        capsys.readouterr()
        names = sorted(p.name for p in (tmp_path / "r1").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "r2").iterdir())
        for name in names:
            assert (tmp_path / "r1" / name).read_bytes() == (
                tmp_path / "r2" / name
            ).read_bytes(), name

    def test_chaos_drill_recovers_and_is_deterministic(self, tmp_path, capsys):
        argv = [
            "store", "chaos", "--preset", "smoke",
            "--torn", "1", "--flips", "2", "--torn-manifest",
        ]
        assert main(argv + ["--dir", str(tmp_path / "w1")]) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--dir", str(tmp_path / "w2")]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "chaos drill: RECOVERED" in first
        assert "0 mismatches" in first
        assert "refused torn manifest" in first


class TestDrillsRefuseWhatCannotFire:
    @pytest.mark.parametrize("flag", ["--crash-epoch 99", "--crash-epoch 4 --crash-shard 9"])
    def test_chaos_refuses_an_unreachable_crash_before_the_clean_run(
        self, flag, monkeypatch
    ):
        """8 epochs over 4 shards: epoch 99 or shard 9 never comes up, so
        the drill fails before training instead of passing fault-free."""
        from repro.distributed import DistributedPKGMTrainer

        def train(*_):
            raise AssertionError("a job trained before the crash was refused")

        monkeypatch.setattr(DistributedPKGMTrainer, "train", train)
        with pytest.raises(ValueError, match="can never fire"):
            main(["chaos", "--preset", "smoke", *flag.split()])

    def test_serve_chaos_refuses_more_kills_than_request_slots(self, tmp_path):
        """Three kills over two requests would land two on one index."""
        argv = ["serve", "chaos", "--dir", str(tmp_path), "--requests", "2"]
        with pytest.raises(ValueError, match="repeats"):
            main(argv + ["--kills", "3"])

    def test_serve_chaos_refuses_one_worker_before_writing_the_store(
        self, tmp_path
    ):
        """Two kills over one worker leave no sibling to fail over to:
        the schedule is refused before the store is written."""
        argv = ["serve", "chaos", "--preset", "smoke", "--dir", str(tmp_path)]
        with pytest.raises(ValueError, match="at least 2"):
            main(argv + ["--workers", "1"])
        assert not (tmp_path / "store").exists()

    def test_stream_chaos_refuses_a_kill_past_batches_minus_two(
        self, tmp_path, monkeypatch
    ):
        """12 batches: a kill at batch 99 used to be moved to batch 10."""
        from repro.stream import StreamPipeline

        def run(*_):
            raise AssertionError("a pipeline ran before the kill was refused")

        monkeypatch.setattr(StreamPipeline, "run", run)
        argv = ["stream", "chaos", "--preset", "smoke", "--dir", str(tmp_path)]
        with pytest.raises(ValueError, match="batches - 2 = 10, got 99"):
            main(argv + ["--kill-batch", "99"])


class TestServeLoadtestExitCode:
    @pytest.mark.parametrize("degraded", [0, 1])
    def test_exits_1_unless_every_request_is_ok(
        self, degraded, tmp_path, monkeypatch, capsys
    ):
        import repro.serving
        from repro.serving import ServeLoadReport

        class Pool:
            def __init__(self, *_, **__):
                pass

            def start(self):
                pass

            def shutdown(self):
                pass

        def loadtest(pool, items, config, timer):
            return ServeLoadReport(
                requests=config.requests,
                ok=config.requests - degraded,
                degraded=degraded,
                elapsed=1.0,
                qps=float(config.requests),
                p50=0.001,
                p99=0.002,
                batches=8,
                mean_batch=4.0,
            )

        monkeypatch.setattr(repro.serving, "Supervisor", Pool)
        monkeypatch.setattr(repro.serving, "run_serve_loadtest", loadtest)
        argv = ["serve", "loadtest", "--preset", "smoke", "--dir", str(tmp_path)]
        assert main(argv + ["--requests", "32"]) == degraded
        assert f"ok {32 - degraded} | degraded {degraded}" in capsys.readouterr().out
