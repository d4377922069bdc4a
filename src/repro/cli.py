"""Command-line interface for the reproduction.

Run the substrate pipeline and any of the paper's experiments without
writing Python:

.. code-block:: console

    python -m repro.cli stats                      # Table II/III/V/IX shapes
    python -m repro.cli pretrain --save server     # pre-train + export server store
    python -m repro.cli classify                   # Table IV
    python -m repro.cli align                      # Tables VI-VII
    python -m repro.cli recommend                  # Table VIII
    python -m repro.cli complete                   # §II-D completion demo
    python -m repro.cli chaos --crash-epoch 4      # fault-injected training
    python -m repro.cli loadtest --profile spike   # overload-serving drill
    python -m repro.cli index build --out idx      # ANN snapshot dir (byte-stable)
    python -m repro.cli index search --snapshot idx # nearest-tail queries
    python -m repro.cli index eval                 # recall/cost vs exact Flat
    python -m repro.cli store build --out st       # out-of-core shard store
    python -m repro.cli store verify --dir st      # CRC-check every page
    python -m repro.cli store scrub --dir st       # CRC-check + quarantine
    python -m repro.cli store chaos --dir work     # corruption-recovery drill
    python -m repro.cli serve chaos --dir work     # SIGKILL exactly-once drill
    python -m repro.cli stream run --dir work      # catalog-delta ingest
    python -m repro.cli stream chaos --dir work    # crash-mid-ingest replay drill
    python -m repro.cli scenarios workload         # gateway+pool scenario gate
    python -m repro.cli scenarios coldstart        # zero-shot recommendation
    python -m repro.cli scenarios explain          # citation-backed reasoning
    python -m repro.cli scenarios transfer         # cross-category rule transfer
    python -m repro.cli metrics --format prom      # telemetry snapshot export
    python -m repro.cli trace --format chrome      # span/profile trace export

Every command but ``store verify`` / ``store scrub`` (which read only
``--dir``) accepts ``--preset {smoke,default,bench}`` and ``--seed``.
A command takes an option only if it reads it and a caller passes it
(directory options are exempt); every other knob, such as the drills'
shard counts, cache sizes and batching, is a literal in its ``cmd_*``
function.  The static-analysis gate is ``python -m repro.lint``.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Optional

import numpy as np

from .config import PRESETS, ExperimentConfig
from .core import PKGM, pretrain_pkgm
from .data import (
    build_alignment_dataset,
    build_classification_dataset,
    generate_interactions,
)
from .kg import holdout_incompleteness, kg_statistics
from .pipeline import build_workbench, untrained_server
from .tasks import (
    ItemClassificationTask,
    ProductAlignmentTask,
    RecommendationTask,
)

VARIANTS = ("base", "pkgm-t", "pkgm-r", "pkgm-all")


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    config = PRESETS[args.preset]()
    if args.seed is not None:
        config = dataclasses.replace(
            config,
            seed=args.seed,
            catalog=dataclasses.replace(config.catalog, seed=args.seed),
        )
    return config


def cmd_stats(args: argparse.Namespace) -> int:
    """Print the dataset-statistics tables (II, III, V, IX shapes)."""
    config = _load_config(args)
    workbench = build_workbench(config, pretrain_mlm=False, verbose=args.verbose)
    stats = kg_statistics(
        workbench.catalog.store, workbench.catalog.entities, workbench.catalog.relations
    )
    print("Table II  :", stats.as_table_row())
    dataset = build_classification_dataset(
        workbench.catalog, workbench.titles, max_per_category=100, seed=5
    )
    print("Table III :", dataset.as_table_row("classification"))
    for index, category in enumerate((0, 1, 2)):
        alignment = build_alignment_dataset(
            workbench.catalog,
            workbench.titles,
            category_id=category,
            ranking_candidates=99,
            seed=11 + category,
        )
        print(f"Table V   : {alignment.as_table_row(f'category-{index + 1}')}")
    interactions = generate_interactions(workbench.catalog, config.interactions)
    print("Table IX  :", interactions.as_table_row())
    return 0


def cmd_pretrain(args: argparse.Namespace) -> int:
    """Pre-train PKGM and optionally export the deployable server."""
    config = _load_config(args)
    workbench = build_workbench(config, pretrain_mlm=False, verbose=True)
    print(
        f"PKGM pre-trained: margin loss "
        f"{workbench.pkgm_history.epoch_losses[0]:.3f} -> "
        f"{workbench.pkgm_history.final_loss:.3f}"
    )
    if args.save:
        workbench.server.save_store(args.save).close()
        print(f"server snapshot written to {args.save}")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    """Run the Table IV experiment."""
    config = _load_config(args)
    workbench = build_workbench(config, verbose=args.verbose)
    dataset = build_classification_dataset(
        workbench.catalog, workbench.titles, max_per_category=100, seed=5
    )
    task = ItemClassificationTask(
        dataset,
        workbench.tokenizer,
        workbench.encoder_config,
        server=workbench.server,
        pretrained_state=workbench.mlm_state,
        config=config.finetune,
    )
    print("Table IV: variant | Hit@1 | Hit@3 | Hit@10 | AC")
    for variant in VARIANTS:
        print(task.run(variant).as_table_row())
    return 0


def cmd_align(args: argparse.Namespace) -> int:
    """Run the Tables VI-VII experiment on one category."""
    config = _load_config(args)
    workbench = build_workbench(config, verbose=args.verbose)
    dataset = build_alignment_dataset(
        workbench.catalog,
        workbench.titles,
        category_id=args.category,
        ranking_candidates=99,
        train_samples_per_pair=4,
        seed=11 + args.category,
    )
    task = ProductAlignmentTask(
        dataset,
        workbench.tokenizer,
        workbench.encoder_config,
        server=workbench.server,
        pretrained_state=workbench.mlm_state,
        config=config.finetune_pair,
    )
    print("variant | category | Hit@1 | Hit@3 | Hit@10   /   accuracy")
    for variant in VARIANTS:
        result = task.run(variant)
        print(f"{result.as_hit_row()}   /   {result.as_accuracy_cell()}")
    return 0


def cmd_recommend(args: argparse.Namespace) -> int:
    """Run the Table VIII experiment."""
    config = _load_config(args)
    workbench = build_workbench(config, pretrain_mlm=False, verbose=args.verbose)
    interactions = generate_interactions(workbench.catalog, config.interactions)
    entity_ids = [item.entity_id for item in workbench.catalog.items]
    task = RecommendationTask(
        interactions, entity_ids, server=workbench.server, config=config.ncf
    )
    print("Table VIII: variant | HR@1/3/5/10/30 | NDCG@1/3/5/10/30")
    for variant in VARIANTS:
        print(task.run(variant).as_table_row())
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Train through the PS simulation under an injected fault plan.

    Runs the same distributed job twice — fault-free, then under the
    requested plan (with retries and crash-consistent checkpointing) —
    and reports the convergence gap plus the fault/retry accounting.
    """
    import tempfile

    from .distributed import DistributedConfig, DistributedPKGMTrainer
    from .reliability import CrashEvent, FaultPlan, RetryPolicy

    config = _load_config(args)
    workbench = build_workbench(config, pretrain_mlm=False, verbose=args.verbose)
    store = workbench.catalog.store
    n_ent = len(workbench.catalog.entities)
    n_rel = len(workbench.catalog.relations)

    def fresh_model():
        return PKGM(n_ent, n_rel, config.pkgm, rng=np.random.default_rng(config.seed))

    dist_config = DistributedConfig(
        epochs=8,
        batch_size=config.pkgm_trainer.batch_size,
        learning_rate=config.pkgm_trainer.learning_rate,
        seed=config.seed,
    )
    crashes = ()
    if args.crash_epoch is not None:
        crashes = (CrashEvent(epoch=args.crash_epoch, batch=0, shard=args.crash_shard),)
    plan = FaultPlan(
        push_drop_prob=args.push_drop, rpc_error_prob=0.02, crashes=crashes
    )
    checkpoint_dir = args.checkpoint_dir or tempfile.mkdtemp(prefix="repro-chaos-")
    # Built first, so a crash the job can never reach is refused before
    # the fault-free run spends its epochs.
    chaotic = DistributedPKGMTrainer(
        fresh_model(),
        dist_config,
        faults=plan,
        retry=RetryPolicy(),
        checkpoint_dir=checkpoint_dir,
        resume=False,
    )
    clean_losses = DistributedPKGMTrainer(fresh_model(), dist_config).train(store)
    chaos_losses = chaotic.train(store)

    gap = abs(chaos_losses[-1] - clean_losses[-1]) / max(abs(clean_losses[-1]), 1e-12)
    print(f"fault plan : {plan.describe()}")
    print(f"checkpoints: {checkpoint_dir}")
    print(
        f"fault-free : first {clean_losses[0]:.4f} -> final {clean_losses[-1]:.4f}"
    )
    print(
        f"faulted    : first {chaos_losses[0]:.4f} -> final {chaos_losses[-1]:.4f}"
    )
    print(f"final-loss gap: {gap:.2%}")
    print(chaotic.fault_stats.as_row())
    print(chaotic.retry_stats.as_row())
    print(
        f"recoveries {chaotic.recoveries} | abandoned batches "
        f"{chaotic.abandoned_batches} | abandoned pushes {chaotic.abandoned_pushes}"
    )
    return 0 if gap <= 0.10 else 1


def cmd_loadtest(args: argparse.Namespace) -> int:
    """Drive the overload gateway with a seeded open-loop traffic profile.

    Builds an untrained PKGM server at the preset's catalog scale
    (overload mechanics do not depend on trained weights), fronts it
    with ``--replicas`` hedging replicas behind the admission
    controller, and replays the requested profile — including a
    ``drain()`` + snapshot swap half-way through.  With a
    fixed ``--seed`` the printed metrics are byte-identical across
    runs; under overload the gateway sheds (degraded payloads), it
    never raises.
    """
    from .reliability import (
        AdmissionConfig,
        GatewayConfig,
        LoadTestConfig,
        PKGMGateway,
        run_loadtest,
    )

    config = _load_config(args)
    _, server = untrained_server(config)
    gateway = PKGMGateway(
        [server] * args.replicas,
        GatewayConfig(
            hedge_after=args.hedge_after if args.hedge_after > 0 else None,
            admission=AdmissionConfig(
                rate=args.admit_rate if args.admit_rate > 0 else None,
                burst=64.0,
                queue_capacity=args.queue_capacity,
            ),
        ),
        seed=args.load_seed,
    )
    report = run_loadtest(
        gateway,
        server.known_items(),
        LoadTestConfig(
            profile=args.profile,
            requests=args.requests,
            base_rate=args.rate,
            seed=args.load_seed,
        ),
    )
    for row in report.as_rows():
        print(row)
    print(gateway.stats.as_row())
    print(gateway.admission.stats.as_row())
    if args.verbose:
        for replica in gateway.replicas:
            print(
                f"{replica.name}: calls {replica.calls} | "
                f"cancelled {replica.cancelled}"
            )
    return 0


def cmd_complete(args: argparse.Namespace) -> int:
    """Demonstrate completion-during-service on held-out facts."""
    config = _load_config(args)
    workbench = build_workbench(config, pretrain_mlm=False, verbose=args.verbose)
    observed, missing = holdout_incompleteness(
        workbench.catalog.store, args.fraction, np.random.default_rng(7)
    )
    model = pretrain_pkgm(
        observed,
        len(workbench.catalog.entities),
        len(workbench.catalog.relations),
        model_config=config.pkgm,
        trainer_config=config.pkgm_trainer,
        seed=config.seed,
    )
    held = missing.to_array()
    service = model.service_triple(held[:, 0], held[:, 1])
    top = model.nearest_entities(service, k=10)
    hit1 = float(np.mean([held[i, 2] == top[i][0] for i in range(len(held))]))
    hit10 = float(np.mean([held[i, 2] in top[i] for i in range(len(held))]))
    print(
        f"completion on {len(held)} held-out facts ({args.fraction:.0%} of KG): "
        f"Hit@1={hit1:.3f} Hit@10={hit10:.3f}"
    )
    return 0


def _index_params(args: argparse.Namespace, seed: int) -> dict:
    """Constructor kwargs for the requested index kind."""
    if args.kind == "flat":
        return {}
    return {"nlist": args.nlist, "nprobe": args.nprobe, "seed": seed}


def cmd_index(args: argparse.Namespace) -> int:
    """Build, query, or evaluate a retrieval index over the entity table.

    ``build`` writes a checksummed snapshot (two same-seed runs are
    byte-identical — the check.sh gate diffs them); ``search`` answers
    nearest-tail queries from a snapshot or a fresh build; ``eval``
    scores IVF against the exact Flat baseline.
    """
    from .index import load_index, save_index

    config = _load_config(args)
    _, server = untrained_server(config)

    if args.index_command == "build":
        index = server.build_tail_index(
            kind=args.kind,
            metric=args.metric,
            **_index_params(args, config.seed),
        )
        directory = save_index(index, args.out)
        print(
            f"{args.kind} index: {index.ntotal} vectors, dim {index.dim}, "
            f"{index.metric}, {index.bytes_per_vector:.0f} bytes/vector"
        )
        print(f"snapshot -> {directory}")
        return 0

    heads = server.known_items()[: args.queries]
    relations = [0] * len(heads)

    if args.index_command == "search":
        if args.snapshot:
            server._tail_index = load_index(args.snapshot)
        else:
            server.build_tail_index(
                kind=args.kind,
                metric=args.metric,
                **_index_params(args, config.seed),
            )
        distances, ids = server.nearest_tails_batch(heads, relations, k=args.k)
        for row, head in enumerate(heads):
            cells = " ".join(
                f"{ids[row][j]}:{distances[row][j]:.6f}"
                for j in range(args.k)
            )
            print(f"S_T({head}, {relations[row]}) -> {cells}")
        return 0

    if args.index_command == "eval":
        flat = server.build_tail_index(kind="flat", metric=args.metric)
        _, exact_ids = server.nearest_tails_batch(
            heads, relations, k=args.k
        )
        flat_dc = flat.metrics.counter(
            "index.search.distance_computations"
        ).value
        print(
            f"kind | recall@{args.k} | distance computations | saving | "
            "bytes/vector"
        )
        print(f"flat | 1.000 | {flat_dc} | 1.0x | {flat.bytes_per_vector:.0f}")
        index = server.build_tail_index(
            kind="ivf",
            metric=args.metric,
            nlist=args.nlist,
            nprobe=args.nprobe,
            seed=config.seed,
        )
        _, ann_ids = server.nearest_tails_batch(heads, relations, k=args.k)
        dc = index.metrics.counter("index.search.distance_computations").value
        recall = float(
            np.mean(
                [
                    len(set(exact_ids[r]) & set(ann_ids[r])) / args.k
                    for r in range(len(heads))
                ]
            )
        )
        print(
            f"ivf | {recall:.3f} | {dc} | {flat_dc / dc:.1f}x | "
            f"{index.bytes_per_vector:.0f}"
        )
        return 0

    raise ValueError(f"unknown index subcommand {args.index_command!r}")


def _store_dir_summary(store) -> None:
    """Deterministic per-table summary lines for store subcommands."""
    for name in store.table_names():
        spec = store.spec(name)
        print(
            f"  {name}: shape {spec.shape} {spec.dtype} | "
            f"{spec.nbytes} bytes | {spec.num_shards} shards (contiguous) | "
            f"{spec.rows_per_page} rows/page"
        )


def cmd_store(args: argparse.Namespace) -> int:
    """Build, verify, scrub, or chaos-drill an embedding store.

    ``build`` persists the deterministic preset-scale server as a
    checksummed shard store (two same-seed builds are byte-identical);
    ``verify`` re-reads every page against its CRC without mutating
    anything; ``scrub`` additionally quarantines damage; ``chaos``
    runs the full storage-failure drill — seeded corruption, serving
    from the damaged store (quarantined and unknown items counted as
    degraded), replica repair — and prints a byte-deterministic report
    the check.sh gate diffs across two runs.
    """
    from pathlib import Path

    from .store import EmbeddingStore, StoreManifestError

    if args.store_command == "build":
        _, server = untrained_server(_load_config(args))
        store = server.save_store(args.out, num_shards=2)
        print(
            f"store -> {args.out}: {len(store.table_names())} tables, "
            f"{store.nbytes} bytes"
        )
        _store_dir_summary(store)
        store.close()
        return 0

    if args.store_command in ("verify", "scrub"):
        try:
            store = EmbeddingStore.open(args.dir, cache_pages=16)
        except StoreManifestError as error:
            print(f"manifest: REFUSED ({error})")
            return 2
        if args.store_command == "scrub":
            report = store.scrub()
            print(report.as_row())
            for name in store.table_names():
                rows = store.quarantined_rows(name)
                if rows:
                    print(f"  {name}: quarantined rows {rows}")
        else:
            report = store.verify()
            print(
                f"verify: {report.pages_scanned} pages scanned | "
                f"{report.pages_bad} bad | damaged {list(report.bad_pages)}"
            )
        store.close()
        return 0 if report.clean else 1

    if args.store_command == "chaos":
        from .obs.metrics import MetricsRegistry
        from .reliability import StorageFaultPlan, inject_storage_faults
        from .store import QuarantinedRowError

        workdir = Path(args.dir)
        primary_dir = workdir / "primary"
        replica_dir = workdir / "replica"
        _, server = untrained_server(_load_config(args))
        for directory in (primary_dir, replica_dir):
            server.save_store(directory, num_shards=2).close()

        plan = StorageFaultPlan(
            torn_writes=args.torn,
            bit_flips=args.flips,
            truncate_manifest=args.torn_manifest,
        )
        fault_stats = inject_storage_faults(primary_dir, plan)
        print(f"plan: {plan.describe()}")
        print(fault_stats.as_row())
        for kind, filename, offset in fault_stats.events:
            print(f"  {kind} {filename} @ {offset}")

        if args.torn_manifest:
            try:
                EmbeddingStore.open(primary_dir)
                print("manifest: ACCEPTED (unexpected)")
                return 1
            except StoreManifestError:
                print("manifest: refused torn manifest; restoring from replica")
                EmbeddingStore.restore_manifest(primary_dir, replica_dir)

        registry = MetricsRegistry()
        from .core import PKGMServer as _PKGMServer

        def open_primary():
            return _PKGMServer.from_store(
                primary_dir, cache_pages=16, registry=registry
            )

        store_server = open_primary()
        scrub = store_server.store.scrub()
        print(scrub.as_row())
        print(f"unreadable selector items: {store_server.unreadable_items}")

        # Serve every item straight from the damaged store; the two
        # errors it can return are counted under the gateway's names.
        items = server.known_items()
        degraded = {"quarantined": 0, "unknown-id": 0}
        for item in items:
            try:
                store_server.serve(item)
            except QuarantinedRowError:
                degraded["quarantined"] += 1
            except (KeyError, IndexError):
                degraded["unknown-id"] += 1
        print(
            f"degraded serve: {len(items)} requests | "
            f"{sum(degraded.values())} degraded | "
            f"quarantined {degraded['quarantined']} | "
            f"unknown-id {degraded['unknown-id']}"
        )

        replica = EmbeddingStore.open(replica_dir)
        repair = store_server.store.repair(replica)
        replica.close()
        print(repair.as_row())
        rescrub = store_server.store.verify()
        print(f"post-repair {rescrub.as_row()}")

        # Reload over the repaired files: quarantined selector rows are
        # readable again, so every item must now serve live and
        # bit-identically to the in-RAM reference server.
        store_server.store.close()
        store_server = open_primary()
        mismatches = 0
        for item in items:
            reference = server.serve(item)
            try:
                recovered = store_server.serve(item)
            except (QuarantinedRowError, KeyError, IndexError):
                mismatches += 1
                continue
            if not (
                np.array_equal(reference.triple_vectors, recovered.triple_vectors)
                and np.array_equal(
                    reference.relation_vectors, recovered.relation_vectors
                )
            ):
                mismatches += 1
        print(f"post-repair serve: {len(items)} requests | {mismatches} mismatches")

        print("metrics:")
        for key, value in sorted(registry.snapshot().items()):
            if key.startswith("store."):
                print(f"  {key} {value}")
        store_server.store.close()
        ok = repair.complete and rescrub.clean and mismatches == 0
        print(f"chaos drill: {'RECOVERED' if ok else 'FAILED'}")
        return 0 if ok else 1

    raise ValueError(f"unknown store subcommand {args.store_command!r}")


def cmd_serve(args: argparse.Namespace) -> int:
    """Drive the supervised multi-process worker pool.

    ``chaos`` runs the process-level kill drill: a seeded mixed
    workload over N forked workers, SIGKILLs at fixed request indices,
    and an exactly-once transcript that is byte-identical across runs
    (stdout carries only deterministic lines — the check.sh gate diffs
    two runs; operational counters go to stderr under ``--verbose``).
    ``loadtest`` measures real wall-clock QPS and latency percentiles,
    so its timing lines are *not* deterministic by design; it exits 1
    unless every request was answered ``ok``.
    """
    import time
    from pathlib import Path

    from .serving import (
        ChaosConfig,
        PoolConfig,
        ServeLoadConfig,
        Supervisor,
        run_kill_drill,
        run_serve_loadtest,
    )

    config = _load_config(args)
    if args.serve_command == "chaos":
        # Refuse a kill schedule that cannot fire before writing the store.
        kills = max(0, args.kills)
        chaos = ChaosConfig(
            requests=args.requests,
            workers=args.workers,
            kill_at=tuple(
                (slot + 1) * args.requests // (kills + 1) for slot in range(kills)
            ),
            kill_workers=tuple(slot % args.workers for slot in range(kills)),
            seed=config.seed,
        )
    store_dir = Path(args.dir) / "store"
    _, server = untrained_server(config)
    server.save_store(store_dir, num_shards=2).close()
    items = server.known_items()

    if args.serve_command == "chaos":
        report = run_kill_drill(store_dir, items, chaos)
        for line in report.lines():
            print(line)
        if args.verbose:
            for line in report.detail_lines():
                print(line, file=sys.stderr)
        return 0 if report.ok else 1

    if args.serve_command == "loadtest":
        pool = Supervisor(
            store_dir,
            # The kill drill's pool: a group flushes four arrivals after
            # it opens (see repro.serving.loadtest.drive).
            PoolConfig(num_workers=args.workers, max_batch=4, max_delay=0.0045),
        )
        pool.start()
        try:
            report = run_serve_loadtest(
                pool,
                items,
                ServeLoadConfig(
                    requests=args.requests, window=8, seed=config.seed
                ),
                timer=time.perf_counter,
            )
        finally:
            pool.shutdown()
        for row in report.as_rows():
            print(row)
        return 0 if report.ok == report.requests else 1

    raise ValueError(f"unknown serve subcommand {args.serve_command!r}")


def cmd_metrics(args: argparse.Namespace) -> int:
    """Run a seeded workload and export its telemetry.

    ``--workload serving`` (the default) drives the single-process
    gateway overload drill; ``--workload pool`` forks the supervised
    worker pool and surfaces the per-worker ``pool.*`` counters plus
    the idle page sweep's ``store.scrub_pages``.  Stdout carries *only*
    the export (Prometheus text or JSON), so two runs with the same
    seed are byte-identical — the check.sh obs gate diffs exactly
    this.  ``--verbose`` adds the workload summary on stderr.
    """
    from .obs import (
        run_metrics_workload,
        run_pool_workload,
        to_json,
        to_prometheus,
    )

    config = _load_config(args)
    if args.workload == "pool":
        registry, summary = run_pool_workload(
            seed=config.seed, requests=args.requests, preset=args.preset
        )
    else:
        registry, report = run_metrics_workload(
            seed=config.seed, requests=args.requests, preset=args.preset
        )
        summary = report.as_rows()
    if args.format == "json":
        print(to_json(registry))
    else:
        print(to_prometheus(registry), end="")
    if args.verbose:
        for row in summary:
            print(row, file=sys.stderr)
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    """Drive the catalog-delta streaming subsystem.

    ``run`` ingests the seeded delta stream over ``--dir`` — appending
    each batch to the write-ahead delta log, warm-starting and
    continual-training stream-born entities, absorbing deltas into the
    ANN index, and publishing versioned snapshots.  ``replay`` runs the
    identical loop over an existing directory: the verified log prefix
    replays instead of regenerating, and stdout must come out
    byte-identical.  ``chaos`` is the crash-mid-ingest drill — a run is
    killed after a batch is logged but before it is absorbed (plus a
    torn half-written segment), recovery replays from the log alone,
    and every artifact, metric, and transcript line is byte-compared
    against a never-crashed control run.

    Stdout carries only deterministic lines (the check.sh / CI gates
    diff two chaos runs); operational detail goes to stderr under
    ``--verbose``.
    """
    from pathlib import Path

    from .stream import (
        StreamPipeline,
        StreamRunConfig,
        run_stream_chaos,
        swap_gateway,
    )

    config = _load_config(args)
    stream_config = StreamRunConfig(
        batches=args.batches, publish_every=args.publish_every
    )
    workdir = Path(args.dir)

    if args.stream_command in ("run", "replay"):
        pipeline = StreamPipeline(
            config,
            workdir,
            stream_config,
            from_checkpoint=getattr(args, "from_checkpoint", None),
        )
        report = pipeline.run()
        for line in report.lines():
            print(line)
        if args.verbose:
            print(
                f"replayed {report.replayed_batches} logged batches",
                file=sys.stderr,
            )
            current = pipeline.versioner.current_version()
            if current is not None:
                from .reliability import PKGMGateway

                gateway = PKGMGateway(
                    [pipeline.versioner.load_server(current)] * 2, seed=config.seed
                )
                server = swap_gateway(gateway, pipeline.versioner, current)
                print(
                    f"swap drill: gateway {gateway.state} over "
                    f"v{current:06d} ({len(server.known_items())} items)",
                    file=sys.stderr,
                )
        return 0

    if args.stream_command == "chaos":
        report = run_stream_chaos(
            config,
            workdir,
            stream_config,
            kill_batch=args.kill_batch,
        )
        for line in report.lines():
            print(line)
        if args.verbose:
            for line in report.detail_lines():
                print(line, file=sys.stderr)
        return 0 if report.ok else 1

    raise ValueError(f"unknown stream subcommand {args.stream_command!r}")


def cmd_scenarios(args: argparse.Namespace) -> int:
    """Zero-shot recommendation + explainable reasoning scenarios.

    ``workload`` runs the seeded two-phase gateway/pool drill whose
    transcript the check.sh / CI scenarios gate byte-diffs across two
    runs; ``coldstart`` multi-task pre-trains PKGM and ranks each
    user's held-out cold item from service vectors alone, against the
    popularity / random / warm-NCF baselines; ``explain`` prints
    citation-backed completion or existence explanations for sample
    items; ``transfer`` measures how rules mined on one category
    subgraph hold on every other.
    """
    from .data import generate_catalog
    from .kg.rules import RuleMiner
    from .scenarios import (
        ColdStartConfig,
        Explainer,
        category_subgraphs,
        evaluate_rule_transfer,
        run_coldstart,
        run_scenarios_workload,
    )

    config = _load_config(args)

    if args.scenarios_command == "workload":
        report = run_scenarios_workload(
            seed=config.seed,
            requests=args.requests,
            pool_requests=args.pool_requests,
            preset=args.preset,
        )
        for line in report.lines():
            print(line)
        return 0 if report.passed else 1

    if args.scenarios_command == "coldstart":
        report, split = run_coldstart(
            config, coldstart=ColdStartConfig(seed=config.seed)
        )
        print(split.summary())
        for line in report.lines():
            print(line)
        return 0

    miner = RuleMiner(min_support=2, min_confidence=0.6)
    if args.scenarios_command == "explain":
        catalog, server = untrained_server(config)
        explainer = Explainer(catalog.store, miner=miner, server=server)
        print(f"mined rules: {explainer.num_rules}")
        printed = 0
        relations = explainer.completer.head_relations()
        for item in catalog.items:
            for relation in relations:
                payload = explainer.explain(
                    item.entity_id, relation, kind=args.kind
                )
                if not payload.predictions:
                    continue
                header = f"({item.entity_id}, {relation}, ?)"
                if payload.kind == "existence":
                    header += f" existence={payload.existence_score:.4f}"
                print(header)
                for value, score in payload.predictions:
                    print(f"  predict {value} (confidence {score:.3f})")
                for cite in payload.citations:
                    head, rel, tail = cite.support
                    print(
                        f"  because ({head}, {rel}, {tail}) and rule "
                        f"({cite.rule.body_relation}={cite.rule.body_value} "
                        f"=> {cite.rule.head_relation}={cite.rule.head_value}, "
                        f"conf {cite.rule.confidence:.2f})"
                    )
                printed += 1
                if printed >= args.queries:
                    break
            if printed >= args.queries:
                break
        print(f"explained {printed} queries")
        return 0

    if args.scenarios_command == "transfer":
        catalog = generate_catalog(config.catalog)
        subgraphs = category_subgraphs(catalog)
        categories = sorted(subgraphs)
        print("rule transfer across category subgraphs")
        for source in categories:
            for target in categories:
                if source == target:
                    continue
                print(
                    evaluate_rule_transfer(
                        subgraphs[source],
                        subgraphs[target],
                        miner=miner,
                        source_category=source,
                        target_category=target,
                    ).as_row()
                )
        return 0

    raise ValueError(f"unknown scenarios subcommand {args.scenarios_command!r}")


def cmd_trace(args: argparse.Namespace) -> int:
    """Run the seeded training workload and export spans + profile.

    ``--format tree`` prints the span tree followed by the phase/op
    profile; ``--format chrome`` prints Chrome ``trace_event`` JSON
    (load it at ``chrome://tracing``).  Same seed, same bytes.
    """
    from .obs import profile_report, run_trace_workload

    config = _load_config(args)
    registry, tracer, profiler, history = run_trace_workload(
        seed=config.seed, epochs=args.epochs, preset=args.preset
    )
    if args.format == "chrome":
        print(tracer.export_chrome())
    else:
        print(tracer.render_tree())
        print()
        print(profile_report(profiler))
    if args.verbose:
        losses = ", ".join(f"{loss:.4f}" for loss in history.epoch_losses)
        print(f"epoch losses: {losses}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro", description="PKGM reproduction command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p.add_argument("--preset", choices=sorted(PRESETS), default="smoke")
        p.add_argument("--seed", type=int, default=None)
        return p

    # common() plus --verbose, for the commands that read it.
    def verbose(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        common(p).add_argument("--verbose", action="store_true")
        return p

    verbose(sub.add_parser("stats", help="dataset statistics tables"))
    pre = common(
        sub.add_parser("pretrain", help="pre-train PKGM, optionally save server")
    )
    pre.add_argument("--save", type=str, default=None, help="server store directory")
    verbose(sub.add_parser("classify", help="Table IV experiment"))
    align = verbose(sub.add_parser("align", help="Tables VI-VII experiment"))
    align.add_argument("--category", type=int, default=0)
    verbose(sub.add_parser("recommend", help="Table VIII experiment"))
    comp = verbose(sub.add_parser("complete", help="completion-during-service demo"))
    comp.add_argument("--fraction", type=float, default=0.15)
    chaos = verbose(
        sub.add_parser(
            "chaos", help="distributed training under an injected fault plan"
        )
    )
    chaos.add_argument("--push-drop", type=float, default=0.1)
    chaos.add_argument("--crash-epoch", type=int, default=None)
    chaos.add_argument("--crash-shard", type=int, default=0)
    chaos.add_argument("--checkpoint-dir", type=str, default=None)
    load = verbose(
        sub.add_parser(
            "loadtest", help="seeded overload drill against the serving gateway"
        )
    )
    load.add_argument(
        "--profile", choices=("sustained", "ramp", "spike"), default="spike"
    )
    load.add_argument("--requests", type=int, default=2000)
    load.add_argument("--rate", type=float, default=400.0)
    load.add_argument("--replicas", type=int, default=2)
    load.add_argument(
        "--hedge-after",
        type=float,
        default=0.05,
        help="hedge a request after this many virtual seconds (<=0 disables)",
    )
    load.add_argument(
        "--admit-rate",
        type=float,
        default=300.0,
        help="token-bucket admit rate per virtual second (<=0 disables)",
    )
    load.add_argument("--queue-capacity", type=int, default=64)
    load.add_argument(
        "--load-seed",
        type=int,
        default=0,
        help="seed for arrivals, priorities and replica latency draws",
    )
    ind = sub.add_parser(
        "index", help="deterministic ANN retrieval over the entity table"
    )
    isub = ind.add_subparsers(dest="index_command", required=True)

    def index_common(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        common(p)
        p.add_argument("--metric", choices=("l1", "l2"), default="l1")
        p.add_argument("--nlist", type=int, default=16)
        p.add_argument("--nprobe", type=int, default=4)
        return p

    def index_kind(p: argparse.ArgumentParser) -> None:
        p.add_argument("--kind", choices=("flat", "ivf"), default="ivf")

    def index_queries(p: argparse.ArgumentParser) -> None:
        p.add_argument("-k", type=int, default=10, help="neighbors per query")
        p.add_argument(
            "--queries", type=int, default=8, help="number of item queries"
        )

    build = index_common(
        isub.add_parser(
            "build", help="build an index and write its checksummed snapshot"
        )
    )
    index_kind(build)
    build.add_argument(
        "--out", type=str, required=True, help="snapshot store directory"
    )
    search = index_common(
        isub.add_parser(
            "search", help="nearest-tail queries from a snapshot or fresh build"
        )
    )
    index_kind(search)
    index_queries(search)
    search.add_argument(
        "--snapshot", type=str, default=None, help="load this snapshot directory"
    )
    index_queries(
        index_common(
            isub.add_parser("eval", help="recall/cost of IVF vs exact Flat")
        )
    )
    met = verbose(
        sub.add_parser(
            "metrics", help="seeded serving workload, metrics snapshot export"
        )
    )
    met.add_argument("--requests", type=int, default=400)
    met.add_argument("--format", choices=("prom", "json"), default="prom")
    met.add_argument(
        "--workload",
        choices=("serving", "pool"),
        default="serving",
        help="serving = gateway overload drill; pool = forked worker pool",
    )
    tra = verbose(
        sub.add_parser("trace", help="seeded training run, span and profile export")
    )
    tra.add_argument("--epochs", type=int, default=2)
    tra.add_argument("--format", choices=("tree", "chrome"), default="tree")
    sto = sub.add_parser(
        "store", help="crash-safe out-of-core embedding store operations"
    )
    ssub = sto.add_subparsers(dest="store_command", required=True)
    sbuild = common(
        ssub.add_parser(
            "build", help="persist the preset server as a checksummed shard store"
        )
    )
    sbuild.add_argument("--out", type=str, required=True, help="store directory")
    sverify = ssub.add_parser(
        "verify", help="CRC-check every page without mutating anything"
    )
    sverify.add_argument("--dir", type=str, required=True, help="store directory")
    sscrub = ssub.add_parser(
        "scrub", help="CRC-check every page, quarantining damage"
    )
    sscrub.add_argument("--dir", type=str, required=True, help="store directory")
    schaos = common(
        ssub.add_parser(
            "chaos",
            help="seeded corruption + degraded serving + replica repair drill",
        )
    )
    schaos.add_argument(
        "--dir", type=str, required=True, help="work directory for the drill"
    )
    schaos.add_argument("--torn", type=int, default=1, help="torn shard writes")
    schaos.add_argument("--flips", type=int, default=2, help="single-bit flips")
    schaos.add_argument(
        "--torn-manifest",
        action="store_true",
        help="also truncate the manifest (restored from the replica)",
    )
    srv = sub.add_parser(
        "serve", help="supervised multi-process worker pool drills"
    )
    srvsub = srv.add_subparsers(dest="serve_command", required=True)

    def serve_common(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        common(p)
        p.add_argument(
            "--dir", type=str, required=True, help="work directory for the store"
        )
        p.add_argument("--workers", type=int, default=3)
        p.add_argument("--requests", type=int, default=240)
        return p

    srvchaos = serve_common(
        srvsub.add_parser(
            "chaos",
            help="SIGKILL workers mid-load; assert exactly-once responses",
        )
    )
    srvchaos.add_argument("--verbose", action="store_true")
    srvchaos.add_argument(
        "--kills", type=int, default=2, help="workers to SIGKILL mid-drill"
    )
    serve_common(
        srvsub.add_parser(
            "loadtest", help="wall-clock QPS and latency percentiles for the pool"
        )
    )
    stm = sub.add_parser(
        "stream", help="deterministic catalog-delta ingest drills"
    )
    stmsub = stm.add_subparsers(dest="stream_command", required=True)

    def stream_common(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        verbose(p)
        p.add_argument(
            "--dir", type=str, required=True, help="stream run directory"
        )
        p.add_argument("--batches", type=int, default=12)
        p.add_argument("--publish-every", type=int, default=4)
        return p

    stmrun = stream_common(
        stmsub.add_parser(
            "run", help="ingest the seeded delta stream (resumes from the log)"
        )
    )
    stmrun.add_argument(
        "--from-checkpoint",
        type=str,
        default=None,
        help="seed the pipeline tables from a trained PKGMServer store "
        "directory (e.g. from `repro pretrain --save`)",
    )
    stream_common(
        stmsub.add_parser(
            "replay", help="re-run over an existing log; identical stdout"
        )
    )
    stmchaos = stream_common(
        stmsub.add_parser(
            "chaos", help="crash mid-ingest, replay to byte-identical state"
        )
    )
    stmchaos.add_argument(
        "--kill-batch", type=int, default=3, help="batch index the kill lands on"
    )
    scn = sub.add_parser(
        "scenarios",
        help="zero-shot recommendation + explainable reasoning drills",
    )
    scnsub = scn.add_subparsers(dest="scenarios_command", required=True)
    swork = common(
        scnsub.add_parser(
            "workload",
            help="seeded gateway+pool scenario drill (byte-diffed by the gate)",
        )
    )
    swork.add_argument("--requests", type=int, default=160)
    swork.add_argument("--pool-requests", type=int, default=96)
    common(
        scnsub.add_parser(
            "coldstart", help="zero-shot ranking of cold items vs baselines"
        )
    )
    sexp = common(
        scnsub.add_parser(
            "explain", help="citation-backed completion/existence explanations"
        )
    )
    sexp.add_argument(
        "--kind", choices=("completion", "existence"), default="completion"
    )
    sexp.add_argument("--queries", type=int, default=5)
    common(
        scnsub.add_parser(
            "transfer", help="precision/coverage of rules across categories"
        )
    )
    return parser


COMMANDS = {
    "stats": cmd_stats,
    "pretrain": cmd_pretrain,
    "classify": cmd_classify,
    "align": cmd_align,
    "recommend": cmd_recommend,
    "complete": cmd_complete,
    "chaos": cmd_chaos,
    "loadtest": cmd_loadtest,
    "index": cmd_index,
    "store": cmd_store,
    "serve": cmd_serve,
    "stream": cmd_stream,
    "scenarios": cmd_scenarios,
    "metrics": cmd_metrics,
    "trace": cmd_trace,
}


def main(argv: Optional[list] = None) -> int:
    """Entry point: dispatch to the selected subcommand."""
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
