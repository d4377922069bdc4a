#!/usr/bin/env bash
# Pre-merge gate: tier-1 tests, then the repo's own linter.
#
# Usage: tools/check.sh             (run from the repository root)
#        tools/check.sh --rebless   (run the golden gates, rewrite
#                                   tools/golden/ and stop)
#
# Fails fast: a test failure stops the run before lint; any lint
# finding fails the gate.

set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src
# Pin the chaos suite's fault-plan seed so the gate replays one
# documented fault sequence (override to explore other seeds).
export REPRO_CHAOS_SEED="${REPRO_CHAOS_SEED:-0}"

# What the golden gates do with tools/golden/: compare, or rewrite.
case "${1:-}" in
    "") GOLDEN=compare ;;
    --rebless) GOLDEN=bless ;;
    *) echo "usage: tools/check.sh [--rebless]" >&2; exit 2 ;;
esac

OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT

# byte_gate <name> <verdict-regex> <command...>
# The determinism gate every seeded drill shares: run the command
# twice — two separate processes, never one interpreter — and require
# byte-identical stdout; a non-empty verdict regex must match it too.
# Every step returns its own failure, so the gate does not lean on
# errexit (which bash suspends inside `if`/`&&`/`||` contexts).
# A literal {run} in an argument becomes a per-run scratch directory
# ($OBS_TMP/<name>1, $OBS_TMP/<name>2) for drills that write files.
byte_gate() {
    local name="$1" verdict="$2" run
    shift 2
    for run in 1 2; do
        "${@//\{run\}/$OBS_TMP/$name$run}" > "$OBS_TMP/$name$run.txt" || return
    done
    diff "$OBS_TMP/${name}1.txt" "$OBS_TMP/${name}2.txt" || return
    [ -z "$verdict" ] || grep -q "$verdict" "$OBS_TMP/${name}1.txt"
}

# golden <name>
# Hold $OBS_TMP/<name>1.txt, the first run of byte_gate <name>, to
# tools/golden/<name>.txt: a moved line prints a unified diff and fails,
# unless the gate was run with --rebless, which rewrites the golden
# instead.  A golden blessed under another numpy / machine / BLAS
# fingerprint is skipped with a notice (tools/golden.py).
golden() {
    python tools/golden.py "$GOLDEN" "$1" "$OBS_TMP/${1}1.txt"
}

# The served and trained halves of the goldens: what a server answers
# and what training writes, each run twice and then held to the bytes
# committed under tools/golden/.  A change that moves them on purpose
# reblesses them in the same commit, so its diff shows the lines.
golden_gates() {
    echo
    echo "== served bytes (tools/served_bytes.py, byte-diffed, path to path, golden) =="
    # Every call kind answered from the store — through a 64-page cache and
    # through a one-page cache that evicts on every page — must hash to the
    # resident server's digest for that kind, at seeds 0 and 13.
    local seed
    for seed in 0 13; do
        byte_gate "served_seed$seed" "" python tools/served_bytes.py --seed "$seed" --calls 4
        served_paths_agree "$seed"
        golden "served_seed$seed"
    done
    echo "store and one-page-store answers are the resident bytes at seeds 0 and 13"

    echo
    echo "== trained bytes (tools/trained_bytes.py, byte-diffed, golden) =="
    # The training twin of the served-bytes gate: the three tables, each
    # table's row-sparse Adam state (m, v and the per-row step counts) and
    # every per-shard loss after 30 PKGMTrainer shards, and one NCF fit with
    # weight decay.
    for seed in 0 13; do
        byte_gate "trained_seed$seed" "" python tools/trained_bytes.py --seed "$seed"
        golden "trained_seed$seed"
    done
    echo "trained bytes are identical across reruns at seeds 0 and 13"
}

# served_paths_agree <seed>
# Paths are compared with each other as well as with the goldens, so a
# golden skipped for its fingerprint still leaves the paths held equal.
served_paths_agree() {
    awk '$NF ~ /^[0-9a-f]+$/ && length($NF) == 64 {
            kind = $0
            sub(/^[^ ]+ +/, "", kind)
            sub(/ +[0-9a-f]+$/, "", kind)
            if ($1 == "resident") { want[kind] = $NF; kinds++; next }
            checked++
            if (want[kind] != $NF) { print "seed '"$1"': " $1 " " kind " differs from resident"; bad++ }
        }
        END { exit (bad || kinds == 0 || checked != 2 * kinds) }' "$OBS_TMP/served_seed${1}1.txt"
}

# The seeded drills: each is byte-diffed across two runs and its first
# transcript held to tools/golden/<name>.txt, so a printed byte that
# moves between commits fails as well as one that varies between two
# runs of one commit.
drill_gates() {
    echo
    echo "== overload smoke (repro loadtest, byte-diffed) =="
    # A seeded 8x traffic spike through the serving gateway: must shed
    # instead of raising, finish in well under a minute, and print the
    # same report on a rerun.
    byte_gate loadtest "" python -m repro.cli loadtest --profile spike --requests 2000
    golden loadtest

    echo
    echo "== obs determinism (repro metrics / repro trace, byte-diffed) =="
    # Telemetry must be as reproducible as the computation it measures:
    # the same seeded workload exported twice has to be byte-identical,
    # for the Prometheus text and the Chrome trace JSON alike.
    byte_gate metrics "" python -m repro.cli metrics --preset smoke --requests 400
    golden metrics
    byte_gate trace "" python -m repro.cli trace --preset smoke --format chrome
    golden trace
    # The worker-pool workload surfaces per-worker pool.* series and the
    # idle page sweep's store.* counters; it forks real processes, yet the export must
    # still be byte-identical across reruns.
    byte_gate pool "" python -m repro.cli metrics --workload pool --requests 240
    golden pool
    echo "telemetry exports are byte-identical across reruns"

    echo
    echo "== index determinism (repro index, byte-diffed snapshots) =="
    # Two independent same-seed builds must write byte-identical snapshot
    # directories (every shard and the sealed manifest), and the search
    # CLI must print byte-identical results across reruns.
    for kind in ivf flat; do
        python -m repro.cli index build --preset smoke --kind "$kind" --out "$OBS_TMP/r1/$kind" > /dev/null
        python -m repro.cli index build --preset smoke --kind "$kind" --out "$OBS_TMP/r2/$kind" > /dev/null
        diff -r "$OBS_TMP/r1/$kind" "$OBS_TMP/r2/$kind"
    done
    # An L2 IVF too (its k-means takes means), then every file's SHA-256 is held to a golden.
    for run in r1 r2; do python -m repro.cli index build --preset smoke --kind ivf --metric l2 --out "$OBS_TMP/$run/ivf_l2" > /dev/null; done; diff -r "$OBS_TMP/r1/ivf_l2" "$OBS_TMP/r2/ivf_l2"
    (cd "$OBS_TMP/r1" && find flat ivf ivf_l2 -type f | LC_ALL=C sort | xargs sha256sum) > "$OBS_TMP/index_snapshots1.txt"
    golden index_snapshots
    byte_gate search "" python -m repro.cli index search --preset smoke --kind ivf
    golden search
    byte_gate search_flat "" python -m repro.cli index search --preset smoke --kind flat
    golden search_flat
    echo "index snapshots and search results are byte-identical across reruns"

    echo
    echo "== storage chaos (repro store, byte-diffed recovery) =="
    # Seeded torn-write + bit-flip + torn-manifest drill over a small
    # store: the run must end RECOVERED (manifest refused then restored,
    # every quarantined page repaired from the replica, every item served
    # from the repaired store equal to the in-RAM reference) and the full
    # report — fault offsets, the degraded serves counted by reason
    # (quarantined / unknown-id), scrub/repair accounting, store.* metrics
    # — must be byte-identical across two runs.
    byte_gate chaos "chaos drill: RECOVERED" python -m repro.cli store chaos \
        --preset smoke --dir "{run}" --torn 1 --flips 2 --torn-manifest
    golden chaos
    # Recovery is byte-deterministic on disk too: both repaired stores
    # must match a fresh build file-for-file.
    python -m repro.cli store build --preset smoke --out "$OBS_TMP/chaos-ref" > /dev/null
    for f in "$OBS_TMP"/chaos-ref/*; do
        cmp "$f" "$OBS_TMP/chaos1/primary/$(basename "$f")"
        cmp "$f" "$OBS_TMP/chaos2/primary/$(basename "$f")"
    done
    echo "storage-chaos recovery is byte-identical across reruns"

    echo
    echo "== serve chaos (repro serve, SIGKILL drill, byte-diffed) =="
    # Process-level chaos: a seeded mixed workload over 3 forked workers
    # with 2 SIGKILLs mid-load.  The drill must end RECOVERED (every
    # request answered exactly once, zero duplicates, both deaths detected
    # and restarted) and the transcript — request ids, kinds, outcomes,
    # payload CRCs — must be byte-identical across two runs even though
    # crash timing and replay counts vary between them.
    byte_gate serve "drill: RECOVERED" python -m repro.cli serve chaos \
        --preset smoke --dir "{run}"
    golden serve
    echo "serve-chaos transcript is byte-identical across reruns"

    echo
    echo "== stream chaos (repro stream, crash-mid-ingest drill) =="
    # The delta-ingest drill: run the seeded catalog-delta stream, kill it
    # mid-batch (after segments are on disk but before the next publish),
    # then recover by pure log replay.  The drill byte-compares every
    # store/index/manifest file and the stream.* metrics dump between the
    # recovered directory and an uninterrupted reference run — it must end
    # RECOVERED with zero mismatches, and its transcript must be
    # byte-identical across two independent drills.
    byte_gate stream "stream drill: RECOVERED" python -m repro.cli stream chaos \
        --preset smoke --dir "{run}"
    golden stream
    echo "stream-chaos recovery is byte-identical across reruns"

    echo
    echo "== scenarios workload (explain + recommend, byte-diffed) =="
    # The seeded scenario workload: explanation and recommendation
    # requests through the gateway (with injected unknown-id and expired
    # budgets) and through the forked worker pool.  It must PASS (every
    # request answered, degraded responses typed, every
    # explanation entailed by its cited triples) and the transcript —
    # request ids, outcomes, payload digests, scenarios.* metrics — must
    # be byte-identical across two runs.
    byte_gate scenarios "scenarios workload: PASS" python -m repro.cli \
        scenarios workload --requests 120 --pool-requests 48
    golden scenarios
    echo "scenario workload transcript is byte-identical across reruns"
}

if [ "$GOLDEN" = bless ]; then
    golden_gates
    drill_gates
    echo
    echo "check.sh --rebless: tools/golden/ rewritten; review git diff tools/golden"
    exit 0
fi

echo "== tier-1 tests =="
python -m pytest -x -q

echo
echo "== chaos tests (REPRO_CHAOS_SEED=$REPRO_CHAOS_SEED) =="
python -m pytest -x -q "tests/test_robustness.py::TestChaosTraining" tests/reliability

golden_gates
drill_gates

echo
echo "== repro.lint (per-file + whole-program) =="
# One pass over every Python tree: per-file rules (R009 bans pickle
# imports and allow_pickle=True under src/repro/) plus the
# whole-program passes (import/call graphs, determinism taint,
# concurrency safety, contract checks).  No options, no baseline:
# every finding fails the gate.
python -m repro.lint src tests benchmarks tools

echo
echo "check.sh: all gates passed"
