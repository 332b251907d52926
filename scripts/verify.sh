#!/usr/bin/env bash
# Tier-1 verification: what every PR must keep green.
#
#   scripts/verify.sh            # build + tests + clippy + docs + deprecation gate + bench smoke
#   scripts/verify.sh --fast     # build + tests only
#
# Run from anywhere; operates on the workspace containing this script.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

if [[ "${1:-}" != "--fast" ]]; then
    echo "==> clippy"
    cargo clippy --workspace --all-targets -- -D warnings

    # Rustdoc must stay warning-free (broken intra-doc links, etc.).
    echo "==> rustdoc"
    env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

    # No internal caller may use a deprecated entrypoint: everything in
    # the workspace must compile with deprecation warnings promoted to
    # errors.
    echo "==> deprecation gate"
    env RUSTFLAGS="${RUSTFLAGS:-} -D deprecated" cargo check --workspace --all-targets --quiet

    # The benchmark (perfbench/, its own Cargo workspace) calls the
    # library's resolve API, so it must keep compiling against the
    # workspace. Cargo rewrites perfbench's Cargo.lock during the build;
    # restore it so the step leaves perfbench/ byte-identical.
    echo "==> perfbench build"
    PERFBENCH_LOCK="$(mktemp)"
    cp perfbench/Cargo.lock "$PERFBENCH_LOCK"
    perfbench_status=0
    cargo build --release --offline --manifest-path perfbench/Cargo.toml || perfbench_status=$?
    cp "$PERFBENCH_LOCK" perfbench/Cargo.lock
    rm -f "$PERFBENCH_LOCK"
    if [[ $perfbench_status -ne 0 ]]; then
        echo "==> perfbench no longer builds against the workspace"
        exit 1
    fi

    # Drain accounting smoke: every drain (timer, supervisor catch-up,
    # the final flush at stop) runs the daemon's one drain routine, so
    # drain counters, journal records and NMI-window spans agree with
    # the sample database, and a session's journal replays to its
    # database. The sample-file readers must agree on damaged,
    # shuffled and repeated records. Runs before the bench smoke so it
    # is checked even while a bench gate fails.
    echo "==> drain accounting smoke"
    cargo test -q -p oprofile drain
    cargo test -q --test prop_sample_file

    # Resolve equivalence smoke: the flattened, sharded engine must
    # match the per-bucket epoch walk on random sessions, keep its
    # shard sizes a function of bucket content, and keep the
    # per-incarnation breakdown whole when a poisoned shard is
    # quarantined; damaged map text must parse like the plain line
    # rules and tally alike in the batch and live readers. Runs before
    # the bench smoke so it is checked even while a bench gate fails.
    echo "==> resolve equivalence smoke"
    cargo test -q --test prop_resolve_flat
    cargo test -q --test prop_map_text
    cargo test -q --test telemetry resolve
    cargo test -q -p viprof poison

    # Live equivalence smoke: a live snapshot must equal the batch
    # report (rows, quality, incarnations), the cache must reload
    # through the batch loader once when new map files appear and not
    # at all otherwise, and `viprof top`'s final JSON must equal
    # `viprof report`'s. Runs before the bench smoke so it is checked
    # even while a bench gate fails.
    echo "==> live equivalence smoke"
    cargo test -q -p viprof live
    cargo test -q -p viprof --test cli_json top

    # Agent map smoke: the VM agent's epoch maps, journal records,
    # hook charges and counters must equal a plain BTreeMap-and-format!
    # writer's, byte for byte, on crowded hook histories and real heap
    # histories under both move protocols and injected map faults.
    # Runs before the bench smoke so it is checked even while a bench
    # gate fails.
    echo "==> agent map smoke"
    cargo test -q --test prop_epoch_maps oracle

    # Heap payload smoke: an object's payload exists only once a slot
    # is written, so random allocate/write/read/collect histories on
    # the copying, mature and non-moving heaps must read and trace
    # exactly like an eager Vec model, and the golden sessions must stay
    # byte-identical. Runs before the bench smoke so it is checked even
    # while a bench gate fails.
    echo "==> heap payload smoke"
    cargo test -q --test prop_gc
    cargo test -q --test golden_session

    # Overload-governor gate, smoke-sized: a ring small enough to force
    # overflow; the governed run must drop strictly fewer samples than
    # fixed-rate sampling and keep its drop fraction under 5%. Writes
    # results/BENCH_overload.json.
    echo "==> bench_overload --smoke"
    cargo run --release -p viprof-bench --bin bench_overload -- --smoke

    # Trace/lineage smoke: the engine tests that assert lineage totals
    # reconcile with quality, attribute losses to journaled batches,
    # and stay thread-invariant — plus the span-tree/round-trip
    # property tests. Named so tracing regressions fail loudly even when
    # someone filters the main test run.
    echo "==> trace lineage smoke"
    cargo test -q -p viprof lineage
    echo "==> trace property tests"
    cargo test -q --test prop_trace

    # Process-churn smoke: VM restarts, LIFO pid reuse and dead-
    # generation drops under injected faults must stay fully accounted
    # and replay bit-identically, and the 256-case isolation property test
    # must hold (no sample ever resolves across an incarnation
    # boundary). Named here so churn regressions fail loudly even when
    # someone filters the main test run.
    echo "==> churn smoke"
    cargo test -q --test fault_matrix churn
    echo "==> churn isolation property tests"
    cargo test -q --test prop_churn

    # Timeline/health smoke: the telescoping/monotonicity/fixed-point
    # property tests plus the health-rule unit suite, and the governed-burst
    # timeline scenario in the fault matrix. Named so temporal-layer
    # regressions fail loudly even when someone filters the main run.
    echo "==> timeline property tests"
    cargo test -q --test prop_timeline
    echo "==> governed-burst timeline smoke"
    cargo test -q --test fault_matrix timeline

    # Telemetry-schema drift gate: the metric catalog must match the
    # reviewed golden list, so additions/removals fail until the golden
    # file is updated in the same change.
    echo "==> telemetry schema drift check"
    cargo run --release -p viprof --bin viprof -- stat --schema \
        | diff -u scripts/telemetry-schema.txt - \
        || { echo "==> telemetry schema drifted from scripts/telemetry-schema.txt"; exit 1; }

    # Public-API drift gate: the inventory of exported fn/struct names
    # must match the reviewed golden list — intentional surface changes
    # update scripts/api-surface.txt in the same change, accidental
    # ones fail here. (Names only, grep-derived: a cheap tripwire, not
    # a semver checker.)
    echo "==> public API surface drift check"
    grep -rhoE '^[[:space:]]*pub (fn|struct) [A-Za-z_][A-Za-z0-9_]*' \
            crates/*/src src --include='*.rs' \
        | sed -E 's/^[[:space:]]+//' | LC_ALL=C sort | uniq -c \
        | sed -E 's/^[[:space:]]+//' \
        | diff -u scripts/api-surface.txt - \
        || { echo "==> public API surface drifted from scripts/api-surface.txt"; exit 1; }
fi

echo "==> verify OK"
