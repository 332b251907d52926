#!/usr/bin/env bash
# Tier-1 verification: what every PR must keep green.
#
#   scripts/verify.sh            # build + tests + clippy + docs + deprecation gate + bench smoke
#   scripts/verify.sh --fast     # build + tests only
#
# Run from anywhere; operates on the workspace containing this script.
set -euo pipefail

cd "$(dirname "$0")/.."

# `cargo test -q <args>`, failing when it ran no test: a smoke step
# whose filter matches nothing would otherwise pass while checking
# nothing.
smoke_test() {
    local out ran
    out="$(cargo test -q "$@" 2>&1)" || { printf '%s\n' "$out"; return 1; }
    printf '%s\n' "$out"
    ran="$(printf '%s\n' "$out" | awk '/^test result:/ { n += $4 } END { print n + 0 }')"
    if [[ "$ran" -eq 0 ]]; then
        echo "==> cargo test -q $* ran no test"
        return 1
    fi
}

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
    # drain counters, journal records and drain spans agree with the
    # sample database, and a session's journal replays to its database. The sample-file readers must agree on damaged,
    # shuffled and repeated records, and the journal CRC (carry-less
    # fold where the CPU has it, tables elsewhere) must equal the
    # byte-wise oracle.
    echo "==> drain accounting smoke"
    smoke_test -p oprofile drain
    smoke_test --test prop_sample_file
    smoke_test -p sim-os crc32

    # Resolve equivalence smoke: the flattened, sharded engine must
    # match the per-bucket epoch walk (tests/support/oracle.rs) on
    # hand-built and random sessions, keep its shard sizes a function
    # of bucket content, and keep the per-incarnation breakdown whole
    # when a poisoned shard is quarantined; damaged map text must parse
    # like the plain line rules and tally alike in the batch and live
    # readers.
    echo "==> resolve equivalence smoke"
    smoke_test --test resolve_oracle
    smoke_test --test prop_resolve_flat
    smoke_test --test prop_map_text
    smoke_test --test telemetry resolve
    smoke_test -p viprof poison

    # Live equivalence smoke: a live snapshot must equal the batch
    # report (rows, quality, incarnations), the cache must reload
    # through the batch loader once when new map files appear and not
    # at all otherwise, and `viprof top`'s final JSON must equal
    # `viprof report`'s.
    echo "==> live equivalence smoke"
    smoke_test -p viprof live
    smoke_test -p viprof --test cli_json top

    # Agent map smoke: the VM agent's epoch maps, journal records,
    # hook charges and counters must equal a plain BTreeMap-and-format!
    # writer's, byte for byte, on crowded hook histories and real heap
    # histories under both move protocols and injected map faults.
    echo "==> agent map smoke"
    smoke_test --test prop_epoch_maps oracle

    # Heap payload smoke: an object's payload exists only once a slot
    # is written, so random allocate/write/read/collect histories on
    # the copying, mature and non-moving heaps must read and trace
    # exactly like an eager Vec model, and the golden sessions must stay
    # byte-identical.
    echo "==> heap payload smoke"
    smoke_test --test prop_gc
    smoke_test --test golden_session

    # Trace/lineage smoke: the engine tests that assert lineage totals
    # reconcile with quality, attribute losses to journaled batches,
    # and stay thread-invariant; the one-record-per-drain checks (one
    # drain span and one timeline window per drain, each journal record
    # naming its drain span) on both golden sessions and a supervisor
    # restart; the mutated trace and timeline exports; plus the
    # span-tree/round-trip property tests. Named so tracing regressions
    # fail loudly even when someone filters the main test run.
    echo "==> trace lineage smoke"
    smoke_test -p viprof lineage
    smoke_test --test golden_session one_record_per_drain
    smoke_test --test fault_matrix one_record_per_drain
    smoke_test --test prop_export_bytes
    echo "==> trace property tests"
    smoke_test --test prop_trace

    # Process-churn smoke: VM restarts, LIFO pid reuse and dead-
    # generation drops must stay fully accounted and replay from the
    # journal bit-identically, and the 256-case isolation property test
    # must hold (no sample ever resolves across an incarnation
    # boundary). Named here so churn regressions fail loudly even when
    # someone filters the main test run.
    echo "==> churn smoke"
    smoke_test --test fault_matrix churn
    smoke_test --test fault_matrix killed_vm
    echo "==> churn isolation property tests"
    smoke_test --test prop_churn

    # Timeline/health smoke: the telescoping/monotonicity/fixed-point
    # property tests plus the health-rule unit suite, and the governed-burst
    # timeline scenario in the fault matrix. Named so temporal-layer
    # regressions fail loudly even when someone filters the main run.
    echo "==> timeline property tests"
    smoke_test --test prop_timeline
    echo "==> governed-burst timeline smoke"
    smoke_test --test fault_matrix timeline

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

    # Overload-governor gate, smoke-sized: a ring small enough to force
    # overflow; the governed run must drop strictly fewer samples than
    # fixed-rate sampling and keep its drop fraction under 5%. Writes
    # results/BENCH_overload.json. Runs last, so every step above is
    # checked even while this gate fails.
    echo "==> bench_overload --smoke"
    cargo run --release -p viprof-bench --bin bench_overload -- --smoke
fi

echo "==> verify OK"
