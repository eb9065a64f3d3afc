#!/bin/sh
# Offline CI gate: formatting, lints and the full test suite.
# Run from the repository root. Fails fast on the first broken step.
#
#   ./ci.sh            the full gate
#   ./ci.sh coverage   per-crate line coverage via cargo-llvm-cov
#                      (gracefully skipped when the tool is not installed)
set -eu

cd "$(dirname "$0")"

if [ "${1:-}" = "coverage" ]; then
    echo "== per-crate coverage (cargo llvm-cov) =="
    if cargo llvm-cov --version >/dev/null 2>&1; then
        # Per-crate numbers: one summary row per workspace crate (the
        # table README.md points at). --offline keeps this hermetic.
        cargo llvm-cov --workspace --offline --summary-only
    else
        echo "cargo-llvm-cov is not installed; skipping coverage."
        echo "Install it on a networked machine with:"
        echo "    cargo install cargo-llvm-cov"
        echo "then re-run: ./ci.sh coverage"
    fi
    exit 0
fi

echo "== cast-ratchet lint: no unchecked 'as u32' in core/mctree sources =="
# Truncating id/count casts were swept in PR9 (use u32::try_from instead);
# this keeps new ones from creeping back into the protocol crates.
if grep -rn ' as u32' crates/core/src crates/mctree/src; then
    echo "unchecked ' as u32' cast in crates/core or crates/mctree; use u32::try_from"
    exit 1
fi

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (warnings are errors) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo test (with backtraces, so panics in threaded tests are diagnosable) =="
RUST_BACKTRACE=1 cargo test --workspace --offline -q

echo "== hierarchy study reproduces results/hierarchy.txt byte for byte =="
cargo run --offline -q --release -p dgmc-experiments --bin hierarchy |
    cmp - results/hierarchy.txt || {
    echo "hierarchy output differs from results/hierarchy.txt"
    exit 1
}

echo "== node e2e (multi-process localhost mesh, ignored tests) =="
cargo build -q --offline --release -p dgmc-node
RUST_BACKTRACE=1 DGMC_NODE_BIN="$PWD/target/release/dgmc-node" \
    cargo test --offline -q --test node_e2e -- --ignored

echo "== localhost mesh smoke (5-node teleconference to convergence) =="
rm -rf results/mesh-smoke
DGMC_NODE_BIN="$PWD/target/release/dgmc-node" \
    cargo run --offline -q --release -p dgmc-node --bin node_e2e -- \
    scenarios/teleconference_mesh.dgmc --out results/mesh-smoke \
    --name mesh_smoke --deadline-secs 60 >results/mesh-smoke.json
grep -q '"invariant_violations":0' results/mesh-smoke.json || {
    echo "mesh smoke reported invariant violations"
    exit 1
}
cost=$(sed -n 's/.*"mc\.1\.tree_cost":\([0-9]*\).*/\1/p' results/mesh-smoke.json)
[ "${cost:-0}" -gt 0 ] || {
    echo "mc.1.tree_cost gauge missing or zero in results/mesh-smoke.json"
    exit 1
}
if command -v pgrep >/dev/null 2>&1; then
    if pgrep -f 'dgmc-node --id' >/dev/null 2>&1; then
        echo "orphan dgmc-node processes left running after the mesh smoke"
        exit 1
    fi
fi

echo "== explorer smoke (fixed seeds, fault-injected invariant check) =="
cargo run --offline -q --release -p dgmc-experiments --bin explore -- --seeds 25 --fail-fast

echo "== parallel explorer smoke (4 workers over the same seeds) =="
cargo run --offline -q --release -p dgmc-experiments --bin explore -- \
    --seeds 25 --jobs 4 --report results/explore-par.json

echo "== serial-vs-parallel report diff gate =="
cargo run --offline -q --release -p dgmc-experiments --bin explore -- \
    --seeds 25 --jobs 1 --report results/explore-serial.json >/dev/null
cmp results/explore-serial.json results/explore-par.json || {
    echo "explorer reports differ between --jobs 1 and --jobs 4"
    exit 1
}

echo "== systematic exploration smoke (4-node ring, 2 concurrent joins) =="
cargo run --offline -q --release -p dgmc-experiments --bin explore -- \
    --systematic --report results/systematic.json
grep -q '"complete":true' results/systematic.json || {
    echo "systematic exploration did not exhaust the 4-node/2-join state space"
    exit 1
}
grep -q '"passed":true' results/systematic.json || {
    echo "systematic exploration found a violation in the clean engine"
    exit 1
}

echo "== systematic serial-vs-parallel report diff gate =="
cargo run --offline -q --release -p dgmc-experiments --bin explore -- \
    --systematic --jobs 4 --report results/systematic-par.json >/dev/null
cmp results/systematic.json results/systematic-par.json || {
    echo "systematic reports differ between default jobs and --jobs 4"
    exit 1
}

echo "== seeded withdrawal bug is caught with a minimized repro bundle =="
rm -rf results/systematic-mutation
if cargo run --offline -q --release -p dgmc-experiments --bin explore -- \
    --systematic --mutate skip-withdrawal --out results/systematic-mutation \
    >/dev/null 2>&1; then
    echo "the skip-withdrawal mutation escaped the systematic checker"
    exit 1
fi
ls results/systematic-mutation/repro-seed-*.json >/dev/null 2>&1 || {
    echo "no minimized repro bundle written for the seeded mutation"
    exit 1
}

echo "== repaired teardown-race scenario explores to exhaustion, clean =="
cargo run --offline -q --release -p dgmc-experiments --bin explore -- \
    --systematic --nodes 3 --joins 1 --leaves 1 \
    --report results/systematic-teardown.json
grep -q '"complete":true' results/systematic-teardown.json || {
    echo "the repaired teardown scenario was not exhausted"
    exit 1
}
grep -q '"passed":true' results/systematic-teardown.json || {
    echo "the repaired engine still violates the teardown scenario"
    exit 1
}

echo "== backward search reaches the seeded violation state (jobs-identical) =="
cargo run --offline -q --release -p dgmc-experiments --bin explore -- \
    --systematic --nodes 3 --joins 1 --leaves 1 --mutate unfenced-teardown \
    --backward --jobs 1 --report results/backward-serial.json >/dev/null 2>&1 || {
    echo "backward search did not reach the seeded violation state"
    exit 1
}
grep -q '"found":true' results/backward-serial.json || {
    echo "backward report does not record the seeded state as found"
    exit 1
}
cargo run --offline -q --release -p dgmc-experiments --bin explore -- \
    --systematic --nodes 3 --joins 1 --leaves 1 --mutate unfenced-teardown \
    --backward --jobs 4 --report results/backward-par.json >/dev/null 2>&1 || {
    echo "parallel backward search did not reach the seeded violation state"
    exit 1
}
cmp results/backward-serial.json results/backward-par.json || {
    echo "backward reports differ between --jobs 1 and --jobs 4"
    exit 1
}

echo "== SPF cache smoke bench (emits results/BENCH_pr3.smoke.json) =="
DGMC_BENCH_SMOKE=1 cargo bench --offline -q -p dgmc-bench --bench cache
test -s results/BENCH_pr3.smoke.json || { echo "results/BENCH_pr3.smoke.json missing or empty"; exit 1; }

echo "== parallel sweep smoke bench (emits results/BENCH_pr4.smoke.json) =="
DGMC_BENCH_SMOKE=1 cargo bench --offline -q -p dgmc-bench --bench sweep
test -s results/BENCH_pr4.smoke.json || { echo "results/BENCH_pr4.smoke.json missing or empty"; exit 1; }

echo "== incremental-SPF smoke bench (emits results/BENCH_pr8.smoke.json, jobs-identical) =="
DGMC_BENCH_SMOKE=1 cargo bench --offline -q -p dgmc-bench --bench incremental -- --jobs 1
test -s results/BENCH_pr8.smoke.json || { echo "results/BENCH_pr8.smoke.json missing or empty"; exit 1; }
grep -q '"churn_gate_ok": true' results/BENCH_pr8.smoke.json || {
    echo "incremental SPF below the 1.5x churn-regime bar"
    exit 1
}
grep -q '"no_pessimization": true' results/BENCH_pr8.smoke.json || {
    echo "a cached scenario ran slower than from-scratch recompute"
    exit 1
}
eq=$(sed -n 's/.*"equivalence_events": \([0-9]*\).*/\1/p' results/BENCH_pr8.smoke.json)
[ "${eq:-0}" -gt 0 ] || {
    echo "no cached-vs-uncached equivalence events were verified"
    exit 1
}
cp results/bench_pr8.report.json results/bench_pr8.report.serial.json
DGMC_BENCH_SMOKE=1 cargo bench --offline -q -p dgmc-bench --bench incremental -- --jobs 4
cmp results/bench_pr8.report.serial.json results/bench_pr8.report.json || {
    echo "bench_pr8 reports differ between --jobs 1 and --jobs 4"
    exit 1
}

echo "== many-MC smoke bench (emits results/BENCH_pr9.smoke.json, jobs-identical) =="
DGMC_BENCH_SMOKE=1 cargo bench --offline -q -p dgmc-bench --bench many_mc -- --jobs 1
test -s results/BENCH_pr9.smoke.json || { echo "results/BENCH_pr9.smoke.json missing or empty"; exit 1; }
grep -q '"many_mc_gate_ok": true' results/BENCH_pr9.smoke.json || {
    echo "arena event path below the 2x many-MC bar"
    exit 1
}
grep -q '"no_pessimization": true' results/BENCH_pr9.smoke.json || {
    echo "an arena scenario ran slower than the pre-arena scan path"
    exit 1
}
cp results/bench_pr9.report.json results/bench_pr9.report.serial.json
DGMC_BENCH_SMOKE=1 cargo bench --offline -q -p dgmc-bench --bench many_mc -- --jobs 4
cmp results/bench_pr9.report.serial.json results/bench_pr9.report.json || {
    echo "bench_pr9 reports differ between --jobs 1 and --jobs 4"
    exit 1
}

echo "== fig6 preset exposes the cache hit-rate counter =="
cargo run --offline -q --release -p dgmc-experiments --bin exp1 -- --quick >/dev/null
grep -q '"spf_cache.hits":' results/exp1.metrics.json || {
    echo "spf_cache.hits counter absent from results/exp1.metrics.json"
    exit 1
}
hits=$(sed -n 's/.*"spf_cache.hits":\([0-9]*\).*/\1/p' results/exp1.metrics.json)
[ "${hits:-0}" -gt 0 ] || { echo "spf_cache.hits is zero for the fig6 preset"; exit 1; }

echo "== exp1 trace export is schema-valid and jobs-independent =="
cargo run --offline -q --release -p dgmc-experiments --bin exp1 -- \
    --quick --jobs 1 >/dev/null
cp results/exp1.trace.json results/exp1.trace.serial.json
cargo run --offline -q --release -p dgmc-experiments --bin exp1 -- \
    --quick --jobs 4 >/dev/null
cmp results/exp1.trace.serial.json results/exp1.trace.json || {
    echo "exp1 trace files differ between --jobs 1 and --jobs 4"
    exit 1
}
cargo run --offline -q --release -p dgmc-experiments --bin trace_check -- \
    results/exp1.trace.json || {
    echo "results/exp1.trace.json failed Chrome trace-event validation"
    exit 1
}

echo "CI OK"
