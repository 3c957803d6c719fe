#!/usr/bin/env bash
# The tier-1 gate, runnable anywhere: formatting, then a fully offline
# release build and test run. The workspace has zero external crate
# dependencies, so CARGO_NET_OFFLINE=true must always succeed — any change
# that reintroduces a network-resolved dependency fails here.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "==> cargo fmt --check"
cargo fmt --check

# Warnings are errors: the crates carry #![warn(missing_docs)] and
# rust_2018_idioms, and clippy runs over every target including tests.
echo "==> cargo clippy -D warnings"
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets -q -- -D warnings
else
    echo "    (clippy not installed; falling back to cargo check)"
    RUSTFLAGS="-D warnings" cargo check --workspace --all-targets -q
fi

# Docs are part of the API surface: #![warn(missing_docs)] everywhere,
# and rustdoc warnings (broken intra-doc links, bad code fences) are
# errors.
echo "==> cargo doc -q (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

echo "==> cargo build --release (offline)"
cargo build --release --workspace

echo "==> cargo test -q (offline)"
cargo test -q --workspace

# Fault-injection and property suites: once with the pinned seed the suite
# is known-green on (reproducible gate), once unpinned (testkit derives a
# fresh seed per process, widening coverage over time). A failure prints
# the LIGER_PROP_SEED to rerun the exact case.
echo "==> fault & property suites (pinned seed)"
LIGER_PROP_SEED=0xfa0175 cargo test -q --test fault_injection --test golden_trace --test recovery_golden --test engine_golden --test recovery
LIGER_PROP_SEED=0xfa0175 cargo test -q -p liger-gpu-sim --test fault_props --test proptests --test core_props
LIGER_PROP_SEED=0xfa0175 cargo test -q -p liger-kvcache --test pool_props --test prefix_props

echo "==> fault & property suites (fresh seed)"
cargo test -q -p liger-gpu-sim --test fault_props --test proptests --test core_props
cargo test -q -p liger-kvcache --test pool_props --test prefix_props
cargo test -q --test recovery

# Prefix/speculation differential gate: the same seeded shared-prefix trace
# with caching and speculation off/on must emit identical token streams,
# sanitize clean healthy and under a device loss, and replay byte-identically
# on a second run.
echo "==> prefix caching differential suite"
cargo test -q --test prefix_caching

# Chaos tier (DESIGN.md §15): >=32 seeded random fault storms — windowed
# outages, rejoins, flaps, stragglers, kernel failures — over continuous
# serving with recovery and re-expansion. Once on the pinned known-green
# seed, once fresh. Release build: each storm runs the real engine against
# a fault-free oracle.
echo "==> chaos storm tier (pinned seed)"
LIGER_PROP_SEED=0xfa0175 cargo test -q --release --test chaos
echo "==> chaos storm tier (fresh seed)"
cargo test -q --release --test chaos

# Repository benchmark (BENCHMARK.json): its own metric math tests, then a
# one-second untraced smoke run of every workload. Each run checks its own
# outputs (completion, bit-identical passes, repeatable allocation counts)
# and prints one JSON line; a non-zero exit or "correct": false fails CI.
# The simulator's host heap must follow the work in flight, not the trace;
# every workload prints its peak. paper-prefill peaks near 0.5 MiB, and
# above 16 MiB its event and collective records are no longer being
# reclaimed (the unbounded tables took 414 MiB). chat-continuous peaks near
# 1.4 MiB, and above 4 MiB freed device-memory allocations are being kept
# again (a 40-byte record per allocation ever made took it to 6 MiB).
# chat-device-loss peaks near 1.9 MiB, and above 4 MiB the health probes
# dropped by its dead device keep full event records again (about 190 B
# each took it to 7.6 MiB, and to 11.5 MiB at other seeds).
# Scheduling rounds must not allocate either: paper-prefill makes about
# 3 allocations per request, and above 16 a per-round or per-layer
# allocation is back (about 180 rounds per request took 313).
# shared-prefix-cluster makes about 34 allocations per request, and above
# 38 prefix eviction rebuilds a set of the index's parents per victim
# again (41).
echo "==> perfbench tests + workload smoke runs"
cargo test -q --manifest-path perfbench/Cargo.toml
for w in paper-prefill chat-continuous shared-prefix-cluster chat-device-loss; do
    result=$(cargo run -q --release --manifest-path perfbench/Cargo.toml -- \
        --workload "$w" --seed 7 --seconds 1 --trace 0 | tail -n 1)
    case "$result" in
        '{"correct": true,'*) echo "    $w: correct" ;;
        *) echo "perfbench $w failed its checks: $result" >&2; exit 1 ;;
    esac
    case "$w" in
        paper-prefill) heap_limit=16 alloc_limit=16 ;;
        chat-continuous) heap_limit=4 alloc_limit=none ;;
        shared-prefix-cluster) heap_limit=none alloc_limit=38 ;;
        chat-device-loss) heap_limit=4 alloc_limit=none ;;
    esac
    heap=$(printf '%s' "$result" |
        sed -n 's/.*"host_peak_heap_mib": {"value": \([0-9.eE+-]*\).*/\1/p')
    if [ -z "$heap" ] || { [ "$heap_limit" != none ] &&
        awk -v h="$heap" -v l="$heap_limit" 'BEGIN { exit !(h > l) }'; }; then
        echo "perfbench $w: host_peak_heap_mib ${heap:-missing} exceeds $heap_limit MiB" >&2
        exit 1
    fi
    echo "    $w: host_peak_heap_mib $heap (limit $heap_limit)"
    if [ "$alloc_limit" != none ]; then
        allocs=$(printf '%s' "$result" |
            sed -n 's/.*"host_allocs_per_req": {"value": \([0-9.eE+-]*\).*/\1/p')
        if [ -z "$allocs" ] ||
            awk -v a="$allocs" -v l="$alloc_limit" 'BEGIN { exit !(a > l) }'; then
            echo "perfbench $w: host_allocs_per_req ${allocs:-missing} exceeds $alloc_limit" >&2
            exit 1
        fi
        echo "    $w: host_allocs_per_req $allocs (limit $alloc_limit)"
    fi
done

# Recovery ablation accounting gate: a short trace through every loss
# scenario x policy; the binary exits non-zero if any request goes missing
# without a recorded shed reason or detection exceeds the watchdog bound.
echo "==> ablation_recovery --smoke"
cargo run --release -q -p liger-bench -- ablation_recovery --smoke

# Batching ablation gate: the same skewed workload through static and
# continuous batching; exits non-zero unless continuous strictly beats
# static on both token throughput and p99 latency, every sequence is
# accounted for, and the healthy + device-loss traces sanitize clean.
echo "==> ablation_batching --smoke"
cargo run --release -q -p liger-bench -- ablation_batching --smoke

# Prefix-caching ablation gate: a skewed shared-prefix workload with the
# cache on must deliver at least 2x the uncached prefill throughput with
# identical outputs, zero sanitizer diagnostics and zero double frees,
# healthy and under a device loss.
echo "==> ablation_prefix --smoke"
cargo run --release -q -p liger-bench -- ablation_prefix --smoke

# Chaos ablation gate: healthy vs degraded vs outage+rejoin on the same
# workload; exits non-zero unless every job is accounted for, outputs match
# the fault-free run, and the rejoin path re-expands back to full width.
echo "==> ablation_chaos --smoke"
cargo run --release -q -p liger-bench -- ablation_chaos --smoke

# Cluster tier (DESIGN.md §17): replica router and disaggregated
# prefill/decode must be byte-identical on a repeat run (every router
# policy, healthy and degraded NIC), survive a replica-loss storm with
# every job accounted for, and keep every per-replica / per-node trace
# sanitizer-clean.
echo "==> cluster serving tier"
cargo test -q -p liger-verify --test cluster_props

# Disaggregation ablation gate: under mixed prompt lengths, the
# prefill/decode split must cut decode p99 vs the colocated
# continuous-batching arm with both nodes' traces sanitizer-clean and the
# streamed KV blocks fully accounted. Once on the pinned default seed,
# once on a fresh one.
echo "==> ablation_disagg --smoke (pinned seed)"
cargo run --release -q -p liger-bench -- ablation_disagg --smoke
DISAGG_SEED=$((RANDOM * 32768 + RANDOM))
echo "==> ablation_disagg --smoke (fresh seed $DISAGG_SEED)"
cargo run --release -q -p liger-bench -- ablation_disagg --smoke --seed "$DISAGG_SEED"

# Every experiment of the library once at its default size (fig10 at
# --quick): a panic or a failed gate in any of them exits non-zero. The
# list is the one the entry point prints when run without arguments.
# About 45 s in release on a 2-vCPU host.
echo "==> every liger-bench experiment at its default size"
experiments=$(cargo run --release -q -p liger-bench 2>&1 | awk '/^  [a-z]/ { print $1 }' || true)
if [ -z "$experiments" ]; then
    echo "liger-bench listed no experiments" >&2
    exit 1
fi
for e in $experiments; do
    if [ "$e" = fig10_general ]; then flags=--quick; else flags=; fi
    echo "    $e $flags"
    cargo run --release -q -p liger-bench -- "$e" $flags >/dev/null
done

# Verification gate: the static plan verifier proves the default
# deployments deadlock-free and memory-feasible (healthy and one-loss
# degraded), and the happens-before sanitizer must report zero diagnostics
# on every checked-in golden trace. Any diagnostic is a non-zero exit.
echo "==> liger-verify plans"
cargo run --release -q -p liger-verify --bin liger-verify -- plans

echo "==> liger-verify golden traces"
cargo run --release -q -p liger-verify --bin liger-verify -- tests/golden/*.json tests/golden/engine/*.json

# Model-checker gate (DESIGN.md §16): DPOR exploration of event
# interleavings. The adversarial battery must reproduce every expected
# MC-* verdict (and nothing else); the five ablation launch programs must
# explore exhaustively with zero diagnostics and a DPOR reduction ratio
# of at least 2x (typically 40-58x — the canonical run plus every
# commutable alternative pruned). Also pinned + fresh-seed soundness
# props: pruned exploration must visit exactly the naive terminal set.
# --min-ratio applies to the ablation programs only: battery cases such as
# racy-reprice contain a real (non-commutable) race, so both schedules are
# explored and a reduction floor would be vacuously unmeetable there.
echo "==> liger-verify explore (adversarial battery)"
cargo run --release -q -p liger-verify --bin liger-verify -- \
    explore battery --bound 512
echo "==> liger-verify explore (ablation programs, reduction >= 2x)"
cargo run --release -q -p liger-verify --bin liger-verify -- \
    explore ablation --bound 512 --min-ratio 2.0

echo "==> model-checker soundness props (pinned + fresh seed)"
LIGER_PROP_SEED=0xfa0175 cargo test -q -p liger-verify --test mc_props --test known_bad
cargo test -q -p liger-verify --test mc_props

echo "ci.sh: all checks passed"
