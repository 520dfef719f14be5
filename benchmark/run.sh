#!/usr/bin/env bash
# Build the benchmark from source and run it. The driver calls
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
# from the root of a checkout; without --workload every workload is run
# several times (see README.md). Cargo output goes to stderr so that the
# JSON result line stays the last line of stdout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR is relative to the caller's directory, for
# cargo and for us alike, so the working directory is left alone.
target="${CARGO_TARGET_DIR:-$here/target}"

workload=""
prev=""
for arg in "$@"; do
    if [[ "$prev" == "--workload" ]]; then
        workload="$arg"
    fi
    prev="$arg"
done

# Two cargo invocations, never one: built together, the armed package's
# `trace` feature would be unified into the plain build.
build() {
    cargo build --release --offline --quiet \
        --manifest-path "$here/Cargo.toml" -p "$1" 1>&2
}

bin=nautix-benchmark
build nautix-benchmark
# armed_repro runs in the trace-feature build (its traced run asks the
# plain sibling for the untraced rate); a run of everything needs both.
if [[ "$workload" == "armed_repro" ]]; then
    build nautix-benchmark-armed
    bin=nautix-benchmark-armed
elif [[ -z "$workload" ]]; then
    build nautix-benchmark-armed
fi

# Pin glibc malloc so that host time and peak memory repeat:
# - One arena. The harness spawns one short-lived worker thread per
#   section and glibc hands each an arena of its own choosing, which made
#   peak memory wander by 20% from run to run. Nothing here allocates from
#   two threads at once, so the one arena's lock is never contended.
# - Fixed mmap and trim thresholds. Left dynamic, whether a freed node's
#   memory goes back to the kernel (and is page-faulted in again by the
#   next Node::new) depends on the order of the process's first large
#   frees: the same binary booted a 2-CPU node in 37 us or 95 us depending
#   on how it had been started.
export MALLOC_ARENA_MAX=1
export MALLOC_MMAP_THRESHOLD_=33554432
export MALLOC_TRIM_THRESHOLD_=1073741824

exec "$target/release/$bin" "$@"
