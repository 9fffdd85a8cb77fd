#!/usr/bin/env bash
# Gate for the benchmark package itself (the repository's own gate is
# scripts/check.sh and does not build this package):
#
#   benchmark/check.sh
#
# fmt, clippy -D warnings, the unit tests, the do-not-name list, and every
# workload in --smoke form under both trace modes, run from the repository
# root the way the driver's command runs them.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
cd "$here"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (all targets, -D warnings)"
cargo clippy --offline --all-targets -q -- -D warnings

echo "==> cargo test"
cargo test --offline -q

echo "==> Cargo.lock has no registry packages"
if grep -n '^source = ' Cargo.lock; then
    echo "error: Cargo.lock names a registry or git source" >&2
    exit 1
fi

echo "==> the sources name nothing ROADMAP lists for deletion"
banned='PartitionedSim|des::window|set_partitions|QueueBackend|with_queue_backend|PathTables|with_path_tables|with_coalescing|NullMetrics|\bMetrics\b|p4update[-_]perf|p4update[-_]explore|\bJson\b|with_analysis_gate'
if grep -nE "$banned" src/*.rs build.rs Cargo.toml; then
    echo "error: the benchmark names a deletion candidate (see README.md)" >&2
    exit 1
fi

echo "==> smoke: every workload, untraced and traced"
cd "$here/.."
bench=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)
for workload in wan-sweep wan-lossy dc-scale lint-churn; do
    for trace in 0 1; do
        "${bench[@]}" --smoke --workload "$workload" --seed 1 --seconds 0 --trace "$trace" \
            | tail -n 1 | grep -q '^{"correct": true, '
        echo "    $workload --trace $trace ok"
    done
done

echo "==> a failing gate exits non-zero without a result line"
if "${bench[@]}" --smoke --workload no-such-workload --seed 1 --seconds 0 --trace 0 \
    > /dev/null 2>&1; then
    echo "error: an unknown workload was accepted" >&2
    exit 1
fi

echo "benchmark/check.sh: all green"
