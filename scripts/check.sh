#!/usr/bin/env bash
# Tier-1 gate: everything must pass before a change ships.
#
#   scripts/check.sh
#
# Runs the document budgets (CHANGES.md at most 40,000 bytes with no line
# over 1,500, DESIGN.md at most 50,000: one home per fact, the raw runs live
# in RUNS.md), formatting, the debug-only-check grep, the `Rc<Topology>` and
# `dyn SwitchLogic` greps,
# the grep for per-link maps keyed by node pairs, the clippy lint wall, rustdoc with warnings denied, the full offline test suite, the static plan linter over its sample plans
# (including the mutated ones, which must make it exit non-zero; both outputs
# must equal the pinned text in tests/lint_cli/), the five
# examples that assert or print the paper's claims (any non-zero exit fails),
# the corpus and explorer smokes (P4Update's Fig. 2 scenario runs every
# schedule within two deviations from the default, and the traces the
# explorer writes must equal tests/corpus/), the ft512 lint pass's and world's
# heap-footprint counts (which a deep topology copy, a per-switch map or a
# retained batch-sized buffer fails) and the exact allocation requests of
# one `multi_flow` call on Chinanet and on ft512 (which a per-query path
# search buffer or a voided attempt's gravity masses fail; well under a
# second, so FAST=1 runs it too), the large fat-tree tests (among them
# `dc-scale`'s two heap high-water marks on ft4096 and the nodes an ft4096
# batch's reverse searches settle), the experiment means
# EXPERIMENTS.md quotes (the timing sweep's among them) and B4's backward-segment claim, the explorer's
# completeness table (the deviation bound every registered scenario and
# every byzantine smoke variant is exhausted to, and in how many runs),
# the benchmark's WAN cells with P4Update violation-free, P4Update
# stranding a flow only where no atomic order exists, the root
# property suites (the trace and wire parsers' mutation fuzz among them)
# and the differentials — `segment_update` against Algorithm 2's
# construction, the incremental checker against
# its from-scratch oracle, the path solver (uniform-latency graphs among
# them), the reverse search's potential (exact at every source, capped
# elsewhere), the centroid under its
# eccentricity bounds, the bridge classification and `multi_flow` against their oracles,
# the one radix heap (the event queue and every path search's) against a
# `BinaryHeap` model, the latency rows against the oracle's Dijkstra,
# the UIB against its map model, `reanalyze` against `analyze` and the
# pairwise oracle — at 16x the default case count, and the benchmark
# package's own gate.
set -euo pipefail
cd "$(dirname "$0")/.."

# Any cargo build of the benchmark package rewrites the stale
# `p4update-pipeline` edge in its lock file, and nothing under benchmark/
# may change: put the file back as it was, however the script ends.
tmpdir="$(mktemp -d)"
cp benchmark/Cargo.lock "$tmpdir/benchmark-Cargo.lock"
trap 'cmp -s "$tmpdir/benchmark-Cargo.lock" benchmark/Cargo.lock \
    || cp "$tmpdir/benchmark-Cargo.lock" benchmark/Cargo.lock; rm -rf "$tmpdir"' EXIT

# The documents keep one home per fact: a PR's line in CHANGES.md says what
# changed and points at RUNS.md for the runs, and DESIGN.md describes the
# design as it is, not its history. Cheapest step first, and FAST=1 runs it.
echo "==> document budgets (CHANGES.md <= 40000 bytes, lines <= 1500; DESIGN.md <= 50000)"
budget_ok=1
if (( $(wc -c < CHANGES.md) > 40000 )); then
    echo "error: CHANGES.md is $(wc -c < CHANGES.md) bytes (budget 40000)" >&2
    budget_ok=0
fi
if LC_ALL=C awk 'length($0) > 1500 { printf "error: CHANGES.md line %d is %d bytes (budget 1500)\n", NR, length($0); bad = 1 }
        END { exit !bad }' CHANGES.md >&2; then
    budget_ok=0
fi
if (( $(wc -c < DESIGN.md) > 50000 )); then
    echo "error: DESIGN.md is $(wc -c < DESIGN.md) bytes (budget 50000)" >&2
    budget_ok=0
fi
(( budget_ok )) || exit 1

echo "==> cargo fmt --check"
cargo fmt --check

# Invariants hold in the release profile too: no check in the library, its
# tests or its examples depends on the build profile. (benchmark/ is a
# package of its own and keeps its one instance.)
echo "==> no debug-only check under crates/ src/ tests/ examples/"
if grep -rn 'debug_assert\|cfg!(debug_assertions)' crates/ src/ tests/ examples/; then
    echo "error: a check that holds in debug builds only (make it an assert!)" >&2
    exit 1
fi

# A `Topology` is itself the shared handle (DESIGN.md section 3): a wrapper
# around one is the second copy of the graph on its way back.
echo "==> no Rc<Topology> under crates/ (clone the handle)"
if grep -rn 'Rc<Topology>' crates/; then exit 1; fi

# A switch holds its system's logic by value (`p4update_sim::SwitchImpl`,
# DESIGN.md section 10). The trait object survives only as the chassis's
# default type parameter, which the benchmark's bare `&mut Switch` needs.
echo "==> no dyn SwitchLogic under crates/ src/ tests/ examples/ (use SwitchImpl)"
if grep -rn 'dyn SwitchLogic' crates/ src/ tests/ examples/ \
    | grep -v '^crates/dataplane/src/switch\.rs:'; then
    echo "error: a boxed or borrowed switch logic trait object (hold the logic by value)" >&2
    exit 1
fi

# Per-directed-link state is one value per arc id (`p4update_net::ArcMap`,
# DESIGN.md section 3): a map keyed by node pairs is the tree node per link
# on its way back.
echo "==> no BTreeMap<(NodeId, NodeId) under crates/ src/ examples/ (use ArcMap)"
if grep -rn 'BTreeMap<(NodeId, NodeId)' crates/ src/ examples/; then
    echo "error: per-link state keyed by node pairs (use p4update_net::ArcMap)" >&2
    exit 1
fi

echo "==> cargo clippy (workspace, all targets, -D warnings)"
cargo clippy --workspace --all-targets -q -- -D warnings

# A doc link to a renamed or deleted item is a warning rustdoc alone sees.
echo "==> cargo doc (workspace, -D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> cargo build --release"
cargo build --release -q

echo "==> cargo test (workspace)"
cargo test --workspace -q

# The CLI's text is pinned: a finding, its order or its rendering that
# moves shows here as a diff against tests/lint_cli/.
echo "==> p4update-lint over sample plans (must be error-free, output as pinned)"
cargo run -q --example p4update_lint > "$tmpdir/lint-sample.out"
diff -u tests/lint_cli/sample.out "$tmpdir/lint-sample.out"

echo "==> p4update-lint over mutated plans (must flag errors, output as pinned)"
if cargo run -q --example p4update_lint -- --mutate > "$tmpdir/lint-mutate.out"; then
    echo "error: the lint binary accepted corrupted plans" >&2
    exit 1
fi
diff -u tests/lint_cli/mutate.out "$tmpdir/lint-mutate.out"

# `quickstart`, `inconsistent_update`, `wan_migration` and
# `congestion_multiflow` assert the paper's claims and `fast_forward` prints
# Fig. 4's; together they take well under a second, so FAST=1 runs them too.
echo "==> the paper-claim examples run to a zero exit (release profile)"
for example in quickstart inconsistent_update wan_migration congestion_multiflow fast_forward; do
    cargo run -q --release --example "$example" > /dev/null
done

echo "==> trace corpus replays byte-exactly (release profile)"
cargo test -q --release --test corpus_replay

# Counts (tests/world_footprint.rs), not timings. The lint pass before the
# world has a peak bound of its own. Three things fail here that
# `peak_rss_mb` would only drift on: a deep topology copy (a clone must
# request 0 bytes, a built ft512 graph is pinned to the byte), a per-switch
# map where a sorted vector is, a retained batch-sized buffer, a
# per-switch buffer kept after it empties and a register file left with its
# growth slack (the world at rest is pinned to the byte; the peak has a
# bound). (A fat message variant or UIB record fails `cargo build`: the
# size assertions beside `Message`, `Effect`, `Event` and `UibEntry`.)
# The same binary pins `multi_flow`'s allocation requests
# (`multi_flow_makes_its_pinned_allocation_requests`): a k-shortest query
# allocates only its answer, and an attempt a one-path pair voids
# computes no gravity masses.
echo "==> ft512 lint and world heap footprint: peaks under their bounds, topology and resting world at their counts; multi_flow's allocation requests at their counts (release profile)"
cargo test -q --release --test world_footprint

# fig2-p4 finishes every schedule within two deviations in 805 runs. The
# traces the search writes are the committed ones: a moved choice point or
# event count shows as a diff against tests/corpus/.
echo "==> exploration smoke run (exhaustive to d <= 2; ez-Segway must loop, P4Update must stay clean; traces as committed)"
cargo run -q --release --example explore -- fig2-ez fig2-p4 --runs 1000 --corpus "$tmpdir/corpus"
for trace in "$tmpdir"/corpus/*.trace; do
    diff -u "tests/corpus/$(basename "$trace")" "$trace"
done

# The byzantine corpus-replay coverage rides the corpus_replay step above
# (the v2 traces live in tests/corpus/ with the rest). The smoke below
# re-derives the headline split live: forged acks must break ez-Segway
# and P4Update must survive every vector, or the explorer exits non-zero.
# 2,000 runs finish every schedule within two deviations of each P4Update
# variant (985 runs for the most expensive, `+byz-equiv-k1`). Their base
# traces are the committed ones; the two ez-Segway loop traces in
# tests/corpus/ are hand-pinned lie schedules, not the search's first hit
# (a plain drop), so only the `-base` traces are diffed.
if [[ "${FAST:-0}" != 1 ]]; then
    echo "==> byzantine smoke (exhaustive to d <= 2; ez-Segway breaks, P4Update survives; base traces as committed)"
    cargo run -q --release --example explore -- --byzantine --runs 2000 --corpus "$tmpdir/byz-corpus"
    for trace in "$tmpdir"/byz-corpus/*-base.trace; do
        diff -u "tests/corpus/$(basename "$trace")" "$trace"
    done
else
    echo "==> byzantine smoke skipped (FAST=1)"
fi

# The 32768-switch fat-tree on the one engine (lazy path-table rows), the
# `dc-scale` workload's digest (4096 k-shortest-path queries on ft4096) and
# its two heap high-water marks (the lint pass and the run, as counts),
# the nodes the reverse searches of one ft4096 batch settle (a lost
# certificate or cap shows as a number),
# the Fig. 4 and Fig. 7 means and Fig. 7 margins EXPERIMENTS.md quotes
# (30 runs, and 1,000 single-flow or 300 multi-flow runs), the signs of
# Fig. 7c's two margins at 1,000 runs and the B4 segment claim its Fig. 7c
# deviation cites, the cells and claims EXPERIMENTS.md quotes from the
# 87-cell timing sweep (`p4update-experiments sweep`), the
# explorer's completeness table (each registered scenario and byzantine
# smoke variant exhausted to its pinned deviation bound in its pinned
# runs), the
# benchmark's `wan-sweep` and `wan-lossy` cells (P4Update must record no
# violation), the incremental checker against its from-scratch oracle after
# every event (registry, byzantine scenarios, four systems under faults),
# the path solver (single queries, and batches against
# single queries: `solver_agrees_*_in_a_batch`; uniform-latency graphs,
# where sources are certified through their lightest links), the reverse
# search's potential against the oracle's distances (`potential_is_exact`:
# capped everywhere, exact at every source) and the centroid under its
# eccentricity bounds against their oracles on 16x the default random
# graphs (both prune, and a pruning rule fails on a rare tie: 96 cases are
# thin; the centroid also on the evaluation topologies and ft512's ties),
# the latency rows (`latency_distances_from`, which the simulator's WAN
# control latencies and the centroid's reference read) bit for bit against
# the oracle's Dijkstra, the one radix heap, which the event queue and
# every path search share (interleaved pushes, pops, tie gathering, pushes
# below the head after a limit stop, clears and `f64` edge costs as keys),
# against a `BinaryHeap`,
# `two_paths` against that oracle and `multi_flow` against the
# search-as-you-draw loop it replaced (workloads, free capacity and the RNG
# word after them), the UIB against its map model, the linter's `reanalyze`
# and its pairwise oracle over batches with waits-for cycles and repeated
# flows (the only differential that has either) and
# the root property suites at the same scale (nothing else ever runs them
# above their default counts), and the benchmark package's own gate: a library change that
# breaks the API surface pinned in benchmark/README.md must fail here, not
# at the driver.
# All of them are slow, so FAST=1 skips them for quick local iteration — CI
# runs them — and only type-checks the benchmark against the tree, which is
# what a changed pinned signature breaks.
if [[ "${FAST:-0}" != 1 ]]; then
    echo "==> ft32768 on the sequential engine (ignored test, release)"
    cargo test -q --release --test ft32768 -- --ignored

    echo "==> ft4096 workload digest (ignored test, release)"
    cargo test -q --release --test workload_digest -- --ignored

    echo "==> ft4096 lint-pass and run heap peaks under their bounds (ignored test, release)"
    cargo test -q --release --test world_footprint -- --ignored

    echo "==> ft4096 batch: its twin classes and the reverse searches' settled count at their pins (ignored test, release)"
    cargo test -q --release -p p4update-net a_batch_certifies_its_sources_early_on_ft4096 -- --ignored

    echo "==> Fig. 4 and Fig. 7 means at 30 runs and Fig. 7 margins at 30 and 1,000/300 runs equal EXPERIMENTS.md's, 7c's signs at 1,000 runs, the timing sweep's quoted cells and claims; B4 has no backward segment with an interior (ignored tests, release)"
    cargo test -q --release --test paper_scenarios -- --ignored

    echo "==> every registered scenario and byzantine smoke variant exhausted to its pinned deviation bound in its pinned runs (ignored test, release)"
    cargo test -q --release -p p4update-explore every_registered_scenario_is_exhausted -- --ignored

    echo "==> wan-sweep and wan-lossy cells: P4Update records no violation (ignored test, release)"
    cargo test -q --release --test evaluation_checked -- --ignored

    echo "==> P4Update strands a flow only where no atomic order exists: wan-sweep cells, Fig. 7b/7d/7f workloads (ignored test, release)"
    cargo test -q --release --test optimal_oracle -- --ignored

    echo "==> incremental checker vs the from-scratch oracle after every event, PROPCHECK_SCALE=16 (release)"
    PROPCHECK_SCALE=16 cargo test -q --release -p p4update-sim differential

    echo "==> segment_update against Algorithm 2's construction, PROPCHECK_SCALE=16 (release)"
    PROPCHECK_SCALE=16 cargo test -q --release -p p4update-net segment_update_follows_algorithm_2

    echo "==> path solver, the reverse search's potential and twins' mirrored distances vs oracle, PROPCHECK_SCALE=16 (release)"
    PROPCHECK_SCALE=16 cargo test -q --release -p p4update-net -- solver_agrees potential_is_exact twins_mirror

    echo "==> centroid under eccentricity bounds vs one full search per source (random graphs, evaluation topologies, ft512), PROPCHECK_SCALE=16 (release)"
    PROPCHECK_SCALE=16 cargo test -q --release -p p4update-net full_searches

    echo "==> latency rows vs the oracle's Dijkstra, PROPCHECK_SCALE=16 (release)"
    PROPCHECK_SCALE=16 cargo test -q --release -p p4update-net latency_rows_agree

    echo "==> the radix heap vs a BinaryHeap model, PROPCHECK_SCALE=16 (release)"
    PROPCHECK_SCALE=16 cargo test -q --release -p p4update-des queue_matches_heap

    echo "==> two_paths vs oracle, multi_flow vs the loop it replaced, PROPCHECK_SCALE=16 (release)"
    PROPCHECK_SCALE=16 cargo test -q --release -p p4update-net two_paths_agrees
    PROPCHECK_SCALE=16 cargo test -q --release -p p4update-traffic multi_flow_agrees

    echo "==> UIB vs map model, PROPCHECK_SCALE=16 (release)"
    PROPCHECK_SCALE=16 cargo test -q --release -p p4update-dataplane uib_agrees_with_map_model

    echo "==> reanalyze vs analyze vs the pairwise oracle on batches with cycles, PROPCHECK_SCALE=16 (release)"
    PROPCHECK_SCALE=16 cargo test -q --release -p p4update-analysis reanalyze_matches

    echo "==> root property suites and the parser mutation fuzz, PROPCHECK_SCALE=16 (release)"
    PROPCHECK_SCALE=16 cargo test -q --release \
        --test properties --test version_monotonicity --test analysis_mutation --test byzantine \
        --test parser_fuzz

    echo "==> benchmark/check.sh (the benchmark builds and smokes against this tree)"
    benchmark/check.sh
else
    echo "==> ft32768, ft4096 digest, heap peaks and reverse-search count, experiment means and the B4 claim, the explorer's completeness table, the checked benchmark cells, the atomic-order oracle, scaled differentials (segmentation, checker, path solver and potential, centroid, latency rows, radix heap, two_paths, multi_flow, UIB, reanalyze) and property suites and benchmark/check.sh skipped (FAST=1)"

    echo "==> cargo check of the benchmark package (its pinned API surface still compiles)"
    cargo check -q --offline --manifest-path benchmark/Cargo.toml
fi

echo "All checks passed."
