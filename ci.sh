#!/usr/bin/env bash
# Local CI gate: formatting, lints, then the tier-1 build-and-test pass.
# Run from the repository root. Fails fast on the first broken stage.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (all targets, warnings are errors) =="
cargo clippy --all-targets -- -D warnings

echo "== guard: production crates do not link the test oracles =="
# grooming-oracle holds the frozen seed implementations and cross-checkers
# that tests and perf bins compare the live code against. It is a
# dev-dependency of the graph and core test suites and a dependency of the
# bench crate only: no crate that groomd, groomsim or upsr-groom links may
# pull it in as a normal dependency.
for pkg in grooming-graph grooming-sonet grooming grooming-service grooming-sim grooming-cli; do
  if cargo tree --offline -e normal -p "$pkg" | grep -q grooming-oracle; then
    echo "error: $pkg depends on grooming-oracle outside its tests"
    exit 1
  fi
done

echo "== guards: entry points called outside their owners =="
# guard REGEX MESSAGE FILE...: fails if any FILE calls REGEX outside its
# tests. Each file is scanned up to its first #[cfg(test)] marker (test
# modules sit at the bottom), skipping comment lines.
guard() {
  local pattern=$1 message=$2 hits
  shift 2
  hits=$(awk '/#\[cfg\(test\)\]/{nextfile} {print FILENAME":"FNR": "$0}' "$@" \
    | grep -E "$pattern" \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
  if [ -n "$hits" ]; then
    echo "$hits"
    echo "error: $message"
    exit 1
  fi
}

# Mesh routing must go through the solve path (Instance::Mesh +
# SolveContext): the dispatcher owns route bookkeeping (routes_evaluated,
# Capacity errors, capacity repair), so calling mesh::route_demands /
# mesh::enforce_caps directly forfeits stats and the blocking contract.
# Only the defining module and the solve.rs dispatcher may name them
# outside tests.
guard '(route_demands|enforce_caps)\(' \
  "mesh routing called outside the solve path (use Instance::mesh + Solver::solve)" \
  $(find crates/*/src examples -name '*.rs' \
    ! -path crates/core/src/mesh.rs ! -path crates/core/src/solve.rs)

# groomsim is the warm path in a jar: the network starts empty and every
# state is reached by repairing the previous one through
# Instance::reconfigure. Cold solves inside crates/sim would silently
# change what the simulator measures, so any instance constructor other
# than reconfigure is banned there outside tests.
guard 'Instance::(ring|upsr|mesh|blsr|multi_ring|weighted)\(' \
  "cold solve inside crates/sim (the simulator is warm-path only: Instance::reconfigure)" \
  $(find crates/sim/src -name '*.rs')

# The request grammar lives in protocol.rs: parse_request alone decides
# where a request block ends. A tokenizer anywhere else in the service
# (the front end's framer once re-derived block ends from the same sizes)
# forks the grammar, and the two copies drift.
guard 'split_whitespace\(' \
  "request lines tokenized outside the protocol module (parse_request owns the grammar)" \
  $(find crates/service/src -name '*.rs' ! -path crates/service/src/protocol.rs)

echo "== cargo build --all-targets (benches, examples, tests compile) =="
cargo build --all-targets

echo "== tier-1: cargo build --release && cargo test =="
cargo build --release
cargo test -q

echo "== perfbench self-test: the benchmark's view of the public API (release) =="
# perfbench is its own package (own [workspace] and lock file) that drives
# the library from outside, through public functions only: refine_with_stats,
# warm_repair, lower_bound, the service protocol. Its self-test runs every
# workload at a tiny size and replays each layer call against the wire
# plan, so API or behaviour drift fails here, not at the next benchmark run.
cargo test --release --manifest-path perfbench/Cargo.toml

echo "== service smoke: groomd over TCP (digest-asserted transcript) =="
# Serves a canned mixed batch on an ephemeral loopback port at 1 and 2
# workers and asserts the response transcripts are byte-identical — the
# service determinism contract, exercised over a real socket.
target/release/groomd_smoke

echo "== perf smoke: improvement-engine baseline (release, --fast) =="
# Asserts bit-identity between the incremental engine and the preserved
# reference implementations on the baseline instance, and records the
# fast-mode timings. Its dense_first cell runs the whole DenseFirst packer
# on mesh-metro's median traffic graph (gnm(100, 768), k = 16) against
# reference::dense_first, asserts identical parts and RNG streams, and
# exits non-zero below a 25x speedup floor (fourteen fast runs measured
# 59-109x; the packer that enumerated every maximal clique per peel read
# 3.7-4.7x). The checked-in
# results/BENCH_improve.json is produced by the full run:
# target/release/perf_improve
target/release/perf_improve --fast --out /tmp/BENCH_improve_fast.json

echo "== perf smoke: construction-pipeline baseline (release, --fast) =="
# Same contract for the construction pipeline: the flat-CSR/workspace path
# must reproduce grooming_oracle::reference bit for bit on a thinned Figure-4/5
# grid. The checked-in results/BENCH_pipeline.json is produced by the full
# run: target/release/perf_pipeline
target/release/perf_pipeline --fast --out /tmp/BENCH_pipeline_fast.json

echo "== perf smoke: groomd service baseline (release, --fast) =="
# Drives groomd over a real loopback socket: asserts the response
# transcript digest is byte-identical at 1 worker, 4 workers, and with the
# solve cache cold and warm, ramps pipelined bursts against a small queue
# to record the blocking point, then times 500 sequential PINGs on one
# connection and exits non-zero if their p50 reaches 500 µs (a front end
# that sleeps on a timer when idle pays ~2 ms there). The checked-in
# results/BENCH_groomd.json is produced by the full run:
# target/release/perf_service
target/release/perf_service --fast --out /tmp/BENCH_groomd_fast.json

echo "== perf smoke: million-edge scale tier (release, --fast) =="
# Runs the three scale-tier generator families at n = 10^4 through the
# SpanT_Euler construction and sparse-incidence refinement, asserts the
# sparse-vs-dense bit-identity contract, asserts peak RSS stays under
# the fast tier's documented ceiling, and asserts no family's
# swaps_evaluated rises above its pinned count (the binary exits non-zero
# on a breach). The checked-in
# results/BENCH_scale.json is produced by the full run:
# target/release/perf_scale
target/release/perf_scale --fast --out /tmp/BENCH_scale_fast.json

echo "== perf smoke: churn warm-start baseline (release, --fast) =="
# Replays the pinned churn trace at n = 10^4: warm-starts each window from
# the previous plan, re-solves it cold for comparison, and asserts the
# empty-delta byte-identity, the never-worse-than-prior cost invariant,
# per-window warm <= cold, and the 5x aggregate warm-vs-cold speedup floor
# (the binary exits non-zero on any breach). The checked-in
# results/BENCH_churn.json is produced by the full run:
# target/release/perf_churn
target/release/perf_churn --fast --out /tmp/BENCH_churn_fast.json

echo "== perf smoke: mesh loading baseline (release, --fast) =="
# Loads the capacitated metro grid until the blocking rate crosses 1%,
# solving every level cold (fresh workspace, empty route table) and warm
# (one workspace threaded through the levels, as a groomd worker keeps
# its own) and asserting the two plans are byte-identical and the warm
# curve at least 1.2x faster in aggregate (the fast tier measured
# 2.47-2.57x). Also measures mesh solve throughput through the service
# with the cache off (the median of five timed phases), asserts
# byte-identical transcripts at 1 vs 4 workers, asserts the curve's route
# table hits do not fall below their pinned total (1,457), and asserts peak
# RSS stays under the fast tier's ceiling (the binary exits non-zero on any
# breach).
# The checked-in results/BENCH_mesh.json is produced by the full run:
# target/release/perf_mesh
target/release/perf_mesh --fast --out /tmp/BENCH_mesh_fast.json

echo "== perf smoke: groomsim dynamic-traffic baseline (release, --fast) =="
# Sweeps small ring and mesh cells to the 1% blocking point, asserts the
# sweep re-runs deterministically (including under reversed stream
# registration), soaks a live groomd over TCP against the in-process
# transcript byte for byte, and asserts peak RSS stays under the fast
# tier's ceiling (the binary exits non-zero on any breach). The
# checked-in results/BENCH_sim.json is produced by the full run:
# target/release/perf_sim
target/release/perf_sim --fast --out /tmp/BENCH_sim_fast.json

echo "== perf smoke baselines parse as JSON =="
# The seven perf bins share one hand-rolled writer (grooming_bench::harness);
# a layout bug there must fail here, not in whoever reads the baselines.
for f in /tmp/BENCH_improve_fast.json /tmp/BENCH_pipeline_fast.json \
  /tmp/BENCH_groomd_fast.json /tmp/BENCH_scale_fast.json /tmp/BENCH_churn_fast.json \
  /tmp/BENCH_mesh_fast.json /tmp/BENCH_sim_fast.json; do
  python3 -m json.tool "$f" > /dev/null || { echo "error: $f is not valid JSON"; exit 1; }
done

echo "== cargo doc (no deps, warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "CI gate passed."
