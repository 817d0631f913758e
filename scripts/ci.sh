#!/usr/bin/env bash
# Local CI: everything must pass with no network access.
#
#   ./scripts/ci.sh
#
# The workspace has no crates.io dependencies (see DESIGN.md §5), so
# every step runs with --offline to catch any accidental registry dep.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo build --release --offline --workspace =="
# --workspace matters: a plain `cargo build` only covers the root facade
# package and its dependencies, which silently skips the bench crate's
# binaries (solver_bench below would run stale).
cargo build --release --offline --workspace

echo "== cargo test -q --offline --workspace =="
cargo test -q --offline --workspace

echo "== fuzz smoke (deterministic seed range, sharded) =="
# A short differential fuzz campaign: 32 seeded random product lines,
# each cross-checked SPLLIFT vs A2 (all five analyses, both directions)
# and against the interpreter. Any mismatch exits non-zero and, with
# set -e, fails CI. The seed range is fixed, so this is fully
# deterministic; --jobs 2 also exercises the sharded driver.
./target/release/spllift-cli fuzz --seeds 0..32 --jobs 2

echo "== datalog backend crosscheck smoke (MM08/GPL, jobs 1,2) =="
# The second backend (DESIGN.md §13) must agree with the IDE lifting on
# every fact's constraint, and its stdout must be byte-identical across
# --jobs values. `--crosscheck` exits non-zero on any digest mismatch;
# the diff pins the jobs-invariance of the sharded semi-naive fixpoint.
SMOKE_DL1="$(mktemp -t datalog-smoke-j1.XXXXXX.txt)"
SMOKE_DL2="$(mktemp -t datalog-smoke-j2.XXXXXX.txt)"
trap 'rm -f "$SMOKE_DL1" "$SMOKE_DL2"' EXIT
for subject in gen:MM08 gen:GPL; do
    ./target/release/spllift-cli datalog "$subject" --crosscheck --jobs 1 > "$SMOKE_DL1"
    ./target/release/spllift-cli datalog "$subject" --crosscheck --jobs 2 > "$SMOKE_DL2"
    diff -u "$SMOKE_DL1" "$SMOKE_DL2"
    grep -q "SPLLIFT and Datalog agree" "$SMOKE_DL1"
done

echo "== solver bench smoke (emit + validate) =="
# Emits a fresh benchmark document (schema `spllift-bench-solver/v4`)
# on the small subjects — to a scratch path, never over the committed
# baseline — and schema-validates it, so the emitter, the parser, and
# the measured hot path all stay wired. The committed baseline is
# refreshed manually with the default arguments instead (see
# EXPERIMENTS.md §BENCH).
SMOKE_BENCH="$(mktemp -t solver-bench-smoke.XXXXXX.json)"
trap 'rm -f "$SMOKE_BENCH" "$SMOKE_DL1" "$SMOKE_DL2"' EXIT
./target/release/solver_bench --samples 1 --subjects fig1,chat,MM08 \
    --out "$SMOKE_BENCH"
./target/release/solver_bench --validate "$SMOKE_BENCH"

echo "== committed solver baseline (validate + regression gate) =="
# The committed baseline must always be a valid v4 document...
./target/release/solver_bench --validate BENCH_solver.json
# ...and the regression gate must actually run against it. Smoke mode:
# re-measure a small sub-matrix (restricting --subjects turns baseline
# cells we skip into non-failures), three samples, and a loose
# tolerance — CI machines are noisy and 1-sample minima are not; the
# full-matrix gate (`solver_bench --check BENCH_solver.json`) is the
# pre-baseline-refresh workflow, not a CI step.
./target/release/solver_bench --check BENCH_solver.json \
    --subjects fig1,chat,MM08 --samples 3 --tolerance 3.0

echo "== regression gate negative test (injected slowdown must fail) =="
# A gate that cannot fail is decoration. Stall one cell far past any
# plausible tolerance and require the exit code to flip.
if ./target/release/solver_bench --check BENCH_solver.json \
    --subjects fig1 --samples 1 --tolerance 3.0 \
    --inject-slow fig1:Taint:2000 2>/dev/null; then
    echo "ci: regression gate FAILED to catch an injected 2s slowdown" >&2
    exit 1
fi
echo "ci: injected slowdown caught as expected"

echo "== serve smoke (golden transcript, jobs-invariant) =="
# Replays the committed request transcript through the resident analysis
# server and diffs the responses byte-exactly — at two --jobs values, so
# both the protocol itself and its jobs-invariance stay pinned. The
# transcript covers a cache hit (zero propagations) and an incremental
# re-analysis after an edit (same digest as the cold solve).
for jobs in 2 1; do
    ./target/release/spllift-cli serve --jobs "$jobs" \
        < tests/serve/transcript.requests \
        | diff -u tests/serve/transcript.expected -
done

echo "== chaos smoke (fault injection, golden per fault class) =="
# Replays the two-session chaos transcript with each deterministic
# injected fault class and diffs the full response stream against the
# committed golden: the victim session must be quarantined (panic) or
# degraded down the abstraction ladder (budget/deadline), the healthy
# session must be byte-identical to a fault-free run, and a re-load must
# recover the victim at full precision.
for fault in panic-in-flow bdd-blowup slow-edge; do
    ./target/release/spllift-cli serve --jobs 1 --inject-fault "$fault@2" \
        < tests/serve/chaos.requests \
        | diff -u "tests/serve/chaos-$fault.expected" -
done
# budget-exhaust arms an exact BDD op budget on the victim's first
# analyze: the golden pins the full lattice descent (full and
# confound(Root) blow the meter, the keep_features-sparing projection
# answers), the degraded-point stats counter, and the full-precision
# unbudgeted retry.
./target/release/spllift-cli serve --jobs 1 \
    --inject-fault budget-exhaust@2000 --inject-fault-session victim \
    < tests/serve/chaos-budget.requests \
    | diff -u tests/serve/chaos-budget-exhaust.expected -

echo "== governed-solve smoke (lattice descent on the 99-feature chain subject) =="
# A paper-scale subject under an op budget no full-precision solve can
# meet: with --keep-features the governor must land on a non-bottom
# lattice point that spares the named features (the response records
# the exact point), and without it the descent must bottom out at the
# PR 5 ladder's constraint-true — pinning that the default ladder is
# unchanged.
GOV_SUBJECT="synthetic:99:12000:71:model=chain:depth=8"
kept=$(printf '%s\n' \
    "{\"type\":\"load\",\"session\":\"g\",\"gen\":\"$GOV_SUBJECT\"}" \
    "{\"type\":\"analyze\",\"session\":\"g\",\"bdd_op_budget\":60000,\"keep_features\":[\"F0\",\"F1\"]}" \
    "{\"type\":\"shutdown\"}" \
    | ./target/release/spllift-cli serve --jobs 1)
echo "$kept" | grep -q '"outcome":"degraded"' \
    || { echo "ci: governed smoke did not degrade: $kept" >&2; exit 1; }
echo "$kept" | grep -q '"rung":"project(' \
    || { echo "ci: governed smoke did not land on a projection point: $kept" >&2; exit 1; }
echo "$kept" | grep -q '"rung":"constraint-true"' \
    && { echo "ci: governed smoke fell to the lattice bottom: $kept" >&2; exit 1; }
bottom=$(printf '%s\n' \
    "{\"type\":\"load\",\"session\":\"g\",\"gen\":\"$GOV_SUBJECT\"}" \
    "{\"type\":\"analyze\",\"session\":\"g\",\"bdd_node_budget\":2}" \
    "{\"type\":\"shutdown\"}" \
    | ./target/release/spllift-cli serve --jobs 1)
echo "$bottom" | grep -q '"rung":"constraint-true"' \
    || { echo "ci: default ladder no longer bottoms out at constraint-true: $bottom" >&2; exit 1; }
echo "$bottom" | grep -Eq '"attempts":\[\{"rung":"full"[^]]*\{"rung":"no-model"' \
    || { echo "ci: default descent is not the full -> no-model ladder: $bottom" >&2; exit 1; }
echo "ci: governed smoke landed on a keep-sparing lattice point"

echo "== socket smoke (3 concurrent clients, golden transcripts) =="
# Serves the protocol over TCP (`--listen`-style in-process server) and
# replays three scripted clients concurrently — each on its own
# connection and session. Every client's response stream must be
# byte-identical to its committed golden, which pins the documented
# per-session determinism of the sharded executor under real
# concurrency (docs/PROTOCOL.md, DESIGN.md §9).
./target/release/server_bench --smoke tests/serve

echo "== server bench document (BENCH_server.json schema) =="
# Schema-validates the committed concurrent-load benchmark document
# (schema `spllift-bench-server/v2`): machine block, at least three
# concurrency levels, zero protocol errors, monotone latency
# percentiles. Regenerating the numbers is a manual step (see
# EXPERIMENTS.md §BENCH server) — CI only proves the committed document
# and the validator stay wired. The server regression gate
# (`server_bench --check BENCH_server.json`) replays all committed
# levels (~256 concurrent connections at the top) and is part of the
# manual baseline-refresh workflow, not a CI step.
./target/release/server_bench --validate BENCH_server.json
echo "ci: all green"
