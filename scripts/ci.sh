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
# `report` and `figures` binaries.
cargo build --release --offline --workspace

echo "== rustdoc (warnings are errors) =="
# Doc comments link to public items by path; a deleted or renamed item
# would otherwise leave a dangling link that no other step notices.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== bench targets compile (table2, table3, ablation_repr, ablation_model) =="
# Neither the build nor the test step above compiles `[[bench]]`
# targets, so a harness change could break them unnoticed.
cargo bench --no-run -q --offline -p spllift-bench

echo "== cargo test -q --offline --workspace =="
cargo test -q --offline --workspace

echo "== benchmark package tests (own Cargo package, outside the workspace) =="
# The benchmark under crates/bench/src/bin/benchmark/ is a separate
# package with path dependencies on the workspace crates, so
# `--workspace` never builds it. Testing it here makes an API change
# that breaks the benchmark fail CI instead of the benchmark run.
cargo test -q --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml

echo "== BerkeleyDB cells against goldens.txt and the A2 oracle =="
# The benchmark's smoke runs only the cheap BerkeleyDB cells (taint and
# types); reaching-defs and uninit carry the largest diagrams (1.86 M
# nodes). One short `lifted-bdd` run checks all four cells' digests
# against goldens.txt and each cell against the A2 oracle, and exits 1
# on any failed check. It reuses the dependencies the step above built
# (the package's dev profile runs at opt-level 3) and runs the minimum
# of two rounds.
cargo run -q --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
    --workload lifted-bdd --seed 1 --seconds 1 --trace 0

echo "== fuzz smoke (deterministic seed range, sharded) =="
# A short differential fuzz campaign: 32 seeded random product lines,
# each cross-checked SPLLIFT vs A2 (all five analyses, both directions),
# against the Datalog backend (whose relation dump must also match
# between jobs = 1 and jobs = 2) and against the interpreter. Any
# mismatch exits non-zero and, with set -e, fails CI. The seed range is
# fixed, so this is fully deterministic; --jobs 2 also exercises the
# sharded driver.
./target/release/spllift-cli fuzz --seeds 0..32 --jobs 2

echo "== datalog backend crosscheck smoke (MM08/GPL/Lampiro, jobs 1,2) =="
# The second backend (DESIGN.md §13) must agree with the IDE lifting on
# every fact's constraint, and its stdout must be byte-identical across
# --jobs values. `--crosscheck` exits non-zero on any digest mismatch;
# the diff pins the jobs-invariance of the sharded semi-naive fixpoint.
SMOKE_DL1="$(mktemp -t datalog-smoke-j1.XXXXXX.txt)"
SMOKE_DL2="$(mktemp -t datalog-smoke-j2.XXXXXX.txt)"
trap 'rm -f "$SMOKE_DL1" "$SMOKE_DL2"' EXIT
for subject in gen:MM08 gen:GPL gen:Lampiro; do
    ./target/release/spllift-cli datalog "$subject" --crosscheck --jobs 1 > "$SMOKE_DL1"
    ./target/release/spllift-cli datalog "$subject" --crosscheck --jobs 2 > "$SMOKE_DL2"
    diff -u "$SMOKE_DL1" "$SMOKE_DL2"
    grep -q "SPLLIFT and Datalog agree" "$SMOKE_DL1"
done

echo "== serve smoke (golden transcript, jobs-invariant) =="
# Replays the committed request transcript through the resident analysis
# server and diffs the responses byte-exactly — at two --jobs values, so
# both the protocol itself and its jobs-invariance stay pinned. The
# transcript covers a cache hit (zero propagations) and an incremental
# re-analysis after an edit (same digest as the cold solve). The socket
# transport's goldens (`tests/serve/socket-client*`) are replayed
# concurrently by `tests/serve_socket.rs` in the test step.
for jobs in 2 1; do
    ./target/release/spllift-cli serve --jobs "$jobs" \
        < tests/serve/transcript.requests \
        | diff -u tests/serve/transcript.expected -
done

echo "== serve --listen smoke (golden transcript over TCP) =="
# The same transcript through the CLI's TCP transport, end to end:
# start `serve --listen` on an ephemeral port, read the bound address
# from its stderr, replay the requests one at a time over bash's
# /dev/tcp, and diff the responses once `shutdown` has stopped the
# server. The Rust tests bound the round-trip times; this step only
# checks the bytes.
SMOKE_TCP_ERR="$(mktemp -t serve-tcp-err.XXXXXX.txt)"
SMOKE_TCP_OUT="$(mktemp -t serve-tcp-out.XXXXXX.txt)"
trap 'rm -f "$SMOKE_DL1" "$SMOKE_DL2" "$SMOKE_TCP_ERR" "$SMOKE_TCP_OUT"' EXIT
./target/release/spllift-cli serve --jobs 1 --listen 127.0.0.1:0 2> "$SMOKE_TCP_ERR" &
serve_pid=$!
addr=""
for _ in $(seq 100); do
    addr="$(sed -n 's/^serve: listening on //p' "$SMOKE_TCP_ERR")"
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "ci: serve --listen did not report its address" >&2; kill "$serve_pid"; exit 1; }
exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}"
while IFS= read -r req; do
    printf '%s\n' "$req" >&3
    IFS= read -r resp <&3
    printf '%s\n' "$resp"
done < tests/serve/transcript.requests > "$SMOKE_TCP_OUT"
exec 3<&-
wait "$serve_pid"
diff -u tests/serve/transcript.expected "$SMOKE_TCP_OUT"

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

echo "ci: all green"
