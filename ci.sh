#!/usr/bin/env bash
# CI gate: build, test, lint, format-check and doc-check the whole workspace.
# Run from the repo root.  Fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo doc (rustdoc warnings are errors)"
# Broken intra-doc links (a renamed or deleted item, a bracketed
# citation read as a link) fail here instead of rotting silently.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Scratch area for CI artifacts: the committed BENCH_engines.json is a
# baseline to diff against, never something a CI run may overwrite.
SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT
STATUS_BEFORE="$(git status --porcelain)"

echo "==> servebench: build and test against the serve_suite API"
# servebench/ is a Cargo workspace of its own, so the steps above never
# compile it; without this step a serve_suite API break surfaces only
# when the benchmark runs.  Cargo rewrites servebench's committed lock
# when an internal crate gains a dependency; restore it so the run
# leaves the tree as it found it.
cp servebench/Cargo.lock "$SCRATCH/servebench.lock"
cargo test -q --release --offline --manifest-path servebench/Cargo.toml
cp "$SCRATCH/servebench.lock" servebench/Cargo.lock

echo "==> perf smoke + regression gate (bsmp-repro bench --against)"
# Runs the full points/sec suite with counters, then gates the fresh
# throughput against the committed baseline: >20% best-iteration
# points/sec regression on any gated case (tiled pool-crossing, every
# dnc/multi engine, and the sparse event-core cases) fails CI inside
# the bench binary.
SMOKE="$SCRATCH/bench_smoke.json"
cargo run --release -q -p bsmp-cli -- bench --iters 3 --meta "ci-perf-smoke" \
    --trace-counters --out "$SMOKE" --against BENCH_engines.json
if [ ! -s "$SMOKE" ]; then
    echo "perf smoke FAILED: $SMOKE missing or empty" >&2
    exit 1
fi
grep -q '"schema": "bsmp-bench-engines/v3"' "$SMOKE" || {
    echo "perf smoke FAILED: bench output malformed (schema tag missing)" >&2
    exit 1
}
grep -q '"median_s"' "$SMOKE" && grep -q '"pps"' "$SMOKE" || {
    echo "perf smoke FAILED: bench output malformed (no cases)" >&2
    exit 1
}
# The tiled kernels must actually serve accesses from their cost tables:
# a zero table_hits on every case means the fast path silently died.
grep -q '"table_hits": [1-9]' "$SMOKE" || {
    echo "perf smoke FAILED: no case reports cost-table hits" >&2
    exit 1
}
grep -q '"trace_counters"' "$SMOKE" || {
    echo "perf smoke FAILED: --trace-counters section missing" >&2
    exit 1
}
# The batch-server warm/cold suite rides along in every bench run; the
# ≥5× warm/cold jobs-per-second floor is enforced inside the bench
# binary (exit 1), so here we only assert the section was recorded.
grep -q '"serve_cases"' "$SMOKE" && grep -q '"warm_cold_ratio"' "$SMOKE" || {
    echo "perf smoke FAILED: serve warm/cold section missing" >&2
    exit 1
}
grep -q '"plan_cache"' "$SMOKE" || {
    echo "perf smoke FAILED: plan-cache counters missing" >&2
    exit 1
}

echo "==> serve smoke (bsmp-repro serve: batch protocol + warm plan cache)"
# One server process, five requests: a malformed line and an unknown
# engine must each yield a typed error line without killing the batch,
# and the repeated dnc1 shape must be answered warm (capsule hit) with
# nonzero plan-cache hits in the summary.  --max-inflight 1 keeps the
# cold run strictly before its warm repeat.
SERVE_OUT="$SCRATCH/serve_smoke.ndjson"
cargo run --release -q -p bsmp-cli -- serve --max-inflight 1 > "$SERVE_OUT" <<'EOF'
{"id": 1, "engine": "dnc1", "n": 64, "m": 16, "steps": 64}
this line is not a json request
{"id": 3, "engine": "warp9", "n": 64, "steps": 64}
{"id": 4, "engine": "dnc1", "n": 64, "m": 16, "steps": 64, "seed": 99}
{"id": 5, "engine": "multi2", "n": 256, "m": 4, "p": 4, "steps": 16, "certify": true}
EOF
[ "$(grep -c '"kind": "bad_request"' "$SERVE_OUT")" -eq 2 ] || {
    echo "serve smoke FAILED: want exactly 2 typed bad_request lines" >&2
    exit 1
}
[ "$(grep -c '"ok": true' "$SERVE_OUT")" -eq 3 ] || {
    echo "serve smoke FAILED: the malformed lines killed healthy jobs" >&2
    exit 1
}
grep -q '"id": 4, "ok": true.*"cache_hit": true' "$SERVE_OUT" || {
    echo "serve smoke FAILED: repeated shape was not answered warm" >&2
    exit 1
}
grep -q '"verdict": "Certified"' "$SERVE_OUT" || {
    echo "serve smoke FAILED: certify job carries no Certified verdict" >&2
    exit 1
}
grep -q '"summary": true.*"plan_cache": {"hits": [1-9]' "$SERVE_OUT" || {
    echo "serve smoke FAILED: summary reports zero plan-cache hits" >&2
    exit 1
}

echo "==> million-node scale smoke (bench --mem, event core)"
# n = 2^20 naive1 on the sparse event core: must engage the sparse
# path, finish inside a generous wall budget even on a loaded shared
# host, and keep peak auxiliary state under a bytes-per-node ceiling
# (the dense image alone would be 8 MiB; the sparse core carries a
# one-hot frontier in tens of KiB).
MEM_OUT="$SCRATCH/mem_probe.txt"
cargo run --release -q -p bsmp-cli -- bench --mem | tee "$MEM_OUT"
grep -q 'used_event_core=true' "$MEM_OUT" || {
    echo "scale smoke FAILED: event core not engaged" >&2
    exit 1
}
WALL="$(sed -n 's/.*wall_s=\([0-9.]*\).*/\1/p' "$MEM_OUT")"
BPN="$(sed -n 's/.*bytes_per_node=\([0-9.]*\).*/\1/p' "$MEM_OUT")"
awk -v w="$WALL" 'BEGIN { exit !(w + 0 < 30.0) }' || {
    echo "scale smoke FAILED: wall_s=$WALL exceeds the 30 s budget" >&2
    exit 1
}
awk -v b="$BPN" 'BEGIN { exit !(b + 0 < 32.0) }' || {
    echo "scale smoke FAILED: bytes_per_node=$BPN exceeds the 32 B ceiling" >&2
    exit 1
}

echo "==> trace smoke (bsmp-repro --trace + trace-validate)"
TRACE="$SCRATCH/trace_smoke.json"
cargo run --release -q -p bsmp-cli -- --quick --trace "$TRACE" E1 > /dev/null
grep -q '"schema": "bsmp-trace/v1"' "$TRACE" || {
    echo "trace smoke FAILED: trace log malformed (schema tag missing)" >&2
    exit 1
}
cargo run --release -q -p bsmp-cli -- trace-validate "$TRACE"

echo "==> certify smoke (trace-certify: two-sided envelopes + exit codes)"
# A naive1 and a multi2 traced run must certify (exit 0): measured
# slowdown and comm inside [Gunther/Brent floor, Theorem 1-5 envelope]
# and [cut floor, busy time].  Corrupting one recorded field must flip
# the verdict to Violated (exit 1, not the malformed-trace exit 2).
CERT1="$SCRATCH/certify_naive1.json"
CERT2="$SCRATCH/certify_multi2.json"
cargo run --release -q -p bsmp-cli -- --quick --trace "$CERT1" --engine naive1 E1 > /dev/null
cargo run --release -q -p bsmp-cli -- --quick --trace "$CERT2" --engine multi2 E1 > /dev/null
cargo run --release -q -p bsmp-cli -- trace-certify "$CERT1"
cargo run --release -q -p bsmp-cli -- trace-certify "$CERT2"
CORRUPT="$SCRATCH/certify_corrupt.json"
sed 's/"guest_time": [0-9.eE+-]*/"guest_time": 0.001/' "$CERT1" > "$CORRUPT"
set +e
cargo run --release -q -p bsmp-cli -- trace-certify "$CORRUPT"
CERT_RC=$?
set -e
if [ "$CERT_RC" -ne 1 ]; then
    echo "certify smoke FAILED: corrupted trace exited $CERT_RC, want 1 (Violated)" >&2
    exit 1
fi

echo "==> chaos smoke (bsmp-repro --faults + trace-validate)"
# One short seeded storm+churn scenario per region dimension: the
# committed interval-region plan, and a tile-region plan written here.
CHAOS_TRACE="$SCRATCH/chaos_interval.json"
cargo run --release -q -p bsmp-cli -- --quick --faults examples/chaos_storm.json \
    --trace "$CHAOS_TRACE" E1 > /dev/null
cargo run --release -q -p bsmp-cli -- trace-validate "$CHAOS_TRACE"
TILE_PLAN="$SCRATCH/chaos_tile_plan.json"
cat > "$TILE_PLAN" <<'EOF'
{
  "seed": 1995,
  "slowdown": {"model": "pareto", "xm": 1.0, "alpha": 2.5},
  "outage": {"region": {"r0": 0, "r1": 2, "c0": 0, "c1": 1}, "onset": 3, "duration": 2, "period": 10},
  "churn": {"leave_permille": 25, "down_stages": 2, "max_retries": 8, "backoff_hops": 1.0}
}
EOF
CHAOS_TRACE2="$SCRATCH/chaos_tile.json"
cargo run --release -q -p bsmp-cli -- --quick --faults "$TILE_PLAN" \
    --trace "$CHAOS_TRACE2" E1 > /dev/null
cargo run --release -q -p bsmp-cli -- trace-validate "$CHAOS_TRACE2"

echo "==> chaos soak (opt-in)"
if [ "${BSMP_SOAK:-0}" = "1" ]; then
    BSMP_SOAK=1 cargo test --release -q -p bsmp --test chaos
else
    echo "    skipped (set BSMP_SOAK=1 for the extended scenario soak)"
fi

echo "==> working tree unchanged by the run"
STATUS_AFTER="$(git status --porcelain)"
if [ "$STATUS_BEFORE" != "$STATUS_AFTER" ]; then
    echo "CI FAILED: the run dirtied the working tree; status diff:" >&2
    diff <(echo "$STATUS_BEFORE") <(echo "$STATUS_AFTER") >&2 || true
    exit 1
fi

echo "CI OK"
