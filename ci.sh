#!/usr/bin/env bash
# CI gate: build, test, lint, format-check and doc-check the whole workspace.
# Run from the repo root.  Fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release --workspace
# Informational, not a gate: the size ROADMAP tracks — every source file
# under crates/*/src counted up to its first top-level `#[cfg(test)]`.
NONTEST="$(find crates/*/src -name '*.rs' -exec awk '
    FNR == 1 { skip = 0 }
    /^#\[cfg\(test\)\]/ { skip = 1 }
    !skip { n++ }
    END { print n + 0 }' {} + | awk '{ s += $1 } END { print s }')"
echo "non-test lines crates/*/src: $NONTEST"

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

echo "==> servebench: build, test, and check the cold-recursive answers"
# servebench/ is a Cargo workspace of its own, so the steps above never
# compile it; without this step a serve_suite API break surfaces only
# when the benchmark runs.  Cargo rewrites servebench's committed lock
# when an internal crate gains a dependency; restore it so the run
# leaves the tree as it found it.
cp servebench/Cargo.lock "$SCRATCH/servebench.lock"
cargo test -q --release --offline --manifest-path servebench/Cargo.toml
# servebench's unit tests check answers on warm-repeat only; a one-second
# cold-recursive run checks every dnc/multi recursion job's answer too.
COLD_OUT="$SCRATCH/servebench_cold.ndjson"
cargo run --release -q --offline --manifest-path servebench/Cargo.toml -- \
    --workload cold-recursive --seed 7 --seconds 1 --trace 0 > "$COLD_OUT"
COLD_RESULT="$(grep '"correct"' "$COLD_OUT" | tail -n 1)"
echo "$COLD_RESULT" | grep -q '"correct": true' &&
    echo "$COLD_RESULT" | grep -q '"failed": 0[,}]' || {
    echo "servebench cold-recursive FAILED: wrong answers or failed jobs" >&2
    echo "$COLD_RESULT" >&2
    exit 1
}
# The serve path's model, pinned: the digest hashes every job's meters,
# times and outputs, so it changes only with a declared model change
# (re-measure it then, at seed 7, and update it here).
COLD_DIGEST="$(grep -o '"model_digest": "[^"]*"' "$COLD_OUT" | tail -n 1)"
[ "$COLD_DIGEST" = '"model_digest": "0xa3e9969b282f7190"' ] || {
    echo "servebench cold-recursive FAILED: model digest moved ($COLD_DIGEST)" >&2
    exit 1
}
cp "$SCRATCH/servebench.lock" servebench/Cargo.lock

echo "==> perf smoke + regression gate (bsmp-repro bench --against)"
# Runs the full points/sec suite with counters, then gates the fresh
# throughput against the committed baseline: >20% best-iteration
# points/sec regression on any gated case (tiled pool-crossing and
# every dnc/multi engine) fails CI inside the bench binary.
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
# One server process, six requests: a malformed line and an unknown
# engine must each yield a typed error line without killing the batch,
# and the repeated dnc1 shape must be answered warm (capsule hit) with
# nonzero plan-cache hits in the summary.  --max-inflight 1 keeps the
# cold run strictly before its warm repeat.  The traced naive1 job is
# large enough to engage the stage pool; without --threads that pool
# has one thread, and every stage must say so.
SERVE_OUT="$SCRATCH/serve_smoke.ndjson"
cargo run --release -q -p bsmp-cli -- serve --max-inflight 1 > "$SERVE_OUT" <<'EOF'
{"id": 1, "engine": "dnc1", "n": 64, "m": 16, "steps": 64}
this line is not a json request
{"id": 3, "engine": "warp9", "n": 64, "steps": 64}
{"id": 4, "engine": "dnc1", "n": 64, "m": 16, "steps": 64, "seed": 99}
{"id": 5, "engine": "multi2", "n": 256, "m": 4, "p": 4, "steps": 16, "certify": true}
{"id": 6, "engine": "naive1", "n": 4096, "p": 16, "steps": 4, "trace": true}
EOF
[ "$(grep -c '"kind": "bad_request"' "$SERVE_OUT")" -eq 2 ] || {
    echo "serve smoke FAILED: want exactly 2 typed bad_request lines" >&2
    exit 1
}
[ "$(grep -c '"ok": true' "$SERVE_OUT")" -eq 4 ] || {
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
WORKERS="$(grep '"id": 6, "ok": true' "$SERVE_OUT" | grep -o '"workers": [0-9]*' | sort | uniq -c | tr -s ' ')"
[ "$WORKERS" = ' 4 "workers": 1' ] || {
    echo "serve smoke FAILED: want 4 naive1 stages on 1 worker, got: $WORKERS" >&2
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
# A naive1, a naive2, a multi2, a dnc1, a dnc2, a dnc3, a pipelined1
# and a naive3 traced run must certify (exit 0): measured slowdown and
# comm inside [Gunther/Brent floor, Theorem 1-5 envelope] and [cut
# floor, busy time]; the naive2 run takes the naive kernel's d = 2 path,
# the three dnc runs every dimension of the one D&C engine (the dnc3 run
# the d = 3 spec path), and the pipelined1 and naive3 runs the guest
# step and the d = 3 naive kernel end to end.  Corrupting one recorded
# field must flip the verdict to Violated (exit 1, not the
# malformed-trace exit 2).
CERT1="$SCRATCH/certify_naive1.json"
CERT2="$SCRATCH/certify_multi2.json"
CERT3="$SCRATCH/certify_dnc3.json"
CERT4="$SCRATCH/certify_naive2.json"
CERT5="$SCRATCH/certify_pipelined1.json"
CERT6="$SCRATCH/certify_naive3.json"
CERT7="$SCRATCH/certify_dnc1.json"
CERT8="$SCRATCH/certify_dnc2.json"
cargo run --release -q -p bsmp-cli -- --quick --trace "$CERT1" --engine naive1 E1 > /dev/null
cargo run --release -q -p bsmp-cli -- --quick --trace "$CERT2" --engine multi2 E1 > /dev/null
cargo run --release -q -p bsmp-cli -- --quick --trace "$CERT3" --engine dnc3 E1 > /dev/null
cargo run --release -q -p bsmp-cli -- --quick --trace "$CERT4" --engine naive2 E1 > /dev/null
cargo run --release -q -p bsmp-cli -- --quick --trace "$CERT5" --engine pipelined1 E1 > /dev/null
cargo run --release -q -p bsmp-cli -- --quick --trace "$CERT6" --engine naive3 E1 > /dev/null
cargo run --release -q -p bsmp-cli -- --quick --trace "$CERT7" --engine dnc1 E1 > /dev/null
cargo run --release -q -p bsmp-cli -- --quick --trace "$CERT8" --engine dnc2 E1 > /dev/null
for cert in "$CERT1" "$CERT2" "$CERT3" "$CERT4" "$CERT5" "$CERT6" "$CERT7" "$CERT8"; do
    verdict=$(cargo run --release -q -p bsmp-cli -- trace-certify "$cert")
    echo "$verdict"
    case "$verdict" in
        *": Certified"*) ;;
        *) echo "certify smoke FAILED: $cert did not answer Certified" >&2; exit 1 ;;
    esac
done
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
