#!/usr/bin/env bash
# The repo's gate: static checks, tier-1 build + tests, and a smoke run of
# the reproduction suite through the fair-simlab scheduler.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy (every target, deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== fairlint (strict + graph)"
mkdir -p target/fairlint
# Gate: zero diagnostics, machine-readable report on disk.
cargo run -q -p fairlint -- --strict --json > target/fairlint/report.json
grep -q '"violations":\[\]' target/fairlint/report.json
# The exported call graph must cover the workspace and be deterministic:
# two consecutive runs are byte-identical, and the payload parses enough
# to name every member crate.
cargo run -q -p fairlint -- --graph json > target/fairlint/graph.json
cargo run -q -p fairlint -- --graph json > target/fairlint/graph.2.json
cmp target/fairlint/graph.json target/fairlint/graph.2.json
rm -f target/fairlint/graph.2.json
grep -q '"crates"' target/fairlint/graph.json
grep -q '"edges"' target/fairlint/graph.json
cargo run -q -p fairlint -- --graph dot > target/fairlint/graph.dot
grep -q '^digraph fairlint' target/fairlint/graph.dot

echo "== cargo build --release (workspace: libs + reproduce/fair-trace/fair-serve bins)"
cargo build --release --workspace

echo "== cargo test (default-members: the whole workspace)"
cargo test -q

echo "== shared-state stress loop (lib tests of the run-context crates, 20 runs)"
# The lib tests of these crates run concurrently at the default test
# thread count. A process-global that tests toggle makes them race; 20
# repetitions turn such a race into a gate failure instead of a rare flake.
for i in $(seq 20); do
  if ! out="$(cargo test -q -p fair-trace -p fair-simlab -p fair-tiles -p fair-core --lib 2>&1)"; then
    echo "$out"; echo "stress run $i failed"; exit 1
  fi
done

echo "== fair-trace selfcheck (record + replay + diff)"
./target/release/fair-trace record exp_coin_toss --trials 80 --sample 3 > /tmp/fair_trace_recorded.txt
./target/release/fair-trace replay exp_coin_toss --jobs 2
./target/release/fair-trace diff "$(head -1 /tmp/fair_trace_recorded.txt)" "$(head -1 /tmp/fair_trace_recorded.txt)"
./target/release/fair-trace top exp_coin_toss --trials 80 --sample 5 --by msgs

echo "== fair-scenario check (declarative scenario layer)"
# Every checked-in scenario file must compile; the listing must expose
# all three shipped families through the registry.
./target/release/fair-scenario check scenarios
./target/release/fair-scenario list scenarios | grep -q '^s_deposit_coin '
./target/release/fair-scenario expand scenarios | grep -q 'deposit=0.25'
# Malformed input is rejected with a span-carrying error and nonzero exit.
BAD_DIR="$(mktemp -d)"
printf '[scenario]\nid = "s_broken"\n' > "$BAD_DIR/broken.toml"
if ./target/release/fair-scenario check "$BAD_DIR" 2> "$BAD_DIR/err.txt"; then
  echo "fair-scenario accepted a malformed scenario"; exit 1
fi
grep -q 'broken.toml:1: error:' "$BAD_DIR/err.txt"
rm -rf "$BAD_DIR"

echo "== reproduce smoke run (parallel, JSON records)"
# The aggregate record goes under target/: the tracked BENCH_reproduce.json
# holds the full-suite run and is regenerated on purpose, never by the gate.
FAIR_TRIALS=100 ./target/release/reproduce --jobs 2 --trace \
  --json target/simlab/reproduce_smoke.json e1 e4 e13 s_deposit_coin

echo "== fair-serve smoke (ephemeral boot, fair-load --check, graceful shutdown)"
# Perf gate pinned to --loops 1: the 5k rps floor below measures the
# single-loop event loop, so sharding changes can't mask a regression.
SERVE_OUT="$(mktemp)"
./target/release/fair-serve --addr 127.0.0.1:0 --workers 2 --loops 1 \
  --metrics-out target/simlab/serve_metrics.json > "$SERVE_OUT" &
SERVE_PID=$!
ADDR=""
for _ in $(seq 100); do
  ADDR="$(sed -n 's/^ADDR=//p' "$SERVE_OUT")"
  [ -n "$ADDR" ] && break
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "fair-serve never reported its address"; kill "$SERVE_PID"; exit 1; }
# --check fails on any request error or a cold cache (warm hit rate must be > 0).
./target/release/fair-load --addr "$ADDR" --exp e2 --trials 200 \
  --clients 2 --points 4 --repeat 4 --out target/simlab/serve_load_smoke.json \
  --bench-out target/simlab/serve_bench_smoke.json --check
# Keep-alive path: the same gate over persistent pipelined connections,
# plus a conservative warm-throughput floor (release build on one core
# sustains tens of thousands of rps; 5k catches an event-loop regression
# without being flaky on slow CI hosts).
./target/release/fair-load --addr "$ADDR" --exp e2 --trials 200 \
  --connections 4 --pipeline 8 --points 4 --repeat 50 \
  --out target/simlab/serve_load_keepalive_smoke.json \
  --bench-out target/simlab/serve_bench_keepalive_smoke.json --check
python3 - <<'EOF'
import json
with open("target/simlab/serve_load_keepalive_smoke.json") as fh:
    doc = json.load(fh)
assert doc["mode"] == "persistent", doc["mode"]
rps = doc["achieved_rps"]
assert rps >= 5000, f"keep-alive warm path too slow: {rps} rps < 5000 floor"
print(f"keep-alive warm path: {rps} rps (floor 5000)")
EOF
# Graceful shutdown: the server drains, flushes metrics, and exits cleanly.
./target/release/fair-load shutdown --addr "$ADDR"
wait "$SERVE_PID"
rm -f "$SERVE_OUT"
test -s target/simlab/serve_metrics.json

echo "== fair-serve sharded smoke (--loops 2, correctness-only gate)"
# Correctness only — no throughput floor: both gates (0 errors, warm
# cache hits) must hold when accepts are sharded across two event loops,
# and the group must still drain cleanly on shutdown.
SHARD_OUT="$(mktemp)"
SHARD_METRICS="$(mktemp)"
./target/release/fair-serve --addr 127.0.0.1:0 --workers 2 --loops 2 \
  --metrics-out "$SHARD_METRICS" > "$SHARD_OUT" &
SHARD_PID=$!
SADDR=""
for _ in $(seq 100); do
  SADDR="$(sed -n 's/^ADDR=//p' "$SHARD_OUT")"
  [ -n "$SADDR" ] && break
  sleep 0.1
done
[ -n "$SADDR" ] || { echo "fair-serve (sharded) never reported its address"; kill "$SHARD_PID"; exit 1; }
./target/release/fair-load --addr "$SADDR" --exp e2 --trials 200 \
  --connections 4 --pipeline 4 --points 4 --repeat 8 --server-loops 2 \
  --out target/simlab/serve_load_sharded_smoke.json \
  --bench-out target/simlab/serve_bench_sharded_smoke.json --check
./target/release/fair-load shutdown --addr "$SADDR"
wait "$SHARD_PID"
# The aggregated snapshot reports both loops.
grep -q '"loops": 2' "$SHARD_METRICS"
rm -f "$SHARD_OUT" "$SHARD_METRICS"

echo "== tile-store restart smoke (warm-from-disk byte identity + /stream)"
TILES_DIR="$(mktemp -d)"
BODY_COLD="$(mktemp)"
BODY_WARM="$(mktemp)"
TSERVE_OUT="$(mktemp)"
TMETRICS="$(mktemp)"
boot_tiles_server() {
  : > "$TSERVE_OUT"
  ./target/release/fair-serve --addr 127.0.0.1:0 --workers 2 \
    --tiles-dir "$TILES_DIR" > "$TSERVE_OUT" &
  TSERVE_PID=$!
  TADDR=""
  for _ in $(seq 100); do
    TADDR="$(sed -n 's/^ADDR=//p' "$TSERVE_OUT")"
    [ -n "$TADDR" ] && break
    sleep 0.1
  done
  [ -n "$TADDR" ] || { echo "fair-serve (tiles) never reported its address"; kill "$TSERVE_PID"; exit 1; }
}
# Cold boot: compute one point, and stream the same experiment with a
# loose epsilon — the adaptive stopper must converge ("done":true).
boot_tiles_server
GET_OUT="$(./target/release/fair-load get --addr "$TADDR" \
  --target '/estimate?exp=e2&trials=320&seed=9' --out "$BODY_COLD")"
echo "$GET_OUT" | grep -q 'X-CACHE=miss'
STREAM_OUT="$(./target/release/fair-load get --addr "$TADDR" \
  --target '/stream?exp=e2&trials=5000&seed=9&epsilon=0.2')"
echo "$STREAM_OUT" | grep -q '"done":true'
./target/release/fair-load shutdown --addr "$TADDR"
wait "$TSERVE_PID"
# Reboot on the same directory: the point comes back warm from disk —
# tiles loaded, lookups hit, and the body byte-identical to the cold one.
boot_tiles_server
./target/release/fair-load get --addr "$TADDR" \
  --target '/estimate?exp=e2&trials=320&seed=9' --out "$BODY_WARM" > /dev/null
cmp "$BODY_COLD" "$BODY_WARM"
./target/release/fair-load get --addr "$TADDR" --target '/metrics' --out "$TMETRICS" > /dev/null
grep -q '"loaded_records": [1-9]' "$TMETRICS"
grep -q '"hits": [1-9]' "$TMETRICS"
./target/release/fair-load shutdown --addr "$TADDR"
wait "$TSERVE_PID"
rm -rf "$TILES_DIR"
rm -f "$BODY_COLD" "$BODY_WARM" "$TSERVE_OUT" "$TMETRICS"

echo "== ci.sh: all green"
