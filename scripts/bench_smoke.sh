#!/usr/bin/env bash
# Bench smoke for CI (and local use): proves the observability layer works
# end-to-end and stays cheap. One Release build serves every step.
#
#   1. Runs one figure bench (Table 3) truncated via --epochs and streamed
#      via --chunk, with the epoch time-series CSVs and the chrome://tracing
#      JSON enabled, and sanity-checks the artifacts (CSV header, trace JSON
#      parses and holds the run, stage-1, variant and generation spans).
#   2. Runs the streamed-replay RSS gate: bench_stream_scale generates and
#      replays the video trace in SoA chunks without materializing it and
#      must stay under ${SMOKE_STREAM_RSS_MB:-1500} MB peak RSS. CI raises
#      SMOKE_STREAM_SCALE to paper scale (>=100M requests); the default
#      keeps local runs quick. The rss_report.csv lands in the artifacts.
#   3. Tracing overhead gate: runs bench_stream_scale at --scale=3 (~5M
#      requests) in 7 alternating traced/untraced pairs and fails if the
#      median per-pair wall ratio (traced over untraced) exceeds
#      ${SMOKE_OVERHEAD_LIMIT:-1.05}. Every traced run must also record at
#      most one trace event per 1,000 replayed requests: a deterministic
#      check that catches a per-request span whatever the timing noise.
#
# Usage: scripts/bench_smoke.sh [build-dir]
# Artifacts land in ${SMOKE_OUT:-smoke_artifacts}.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${1:-build-smoke}
OUT=${SMOKE_OUT:-smoke_artifacts}
OVERHEAD_LIMIT=${SMOKE_OVERHEAD_LIMIT:-1.05}
OVERHEAD_PAIRS=7

echo "== build (Release) =="
if [ ! -f "$BUILD/CMakeCache.txt" ]; then
  cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "$BUILD" -j "$(nproc)" \
  --target bench_table3_relay_availability bench_stream_scale

mkdir -p "$OUT"

echo "== figure bench end-to-end (Table 3, truncated, streamed) =="
"$BUILD/bench/bench_table3_relay_availability" \
  --epochs=40 --scale=0.05 --threads=2 --chunk=65536 \
  --out="$OUT" --series=smoke_ --trace="$OUT/table3_trace.json"

echo "== artifact checks =="
series_count=0
for f in "$OUT"/smoke_table3_*.csv; do
  [ -s "$f" ] || { echo "FAIL: empty series CSV $f"; exit 1; }
  head -1 "$f" | grep -q '^epoch,t_end_s,requests,' ||
    { echo "FAIL: bad series header in $f"; exit 1; }
  [ "$(wc -l <"$f")" -gt 2 ] || { echo "FAIL: too few rows in $f"; exit 1; }
  series_count=$((series_count + 1))
done
[ "$series_count" -ge 3 ] ||
  { echo "FAIL: expected >=3 series CSVs, got $series_count"; exit 1; }
python3 - "$OUT/table3_trace.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
assert trace.get("displayTimeUnit") == "ms", "missing displayTimeUnit"
assert len(events) > 10, f"too few trace events: {len(events)}"
phases = {e["ph"] for e in events}
assert phases <= {"X", "i"}, f"unexpected phases: {phases}"
names = {(e["name"], e["cat"]) for e in events}
for expected in (("Simulator::run", "core"), ("stage1_context", "core"),
                 ("StarCDN", "variant"), ("generate_window", "trace"),
                 ("epoch", "sim")):
    assert expected in names, f"missing event {expected}: {sorted(names)}"
print(f"trace OK: {len(events)} events, phases {sorted(phases)}")
EOF
echo "series CSVs OK ($series_count files)"

echo "== streamed replay + RSS budget gate =="
# Request count is duration-independent, so --epochs only trims the link
# schedule build; --scale=60 is >=100M requests (CI's paper-scale gate).
STREAM_SCALE=${SMOKE_STREAM_SCALE:-3}
STREAM_RSS_MB=${SMOKE_STREAM_RSS_MB:-1500}
"$BUILD/bench/bench_stream_scale" \
  --scale="$STREAM_SCALE" --chunk=65536 --epochs=480 --threads=2 \
  --rss-budget-mb="$STREAM_RSS_MB" --out="$OUT"
grep -q '^paper-scale streamed replay' "$OUT/rss_report.csv" ||
  { echo "FAIL: missing streamed-replay row in rss_report.csv"; exit 1; }
echo "streamed replay OK (scale=$STREAM_SCALE, budget ${STREAM_RSS_MB} MB)"

echo "== tracing overhead gate (${OVERHEAD_PAIRS} pairs, limit ${OVERHEAD_LIMIT}x) =="
mkdir -p "$OUT/overhead"
python3 - "$BUILD/bench/bench_stream_scale" "$OUT/overhead" \
  "$OVERHEAD_PAIRS" "$OVERHEAD_LIMIT" <<'EOF'
import json, re, statistics, subprocess, sys, time

binary, out = sys.argv[1], sys.argv[2]
pairs, limit = int(sys.argv[3]), float(sys.argv[4])
trace_path = f"{out}/stream_trace.json"
base = [binary, "--scale=3", "--chunk=65536", "--epochs=480", "--threads=2",
        f"--out={out}"]

def run(traced):
    args = base + ([f"--trace={trace_path}"] if traced else [])
    t0 = time.perf_counter()
    proc = subprocess.run(args, capture_output=True, text=True, check=True)
    wall = time.perf_counter() - t0
    requests = int(re.search(r"^streamed (\d+) requests", proc.stdout,
                             re.M).group(1))
    if traced:
        with open(trace_path) as f:
            events = len(json.load(f)["traceEvents"])
        # Spans mark phases, chunks and windows, never single requests.
        if events * 1000 > requests:
            sys.exit(f"FAIL: {events} trace events for {requests} requests "
                     f"(budget: 1 per 1,000)")
        print(f"  trace: {events} events for {requests} requests")
    return wall

ratios = []
for i in range(pairs):
    # Alternate which run goes first so host drift favours neither side.
    order = (True, False) if i % 2 == 0 else (False, True)
    wall = {traced: run(traced) for traced in order}
    ratios.append(wall[True] / wall[False])
    print(f"  pair {i + 1}: traced {wall[True]:.3f} s, untraced "
          f"{wall[False]:.3f} s, ratio {ratios[-1]:.3f}")
median = statistics.median(ratios)
print(f"median traced/untraced wall ratio: {median:.3f}x "
      f"(limit {limit:.2f}x)")
if median > limit:
    sys.exit(f"FAIL: tracing overhead {median:.3f}x exceeds {limit:.2f}x")
EOF

echo "bench smoke OK; artifacts in $OUT/"
