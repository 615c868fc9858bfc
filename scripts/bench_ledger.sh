#!/usr/bin/env bash
# Benchmark ledger: writes one commit's numbers to BENCH_<n>.json at the
# repository root, so a performance change commits its before/after as
# data instead of prose (ROADMAP item 3).
#
#   1. perfbench (perfbench/run.py, unmodified) on day_variants and
#      capacity_sweep at seed 1, with --trace 0 (end-to-end metrics) and
#      --trace 1 (per-layer metrics). Each run's JSON result line is kept.
#   2. bench_stream_scale at --scale=4 and --scale=60 (--chunk=65536),
#      traced. Kept: requests, wall seconds, Mreq/s, peak RSS and the span
#      totals (calls and seconds per span name).
#   3. Context: git sha, build type, parallel threads and nproc.
#
# Usage: scripts/bench_ledger.sh N [--skip-trace1] [build-dir]
#   N names the file: a PR number for a committed ledger, or e.g. "ci".
#
# perfbench --trace 1 also replays a trace prefix through replay_cluster,
# which starts one thread per satellite (1,296 on the 72x18 shell);
# --skip-trace1 leaves those runs out and records them as skipped.
# Reports only; it gates nothing. Bench artifacts land in
# ${LEDGER_OUT:-ledger_artifacts}.
set -euo pipefail
cd "$(dirname "$0")/.."

N=${1:?usage: scripts/bench_ledger.sh N [--skip-trace1] [build-dir]}
shift
TRACES="0 1"
if [ "${1:-}" = "--skip-trace1" ]; then
  TRACES="0"
  shift
fi
BUILD=${1:-build-ledger}
OUT=${LEDGER_OUT:-ledger_artifacts}
mkdir -p "$OUT"

echo "== build (Release) =="
if [ ! -f "$BUILD/CMakeCache.txt" ]; then
  cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "$BUILD" -j "$(nproc)" --target bench_stream_scale

for workload in day_variants capacity_sweep; do
  for trace in $TRACES; do
    echo "== perfbench $workload --trace $trace =="
    python3 perfbench/run.py --workload "$workload" --seed 1 \
      --trace "$trace" | tee "$OUT/perfbench_${workload}_trace${trace}.log"
  done
done

for scale in 4 60; do
  echo "== bench_stream_scale --scale=$scale =="
  "$BUILD/bench/bench_stream_scale" --scale="$scale" --chunk=65536 \
    --out="$OUT" --trace="$OUT/stream_scale_${scale}.json" |
    tee "$OUT/stream_scale_${scale}.log"
done

python3 - "$N" "$OUT" "$BUILD" "$TRACES" <<'EOF'
import json, os, re, subprocess, sys

n, out, build, traces = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4]

def git_sha():
    return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                          text=True, check=True).stdout.strip()

def result_line(path):
    with open(path) as f:
        lines = [l for l in f if l.startswith('{"correct"')]
    return json.loads(lines[-1]) if lines else None

perfbench = {}
for workload in ("day_variants", "capacity_sweep"):
    perfbench[workload] = {}
    for trace in ("0", "1"):
        key = f"trace{trace}"
        if trace not in traces.split():
            perfbench[workload][key] = "skipped"
            continue
        perfbench[workload][key] = result_line(
            f"{out}/perfbench_{workload}_trace{trace}.log")

stream = {}
for scale in ("4", "60"):
    with open(f"{out}/stream_scale_{scale}.log") as f:
        log = f.read()
    m = re.search(r"^streamed (\d+) requests in ([\d.]+) s \(([\d.]+) Mreq/s\)",
                  log, re.M)
    rss = re.search(r"^rss: peak=([\d.]+) MB", log, re.M)
    threads = int(re.search(r"^harness: threads=(\d+)", log, re.M).group(1))
    spans = {}
    with open(f"{out}/stream_scale_{scale}.json") as f:
        for e in json.load(f)["traceEvents"]:
            if e["ph"] != "X":
                continue
            s = spans.setdefault(e["name"], {"calls": 0, "total_s": 0.0})
            s["calls"] += 1
            s["total_s"] += e["dur"] * 1e-6
    for s in spans.values():
        s["total_s"] = round(s["total_s"], 6)
    stream[f"scale{scale}"] = {
        "requests": int(m.group(1)),
        "wall_s": float(m.group(2)),
        "mreq_per_s": float(m.group(3)),
        "peak_rss_mb": float(rss.group(1)) if rss else None,
        "spans": dict(sorted(spans.items())),
    }

build_type = None
with open(f"{build}/CMakeCache.txt") as f:
    for line in f:
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1].strip()
ledger = {
    "ledger": n,
    "git_sha": git_sha(),
    "build_type": build_type,
    "threads": threads,
    "nproc": os.cpu_count(),
    "perfbench_seed": 1,
    "perfbench": perfbench,
    "bench_stream_scale": stream,
}
with open(f"BENCH_{n}.json", "w") as f:
    json.dump(ledger, f, indent=2)
    f.write("\n")
print(f"wrote BENCH_{n}.json")
EOF
