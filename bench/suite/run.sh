#!/usr/bin/env bash
# The repo benchmark runner. Builds bench/suite (Release, into
# .bench_build/suite) and runs rotom_bench, one process per workload run.
#
#   bench/suite/run.sh                      every workload once, untraced
#   bench/suite/run.sh --workload W --seed N --seconds S --trace 0|1
#                                           one run; its last stdout line is
#                                           the result JSON
#   bench/suite/run.sh --trace              per workload: an untraced and a
#                                           traced run, every per-layer
#                                           metric, and the tracing overhead
#                                           of each end-to-end metric
#   bench/suite/run.sh --repeat N           N sets (seeds 1..N), one JSON per
#                                           run, then median / quartiles /
#                                           spread per (workload, metric)
#   bench/suite/run.sh --smoke              every workload at reduced size,
#                                           untraced and traced, checked
#                                           against BENCHMARK.json
#
# Other options: --build-dir DIR (default .bench_build/suite). Exits non-zero
# when a build fails, a correctness check fails, or (with --smoke) a
# declared metric is missing, repeated or carries another unit.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
cd "$root"

workloads=()
seed=1
seconds=""
trace=""
repeat=0
smoke=0
build_dir="$root/.bench_build/suite"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workloads+=("$2"); shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      if [[ "${2:-}" == "0" || "${2:-}" == "1" ]]; then trace="$2"; shift 2
      else trace="both"; shift; fi ;;
    --repeat) repeat="$2"; shift 2 ;;
    --smoke) smoke=1; shift ;;
    --build-dir) build_dir="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

if [[ ! -f "$root/src/rotom/api.h" || ! -f "$root/CMakeLists.txt" ]]; then
  echo "run.sh: the rotom sources are not in $root; nothing to build" >&2
  exit 2
fi
if [[ ${#workloads[@]} -eq 0 ]]; then
  workloads=(em_rotom ag_stream serve_mixed)
fi
if [[ -z "$seconds" ]]; then
  seconds="$(grep -o '"run_seconds": *[0-9]*' "$root/BENCHMARK.json" | grep -o '[0-9]*$')"
fi

# ---- Build (Release; serialized between concurrent runs) ----
mkdir -p "$build_dir/tmp"
export TMPDIR="$build_dir/tmp"
generator=()
if command -v ninja > /dev/null; then generator=(-G Ninja); fi
{
  if command -v flock > /dev/null; then flock 9; fi
  if [[ ! -f "$build_dir/CMakeCache.txt" ]]; then
    cmake -S "$here" -B "$build_dir" "${generator[@]}" \
      -DCMAKE_BUILD_TYPE=Release > "$build_dir/configure.log" 2>&1 || {
      tail -n 30 "$build_dir/configure.log" >&2
      rm -f "$build_dir/CMakeCache.txt"
      echo "run.sh: configure failed" >&2
      exit 1
    }
  fi
  cmake --build "$build_dir" --target rotom_bench -j "$(nproc)" \
    > "$build_dir/build.log" 2>&1 || {
    tail -n 40 "$build_dir/build.log" >&2
    echo "run.sh: build failed" >&2
    exit 1
  }
} 9> "$build_dir/build.lock"

bench="$build_dir/rotom_bench"
git_sha=unknown
if [[ -e "$root/.git" ]]; then
  git_sha="$(git -C "$root" rev-parse --short HEAD 2> /dev/null || echo unknown)"
fi
common=(--work-dir "$build_dir/work" --trace-dir "$build_dir/traces"
        --git-sha "$git_sha")
if [[ $smoke -eq 1 ]]; then common+=(--smoke); fi

# run_one WORKLOAD SEED TRACE: one process; stdout passes through.
run_one() {
  "$bench" --workload "$1" --seed "$2" --seconds "$seconds" --trace "$3" \
    "${common[@]}"
}

# ---- Plain runs: one process per named workload ----
if [[ $repeat -eq 0 && $smoke -eq 0 && "$trace" != "both" ]]; then
  status=0
  for w in "${workloads[@]}"; do
    run_one "$w" "$seed" "${trace:-0}" || status=$?
  done
  exit $status
fi

out_dir="$build_dir/results/$(date +%Y%m%d-%H%M%S)-$$"
mkdir -p "$out_dir"
status=0

# ---- --smoke: reduced sizes, untraced + traced, checked against the spec ----
if [[ $smoke -eq 1 ]]; then
  seconds=2
  for w in "${workloads[@]}"; do
    for t in 0 1; do
      run_one "$w" "$seed" "$t" > "$out_dir/$w-trace$t.txt" || {
        echo "run.sh: $w --trace $t failed" >&2
        cat "$out_dir/$w-trace$t.txt" >&2
        status=1
      }
    done
  done
  python3 - "$root/BENCHMARK.json" "$out_dir" "${workloads[@]}" << 'EOF' || status=1
import json, sys
spec = json.load(open(sys.argv[1]))
out_dir, workloads = sys.argv[2], sys.argv[3:]
problems = []
for w in workloads:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        path = f"{out_dir}/{w}-trace{trace}.txt"
        lines = open(path).read().splitlines()
        if not lines:
            problems.append(f"{path}: no output"); continue
        result = json.loads(lines[-1])
        if result.get("correct") is not True or result.get("failed") != 0:
            problems.append(f"{w} trace {trace}: correctness check failed")
        printed = [l.split() for l in lines[:-1] if l.startswith(w + " ")]
        for m in spec[section]:
            rows = [p for p in printed if p[1] == m["name"]]
            if len(rows) != 1:
                problems.append(f"{w}: {m['name']} printed {len(rows)} times")
            elif rows[0][3] != m["unit"]:
                problems.append(f"{w}: {m['name']} unit {rows[0][3]}, declared {m['unit']}")
            got = result["metrics"].get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                problems.append(f"{w} trace {trace}: {m['name']} missing from the result JSON")
        if set(result["metrics"]) != {m["name"] for m in spec[section]}:
            problems.append(f"{w} trace {trace}: result JSON metrics differ from BENCHMARK.json {section}")
for p in problems:
    print("smoke:", p, file=sys.stderr)
print(f"smoke: {len(workloads)} workloads checked, {len(problems)} problems")
sys.exit(1 if problems else 0)
EOF
  exit $status
fi

# ---- --trace: untraced + traced run per workload, with the overhead ----
if [[ "$trace" == "both" ]]; then
  for w in "${workloads[@]}"; do
    for t in 0 1; do
      run_one "$w" "$seed" "$t" > "$out_dir/$w-trace$t.txt" || status=1
    done
    python3 - "$root/BENCHMARK.json" "$out_dir/$w-trace0.txt" "$out_dir/$w-trace1.txt" "$w" << 'EOF'
import json, sys
spec = json.load(open(sys.argv[1]))
w = sys.argv[4]
def values(path):
    out = {}
    for line in open(path):
        parts = line.split()
        if len(parts) == 4 and parts[0] == w:
            out[parts[1]] = (float(parts[2]), parts[3])
    return out
off, on = values(sys.argv[2]), values(sys.argv[3])
for m in spec["per_layer"]:
    if m["name"] in on:
        print(f"{w} {m['name']} {on[m['name']][0]:.6g} {m['unit']}")
for m in spec["end_to_end"]:
    if m["name"] in off and m["name"] in on:
        a, b = off[m["name"]][0], on[m["name"]][0]
        print(f"{w} overhead.{m['name']} {100.0 * (b - a) / a:+.2f} % "
              f"(untraced {a:.6g}, traced {b:.6g} {m['unit']})")
EOF
  done
  echo "traces: $build_dir/traces" >&2
  exit $status
fi

# ---- --repeat N: N sets, then the spread of every (workload, metric) ----
for ((i = 1; i <= repeat; i++)); do
  for w in "${workloads[@]}"; do
    if ! run_one "$w" "$i" 0 > "$out_dir/$w-seed$i.txt"; then
      echo "run.sh: $w seed $i failed" >&2
      status=1
    fi
    tail -n 1 "$out_dir/$w-seed$i.txt" > "$out_dir/$w-seed$i.json"
  done
done
python3 - "$root/BENCHMARK.json" "$out_dir" "$repeat" "${workloads[@]}" << 'EOF'
import json, statistics, sys
spec = json.load(open(sys.argv[1]))
out_dir, n, workloads = sys.argv[2], int(sys.argv[3]), sys.argv[4:]
print(f"{'workload':<12} {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} "
      f"{'iqr/med':>8} {'range/med':>9} {'bound':>6}")
flagged = 0
for w in workloads:
    runs = []
    for i in range(1, n + 1):
        try:
            runs.append(json.load(open(f"{out_dir}/{w}-seed{i}.json"))["metrics"])
        except (OSError, ValueError, KeyError):
            pass
    for m in spec["end_to_end"]:
        vals = [r[m["name"]]["value"] for r in runs if m["name"] in r]
        if len(vals) < 2:
            continue
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        iqr = (q3 - q1) / med if med else float("inf")
        rng = (max(vals) - min(vals)) / med if med else float("inf")
        flag = ""
        if iqr > m["bound"]:
            flag = "  SPREAD > BOUND"
        elif iqr > m["bound"] / 3 and m["name"] != "setup_s":
            flag = "  spread > bound/3"
        flagged += bool(flag)
        print(f"{w:<12} {m['name']:<18} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{iqr:>8.3f} {rng:>9.3f} {m['bound']:>6}{flag}")
print(f"{n} sets, results in {out_dir}; {flagged} flagged")
EOF
exit $status
