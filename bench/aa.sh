#!/usr/bin/env bash
# A/A check: runs the benchmark as two interleaved sets (A1 B1 A2 B2 ...)
# on the one commit in the working tree, writes bench/results/aa.md with,
# per workload and end-to-end metric, both medians, their relative gap
# and the bound, writes the pooled medians to bench/results/baseline.json,
# and fails when any gap exceeds half its bound. Two sets of the same
# code differ only by the machine, so a gap here is the noise a later
# comparison of two commits has to beat.
#
#   bench/aa.sh            # 5 runs per set, about 20 minutes
#   RUNS=3 bench/aa.sh
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS="${RUNS:-5}"
SECONDS_PER_RUN="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
OUT=bench/out/aa
rm -rf "$OUT"
mkdir -p "$OUT" bench/results
go build -o "$OUT/bench" ./bench

for i in $(seq 1 "$RUNS"); do
  for set in A B; do
    for w in cohort-cold clinic-warm ward-stream kdb-replica; do
      echo "aa: set $set run $i: $w" >&2
      "$OUT/bench" -workload "$w" -seed "$i" -seconds "$SECONDS_PER_RUN" -trace 0 -out "$OUT/work" \
        | tail -n 1 > "$OUT/$set-$i-$w.json"
    done
  done
done

python3 - "$OUT" "$RUNS" <<'EOF'
import json, statistics, subprocess, sys
out, runs = sys.argv[1], int(sys.argv[2])
spec = json.load(open("BENCHMARK.json"))
def git(*args):
    return subprocess.run(["git", *args], capture_output=True, text=True).stdout.strip()
commit = git("rev-parse", "--short", "HEAD") or "unknown"
if git("status", "--porcelain", "--", "bench", "internal", "cmd", "go.mod"):
    commit += " plus uncommitted changes"
rows, baseline, worst, failed = [], {}, 0.0, []
for w in [x["name"] for x in spec["workloads"]]:
    for m in spec["end_to_end"]:
        med = {}
        pooled = []
        for s in "AB":
            vals = []
            for i in range(1, runs + 1):
                r = json.load(open(f"{out}/{s}-{i}-{w}.json"))
                if not r["correct"]:
                    failed.append(f"{s}{i} {w}: incorrect ({r['failed']} of {r['attempted']} failed)")
                vals.append(r["metrics"][m["name"]]["value"])
            med[s] = statistics.median(vals)
            pooled += vals
        gap = abs(med["A"] - med["B"]) / min(med["A"], med["B"])
        ok = gap <= m["bound"] / 2
        worst = max(worst, gap / m["bound"])
        if not ok:
            failed.append(f"{w} {m['name']}: gap {gap:.2%} exceeds half the bound {m['bound']:.0%}")
        rows.append(f"| {w} | {m['name']} | {m['unit']} | {med['A']:.4f} | {med['B']:.4f} | {gap:.2%} | {m['bound']:.0%} | {'ok' if ok else 'FAIL'} |")
        baseline.setdefault(w, {})[m["name"]] = {"value": statistics.median(pooled), "unit": m["unit"]}
with open("bench/results/aa.md", "w") as f:
    f.write(f"# A/A: two interleaved sets of {runs} runs of commit {commit}\n\n")
    f.write(f"`bench/aa.sh` writes this file. Each cell is the median of {runs} runs of {spec['run_seconds']} s "
            "(`-trace 0`); the gap is |A − B| over the smaller; a gap above half the bound fails the check.\n\n")
    f.write("| workload | metric | unit | set A | set B | gap | bound | |\n|---|---|---|---:|---:|---:|---:|---|\n")
    f.write("\n".join(rows) + "\n\n")
    f.write(f"Largest gap as a share of its bound: {worst:.0%}.\n")
json.dump({"commit": commit, "runs_per_set": runs, "run_seconds": spec["run_seconds"], "workloads": baseline},
          open("bench/results/baseline.json", "w"), indent=2)
open("bench/results/baseline.json", "a").write("\n")
for msg in failed:
    print("aa: FAIL:", msg, file=sys.stderr)
sys.exit(1 if failed else 0)
EOF
echo "aa: wrote bench/results/aa.md and bench/results/baseline.json" >&2
