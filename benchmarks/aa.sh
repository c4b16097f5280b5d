#!/usr/bin/env bash
# A/A check: runs every workload of BENCHMARK.json RUNS times in each of two
# sets, every run with another seed, and prints for each workload and
# end-to-end metric both medians, the spread of each set (distance between
# its quartiles as a share of its median, as statistics.quantiles(n=4) gives
# them), how much worse the second median is than the first, and the bound.
# One rule for every metric: a spread above the bound, or a second median
# worse by more than the bound, is "refused"; the aim is a spread below a
# third of the bound.
#
#   bash benchmarks/aa.sh            # 2 x 10 runs per workload, about 45 minutes
#   RUNS=5 bash benchmarks/aa.sh     # the table in README.md was made with 10
#
# Run it from the root of the repository. Results are kept under
# benchmarks/out/aa/.
set -euo pipefail

runs=${RUNS:-10}
out=benchmarks/out/aa
rm -rf "$out"
mkdir -p "$out"
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

for set in 1 2; do
  for w in $workloads; do
    for i in $(seq 1 "$runs"); do
      seed=$(( (set - 1) * runs + i ))
      bash benchmarks/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 > "$out/$w.$set.$seed.log"
      tail -n 1 "$out/$w.$set.$seed.log" > "$out/$w.$set.$seed.json"
      echo "set $set $w seed $seed: $(grep -h "host.steal_pct" "$out/$w.$set.$seed.log" | tr -s ' ')" >&2
    done
  done
done

python3 - "$out" <<'EOF'
import glob, json, statistics, sys
out = sys.argv[1]
bench = json.load(open("BENCHMARK.json"))
print("| workload | metric | median 1 | median 2 | spread 1 | spread 2 | 2 worse by | bound | verdict |")
print("|---|---|---|---|---|---|---|---|---|")
for w in (x["name"] for x in bench["workloads"]):
    for m in bench["end_to_end"]:
        med, spread = [], []
        for s in (1, 2):
            runs = [json.load(open(f)) for f in sorted(glob.glob(f"{out}/{w}.{s}.*.json"))]
            assert all(r["correct"] and r["failed"] == 0 for r in runs), f"{w}: a run failed its checks"
            v = [r["metrics"][m["name"]]["value"] for r in runs]
            q = statistics.quantiles(v, n=4)
            med.append(statistics.median(v))
            spread.append((q[2] - q[0]) / med[-1])
        worse = (med[1] - med[0]) / med[0] * (1 if m["better"] == "lower" else -1)
        verdict = "refused" if max(spread) > m["bound"] or worse > m["bound"] else \
                  "ok" if max(spread) <= m["bound"] / 3 else "ok, spread above a third of the bound"
        print(f"| {w} | {m['name']} | {med[0]:.4g} | {med[1]:.4g} | {spread[0]:.1%} | {spread[1]:.1%} | {worse:+.1%} | {m['bound']:.0%} | {verdict} |")
EOF
