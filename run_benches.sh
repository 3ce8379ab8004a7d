#!/bin/bash
# Full bench sweep with default flags; per-binary wall cap as a safety net.
# Paths resolve from this script's directory, so the sweep runs from any
# checkout once `build/` is built there.
set -u
repo=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
bin=$repo/build/bench
out=$repo/bench_output.txt
: > "$out"
for b in "$bin"/bench_table4 "$bin"/bench_table5 \
         "$bin"/bench_table6 "$bin"/bench_table7 \
         "$bin"/bench_fig6 "$bin"/bench_fig7 \
         "$bin"/bench_fig8 "$bin"/bench_ablation; do
  echo "############ $(basename "$b") ############" >> "$out"
  timeout 2400 "$b" >> "$out" 2>&1
  echo "(exit: $?)" >> "$out"
  echo >> "$out"
done
echo "############ bench_main ############" >> "$out"
timeout 2400 "$bin"/bench_main --faults \
  --json="$repo"/BENCH_main.json >> "$out" 2>&1
echo "(exit: $?)" >> "$out"
echo >> "$out"
echo "############ bench_parallel ############" >> "$out"
timeout 2400 "$bin"/bench_parallel --threads=1,2,4,8 \
  --json="$repo"/BENCH_parallel.json >> "$out" 2>&1
echo "(exit: $?)" >> "$out"
echo >> "$out"
echo "############ bench_serve ############" >> "$out"
timeout 2400 "$bin"/bench_serve --faults \
  --json="$repo"/BENCH_serve.json >> "$out" 2>&1
echo "(exit: $?)" >> "$out"
echo >> "$out"
echo "############ bench_micro ############" >> "$out"
timeout 900 "$bin"/bench_micro --benchmark_min_time=0.2 >> "$out" 2>&1
echo "(exit: $?)" >> "$out"
echo ALL-DONE >> "$out"
