#!/bin/sh
# Runs every experiment binary under crates/experiments/src/bin/ at full
# scale: each one's output goes to results/<bin>.txt, and one line per
# binary (OK with its wall time, or FAILED) to results/progress.log.
for src in crates/experiments/src/bin/*.rs; do
  b=$(basename "$src" .rs)
  start=$(date +%s)
  if cargo run -q --release -p fullview-experiments --bin "$b" -- --csv > "results/$b.txt" 2>&1; then
    end=$(date +%s)
    echo "$b OK $((end-start))s" >> results/progress.log
  else
    echo "$b FAILED" >> results/progress.log
  fi
done
echo ALL_DONE > results/done.marker
