#!/usr/bin/env bash
# Bit-identity fingerprint of the benchmark: builds the release perfbench
# binary and runs every workload at seeds 1 and 1009 (`--seconds 1
# --trace 0`), printing one line per run:
#
#   <workload> <seed> <digest> <counts>
#
# The digest and the per-layer counts are per repetition, so they do not
# depend on how many repetitions fit the window. A change that claims to
# leave every output bit-identical is checked with one diff of this
# script's output at the parent commit and at the change:
#
#   scripts/digests.sh > after.txt
#   (cd ../parent-checkout && scripts/digests.sh) > before.txt
#   diff before.txt after.txt
#
# It only reads perfbench's report line; a run that exits non-zero fails
# the script.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build -q --release --offline --manifest-path perfbench/Cargo.toml
bin=perfbench/target/release/ccr-perfbench

for w in fabric_soak fabric_sparse gateway_overload admission_churn synthesis; do
  for s in 1 1009; do
    report=$("$bin" --workload "$w" --seed "$s" --seconds 1 --trace 0 2>/dev/null | grep '^{"report"')
    digest=$(sed -n 's/.*"digest":"\([0-9a-f]*\)".*/\1/p' <<<"$report")
    counts=$(sed -n 's/.*"counts":\({[^}]*}\).*/\1/p' <<<"$report")
    echo "$w $s $digest $counts"
  done
done
