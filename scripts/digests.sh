#!/usr/bin/env bash
# Bit-identity fingerprint of the benchmark: builds the release perfbench
# binary and runs every workload at seeds 1 and 1009 (`--seconds 1
# --trace 0`), printing one line per run:
#
#   <workload> <seed> <digest> <counts>
#
# The digest and the per-layer counts are per repetition, so they do not
# depend on how many repetitions fit the window.
#
#   scripts/digests.sh          # this checkout's ten lines (~40 s)
#   scripts/digests.sh <rev>    # ...and a bit-identity check against <rev>
#
# With a revision, the script exports <rev> (`git archive`) into a
# temporary directory under target/, builds and runs the same ten runs
# there, prints `diff <rev> this-checkout`, and exits non-zero when the
# two differ. The export is removed on exit; the working tree is checked
# as it stands, uncommitted edits included.
#
# It only reads perfbench's report line; a run that exits non-zero fails
# the script.
set -euo pipefail
shopt -s inherit_errexit
cd "$(dirname "$0")/.."

# Print the ten lines of the checkout rooted at $1.
fingerprint() {
  cargo build -q --release --offline --manifest-path "$1/perfbench/Cargo.toml"
  local bin="$1/perfbench/target/release/ccr-perfbench" w s report digest counts
  for w in fabric_soak fabric_sparse gateway_overload admission_churn synthesis; do
    for s in 1 1009; do
      report=$("$bin" --workload "$w" --seed "$s" --seconds 1 --trace 0 2>/dev/null | grep '^{"report"')
      digest=$(sed -n 's/.*"digest":"\([0-9a-f]*\)".*/\1/p' <<<"$report")
      counts=$(sed -n 's/.*"counts":\({[^}]*}\).*/\1/p' <<<"$report")
      echo "$w $s $digest $counts"
    done
  done
}

if [[ $# -eq 0 ]]; then
  fingerprint .
  exit 0
fi

rev=$(git rev-parse --verify --quiet "$1^{commit}") || {
  echo "digests.sh: unknown revision '$1'" >&2
  exit 2
}
mkdir -p target
base=$(mktemp -d target/digests-base.XXXXXX)
trap 'rm -rf "$base"' EXIT
git archive "$rev" | tar -x -C "$base"

after=$(fingerprint .)
echo "$after"
before=$(fingerprint "$base")
if diff -u --label "$1" --label "this checkout" <(echo "$before") <(echo "$after"); then
  echo "bit-identical to $1 (${rev:0:12})"
else
  echo "differs from $1 (${rev:0:12})" >&2
  exit 1
fi
