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
step "e19 calculus smoke"    cargo run -q --release -p ccr-netsim --bin ccr-experiments -- e19 --quick
step "e20 churn smoke"       cargo run -q --release -p ccr-netsim --bin ccr-experiments -- e20 --quick
step "e21 gateway smoke"     cargo run -q --release -p ccr-netsim --bin ccr-experiments -- e21 --quick
step "e22 survivability"     cargo run -q --release -p ccr-netsim --bin ccr-experiments -- e22 --quick
step "e23 synthesis smoke"   cargo run -q --release -p ccr-netsim --bin ccr-experiments -- e23 --quick
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
