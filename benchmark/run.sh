#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh once --workload NAME --seed N --seconds S --trace 0|1
#       Builds the harness and makes one run; the last line of standard
#       output is the result object. This is the form BENCHMARK.json's
#       `command` names and the builder contract's driver calls.
#
#   benchmark/run.sh [--quick] [--seed N] [--workload NAME] [--out FILE]
#       The full ruler: format and lint checks on the harness crate (the
#       root scripts/ci.sh does not see it), the harness self-tests, then
#       `perf run`: every workload five times interleaved plus a traced
#       round, every metric printed by name, benchmark/out/result.json
#       written. Exits non-zero if any correctness check fails.
#
# Everything builds offline from path dependencies. The target directory
# is CARGO_TARGET_DIR if the caller set one (the driver does), else the
# root workspace's target/ so the two builds share their artefacts.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
export CARGO_NET_OFFLINE=1
case "${CARGO_TARGET_DIR:-}" in
    "") CARGO_TARGET_DIR="$here/../target" ;;
    /*) ;;
    *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
esac
export CARGO_TARGET_DIR
cd "$here"

build() {
    # Cargo's progress goes to stderr; keep stdout for the results.
    cargo build --release --offline --quiet --bin perf 1>&2
}

if [ "${1:-}" = "once" ]; then
    build
    exec "$CARGO_TARGET_DIR/release/perf" "$@"
fi

if cargo fmt --version >/dev/null 2>&1; then
    echo "== cargo fmt --check" >&2
    cargo fmt --check
fi
echo "== cargo clippy --all-targets -- -D warnings" >&2
cargo clippy --release --offline --quiet --all-targets -- -D warnings
echo "== harness self-tests" >&2
cargo test --release --offline --quiet 1>&2
build
echo "== perf run $*" >&2
exec "$CARGO_TARGET_DIR/release/perf" run "$@"
