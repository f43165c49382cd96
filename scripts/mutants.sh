#!/usr/bin/env bash
# Mutant census: applies each scripts/mutants/*.patch (a hand-seeded
# change to one protocol decision) to a copy of the committed tree, runs
# `cargo test --workspace` and `fleet --scale quick --filter chaos` on
# it, and prints one row a mutant: killed or survived, and the first
# test that failed. The table in docs/FAULTS.md ("Mutant census") is
# this output.
#
#   bash scripts/mutants.sh                 # every patch
#   bash scripts/mutants.sh ring-covers-or  # patches whose name matches
#
# The copy lives in a temporary directory (under TMPDIR, removed on
# exit) with one target directory, so each mutant after the first
# rebuilds only the crates its patch reaches. Each patch is reverted
# after its run, which re-stamps the file and forces the next build to
# see the original.
# Not a CI step: a mutant costs a workspace test run.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
git -C "$repo" archive HEAD | tar -x -C "$work"
export CARGO_NET_OFFLINE=1

# The first failing test of a `cargo test` log, as `<test binary> <test>`.
first_failure() {
    awk '/^     Running / { t = $NF; gsub(/[()]/, "", t); sub(/.*\//, "", t)
                             sub(/-[0-9a-f]+$/, "", t); target = t }
         /^---- .* stdout ----$/ { print target, $2; exit }
         /^error(\[|:)/ { print "build", "error"; exit }' "$1"
}

printf '%-26s %-9s %-44s %s\n' mutant verdict "cargo test --workspace" "fleet chaos"
for patch in "$repo"/scripts/mutants/*.patch; do
    name="$(basename "$patch" .patch)"
    [[ -n "${1:-}" && "$name" != *"$1"* ]] && continue
    (cd "$work" && patch -s -p1 < "$patch")
    log="$work/$name"
    tests=pass
    if ! (cd "$work" && cargo test --workspace) > "$log.test" 2>&1; then
        tests="$(first_failure "$log.test")"
    fi
    chaos=pass
    if ! (cd "$work" && cargo build -q --release -p tiger-bench --bin fleet \
        && target/release/fleet --scale quick --filter chaos) > "$log.chaos" 2>&1; then
        chaos="$(grep -m1 -o 'FAILED.*' "$log.chaos" || echo failed)"
    fi
    verdict=killed
    [[ "$tests" == pass && "$chaos" == pass ]] && verdict=survived
    printf '%-26s %-9s %-44s %s\n' "$name" "$verdict" "$tests" "$chaos"
    (cd "$work" && patch -s -R -p1 < "$patch")
done
