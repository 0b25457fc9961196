#!/bin/sh
# Usage: sh scripts/test-nonempty.sh CARGO-TEST-ARGS...
#
# Runs `cargo test` with the given arguments and fails when they select
# no test at all. A name filter that a rename leaves matching nothing
# would otherwise pass with "0 passed".
set -eu
log=$(mktemp)
trap 'rm -f "$log"' EXIT
status=0
cargo test "$@" >"$log" || status=$?
cat "$log"
[ "$status" -eq 0 ] || exit "$status"
if ! grep -q '^test result: ok\. [1-9]' "$log"; then
    echo "error: cargo test $* selected no test" >&2
    exit 1
fi
