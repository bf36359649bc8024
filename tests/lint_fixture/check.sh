#!/bin/sh
# Runs clippy over the seeded-violation fixture `lib.rs` next to this script
# and fails unless every policy lint rejects its seeded site.
#
# The fixture takes the real policy, not a copy: its [lints] tables are the
# [workspace.lints] tables of the root Cargo.toml (the simulation crates'
# levels), and CLIPPY_CONF_DIR points clippy at each clippy.toml in turn, so
# a ban dropped from any of them fails here.
#
#   sh tests/lint_fixture/check.sh
set -eu
root=$(cd "$(dirname "$0")/../.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/src"
cp "$root/tests/lint_fixture/lib.rs" "$work/src/lib.rs"
{
    printf '[package]\nname = "lint-fixture"\nversion = "0.0.0"\nedition = "2021"\n\n[workspace]\n\n'
    awk '/^\[/ { keep = /^\[workspace\.lints\./ } keep' "$root/Cargo.toml" |
        sed 's/^\[workspace\.lints\./[lints./'
} >"$work/Cargo.toml"

status=0
# expect <clippy.toml dir> <message>...: clippy must print every message.
expect() {
    conf=$1
    shift
    touch "$work/src/lib.rs"
    out=$(CLIPPY_CONF_DIR="$root/$conf" cargo clippy --quiet \
        --manifest-path "$work/Cargo.toml" --target-dir "$work/target" 2>&1 || true)
    for want in "$@"; do
        if ! printf '%s\n' "$out" | grep -qF "$want"; then
            echo "$conf/clippy.toml: clippy did not reject: $want"
            status=1
        fi
    done
}

hash='disallowed type `std::collections::HashMap`'
thread='disallowed method `std::thread::spawn`'
clock='disallowed method `std::time::Instant::now`'
env='disallowed method `std::env::var`'

expect crates "$hash" "$thread" "$clock" "$env" \
    'used `unwrap()`' 'used `expect()`' '`panic` should not be present' \
    'casting `u64` to `u32` may truncate' 'usage of an `unsafe` block'
expect crates/experiments "$hash" "$thread" "$clock"
expect . "$hash" "$thread"

[ "$status" -eq 0 ] && echo "clippy rejects every seeded violation"
exit "$status"
