#!/usr/bin/env sh
# Documentation gate, run as part of tier-1 verification:
#
#   1. rustdoc over every workspace crate with warnings promoted to
#      errors (broken intra-doc links, missing docs on public items —
#      the crates opt in via #![warn(missing_docs)]);
#   2. every doc example compiled and executed as a doctest;
#   3. every crates/, tests/, scripts/, benchmark/ or docs/ file path
#      quoted in README.md and docs/*.md exists, so moving or splitting
#      a source file cannot leave a dangling code pointer behind;
#   4. every row of docs/architecture.md's "Ordering guarantees,
#      summarised" table either says it promises nothing or names
#      `tests/<file>.rs::<fn>` tests, and each named file has that fn;
#   5. every `Request::<Variant>` and `CacheReply::<Variant>` quoted in
#      README.md and docs/*.md is declared in crates/psrpc/src/message.rs,
#      so deleting a wire message cannot leave the docs describing it.
#
# Also available as `cargo docs-check` (alias in .cargo/config.toml)
# for step 1 only.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo doc --no-deps (RUSTDOCFLAGS='-D warnings')"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo test --doc"
cargo test -q --doc --workspace

echo "==> code pointers in README.md and docs/*.md"
# A path counts only when its first component starts the token, so
# crates/gapl/tests/x.rs is not also read as tests/x.rs; trailing
# sentence punctuation is not part of a path, and globs are skipped.
missing=$(grep -ohE '(^|[^A-Za-z0-9_./*-])(crates|tests|scripts|benchmark|docs)/[A-Za-z0-9_./*-]+' \
        README.md docs/*.md |
    sed -E 's/^[^a-z]//; s/[.,:;]+$//' | sort -u |
    while read -r path; do
        case "$path" in *\**) continue ;; esac
        [ -e "$path" ] || echo "  $path"
    done)
if [ -n "$missing" ]; then
    echo "README.md / docs/*.md point at files that do not exist:" >&2
    echo "$missing" >&2
    exit 1
fi

echo "==> ordering guarantees name the tests that check them"
# Rows of the table (header dropped); the last column is "Checked by".
rows=$(sed -n '/^## Ordering guarantees, summarised/,/^## /p' docs/architecture.md |
    grep '^| ' | tail -n +2 || true)
if [ -z "$rows" ]; then
    echo "docs/architecture.md has no ordering-guarantees table" >&2
    exit 1
fi
unchecked=$(printf '%s\n' "$rows" |
    while IFS= read -r row; do
        scope=$(printf '%s\n' "$row" | awk -F'|' '{ print $2 }')
        checked=$(printf '%s\n' "$row" | awk -F'|' '{ print $(NF-1) }')
        case "$checked" in *"no guarantee"*) continue ;; esac
        tests=$(printf '%s\n' "$checked" | grep -oE 'tests/[A-Za-z0-9_]+\.rs::[A-Za-z0-9_]+' || true)
        if [ -z "$tests" ]; then
            echo "  $scope: names no test"
            continue
        fi
        for t in $tests; do
            grep -qE "fn ${t##*::}([^A-Za-z0-9_]|\$)" "${t%%::*}" 2>/dev/null ||
                echo "  $scope: $t does not exist"
        done
    done)
if [ -n "$unchecked" ]; then
    echo "docs/architecture.md ordering guarantees without an existing test:" >&2
    echo "$unchecked" >&2
    exit 1
fi

echo "==> wire messages quoted in README.md and docs/*.md exist"
# The variants of `pub enum $1` in message.rs: one per line, each
# either a unit variant (`Ping,`) or the head of a struct variant.
variants() {
    sed -n "/^pub enum $1 {/,/^}/p" crates/psrpc/src/message.rs |
        sed -nE 's/^    ([A-Z][A-Za-z0-9]*)( \{|,).*/\1/p'
}
unknown=$(grep -ohE '\b(Request|CacheReply)::[A-Z][A-Za-z0-9]*' README.md docs/*.md |
    sort -u |
    while read -r quoted; do
        variants "${quoted%%::*}" | grep -qx "${quoted##*::}" || echo "  $quoted"
    done)
if [ -n "$unknown" ]; then
    echo "README.md / docs/*.md quote wire messages message.rs does not declare:" >&2
    echo "$unknown" >&2
    exit 1
fi

echo "docs are warning-free, every doc example passes, every code pointer resolves,"
echo "every ordering guarantee names an existing test, every quoted wire message exists"
