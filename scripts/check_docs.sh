#!/usr/bin/env sh
# Documentation gate, run as part of tier-1 verification:
#
#   1. rustdoc over every workspace crate with warnings promoted to
#      errors (broken intra-doc links, missing docs on public items —
#      the crates opt in via #![warn(missing_docs)]);
#   2. every doc example compiled and executed as a doctest;
#   3. every crates/, tests/, scripts/, benchmark/ or docs/ file path
#      quoted in README.md and docs/*.md exists, so moving or splitting
#      a source file cannot leave a dangling code pointer behind.
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

echo "docs are warning-free, every doc example passes, every code pointer resolves"
