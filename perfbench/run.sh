#!/usr/bin/env bash
# Builds the daemons under test and the benchmark from this checkout,
# then runs one benchmark pass:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output and scratch files go under $CARGO_TARGET_DIR (default
# .bench_build); the report goes to stdout and ends with one JSON line.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f Cargo.toml || ! -d crates/predictd || ! -d crates/predictgw || ! -d crates/modelcheck ]]; then
    echo "perfbench: $root is not a full checkout of the workspace" >&2
    exit 2
fi

target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline -q -p predictd -p predictgw -p modelcheck >&2
cargo build --release --offline -q --manifest-path perfbench/Cargo.toml >&2

# The pinned analyzer: modelcheck built from the sources inside the
# pinned tree, in a package and target directory of its own, with the
# workspace's release profile at the pinning commit. modelcheck_pinned
# times every scan of the analyzer under test against one of this, so
# the host's changing speed cancels out.
pinned="$target/perfbench-pinned"
archive=perfbench/pinned/tree.tar.gz
if [[ ! -f "$pinned/crate/Cargo.toml" || "$archive" -nt "$pinned/crate/Cargo.toml" ]]; then
    rm -rf "$pinned/crate"
    mkdir -p "$pinned/crate"
    tar -xzf "$archive" -C "$pinned/crate" --strip-components=2 crates/modelcheck/src
    cat > "$pinned/crate/Cargo.toml" <<'EOF'
[package]
name = "modelcheck"
version = "0.1.0"
edition = "2021"
publish = false

[workspace]

[profile.release]
debug = "line-tables-only"
EOF
fi
CARGO_TARGET_DIR="$pinned/target" cargo build --release --offline -q \
    --manifest-path "$pinned/crate/Cargo.toml" >&2
cp "$pinned/target/release/modelcheck" "$target/release/modelcheck-pinned"

export PERFBENCH_BIN_DIR="$target/release"
export PERFBENCH_DIR="$root/perfbench"
export PERFBENCH_TMP="$target/perfbench-tmp/$$"
export PERFBENCH_RUSTC="$(rustc --version)"
if sha="$(git rev-parse --short=12 HEAD 2>/dev/null)"; then
    export PERFBENCH_TREE="git $sha"
else
    export PERFBENCH_TREE="sources $(find Cargo.toml Cargo.lock crates perfbench -type f \
        \( -name '*.rs' -o -name 'Cargo.toml' -o -name 'Cargo.lock' \) -not -path '*/fixtures/*' \
        | LC_ALL=C sort | xargs cat | sha256sum | cut -c1-12)"
fi
trap 'rm -rf "$PERFBENCH_TMP"' EXIT
"$target/release/perfbench" "$@"
