#!/usr/bin/env bash
# Builds the benchmark and the program under test, then runs the
# benchmark. Run from the repository root:
#
#     bash benchmark/run.sh                       # all seven workloads
#     bash benchmark/run.sh --workload exec_sim --seed 3 --seconds 8 --trace 0
#
# Both builds are offline release builds into $CARGO_TARGET_DIR (default
# ./target). The serving workloads start the real w2cd binary built
# here; nothing in the repository is modified. Build output goes to
# stderr so the last stdout line stays the benchmark's result.
#
# The benchmark itself runs on ONE CPU (taskset; the w2cd it starts
# inherits that): with client and daemon threads free to move between
# the cores of a small shared box, a warm request cost 35 or 90 us
# depending on where the scheduler had put them, and that placement, not
# the program, was what serve_warm measured. See README.md, "One CPU".
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

if [ ! -f Cargo.toml ] || [ ! -d crates/warp-compiler ]; then
    echo "error: benchmark/run.sh must sit in a checkout of the repository" >&2
    exit 3
fi

target="${CARGO_TARGET_DIR:-target}"
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet -p warp-compiler --bin w2cd >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

# The last CPU this shell may use: device interrupts go to CPU 0.
pin=()
if command -v taskset >/dev/null 2>&1; then
    allowed="$(taskset -cp $$ 2>/dev/null | sed 's/.*: *//')"
    cpu="${allowed##*[,-]}"
    if [ -n "$cpu" ] && taskset -c "$cpu" true 2>/dev/null; then
        pin=(taskset -c "$cpu")
    fi
fi
if [ ${#pin[@]} -eq 0 ]; then
    echo "warning: cannot pin to one CPU (no taskset); timings will be noisier" >&2
fi

exec ${pin[@]+"${pin[@]}"} "$target/release/w2bench" "$@"
