#!/bin/sh
# Rewrite the two `exp all --quick` goldens that the tier-1 test
# `all_experiments_run_quick` diffs against: one under the default
# engine options, one under `--backend mmap --codec delta-varint`.
# Every time token is masked as T and each line's runs of whitespace are
# collapsed to one space, since column padding follows the walls' widths;
# what is left is the counters, which read the same on any host.
#
# Run from the repository root after a change that moves counted work on
# purpose, and say in CHANGES.md which counters moved and why:
#
#   sh crates/pdtl-bench/tests/regenerate.sh
set -eu
dir=crates/pdtl-bench/tests
exp() { cargo run -q --release -p pdtl-bench --bin exp -- all --quick "$@"; }
mask() { sed -E 's/[0-9]+(\.[0-9]+)?(ns|µs|us|ms|s)\b/T/g; s/[[:space:]]+/ /g; s/^ //; s/ $//'; }
exp | mask > "$dir/exp-quick.golden"
exp --backend mmap --codec delta-varint | mask > "$dir/exp-quick-mmap-varint.golden"
