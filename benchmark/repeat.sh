#!/usr/bin/env bash
# Run the whole benchmark twice with one seed and compare the two runs:
# one row per workload x end-to-end metric with both values, their
# difference, the quartile spread and the bound. Host-time metrics must
# agree within their bound, simulated times and counts must be identical,
# and nothing may be `unresolved`. Exits 1 on disagreement.
#
#   benchmark/repeat.sh            # seed 42
#   benchmark/repeat.sh 7          # another seed
#   benchmark/repeat.sh 7 --smoke  # extra arguments go to both runs
set -euo pipefail
cd "$(dirname "$0")/.."

seed="${1:-42}"
shift || true
out="benchmark/out"
bench() {
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}

mkdir -p "$out"
for run in a b; do
    echo "== run $run (seed $seed)" >&2
    bench --seed "$seed" --out-dir "$out/repeat_$run" "$@" > "$out/repeat_$run.txt" 2>&1 || {
        cat "$out/repeat_$run.txt" >&2
        echo "run $run failed" >&2
        exit 1
    }
done
bench --compare "$out/repeat_a/results.json" "$out/repeat_b/results.json"
