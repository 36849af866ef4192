#!/usr/bin/env bash
# The repository benchmark's one command.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       builds the harness and runs one workload; the last line of
#       standard output is the JSON result (this is how the driver calls
#       it, from the root of a checkout).
#   benchmark/run.sh [--seed N] [--seconds S] [--trace 0|1]
#       runs all four workloads one after another, each in its own
#       process, and prints per-workload and total wall; with --trace 1
#       every workload is run a second time, traced, for the per-layer
#       metrics and the span files under benchmark/out/.
#
# Run it from the repository root. See benchmark/README.md.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"

# Knobs that change which engine, lane width or dispatch path the
# simulator runs must not leak in from the caller's environment: thread
# counts come from the spec files (`shards`), never from the box or the
# shell.
unset MTNET_SHARDS MTNET_THREADS MTNET_DISPATCH_BATCH MTNET_RSSI_LANES MTNET_EVPROF

cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/mtnet-benchmark"

workload="" seed=42 seconds=20 trace=0
args=("$@")
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2" ;;
        --seed) seed="$2" ;;
        --seconds) seconds="$2" ;;
        --trace) trace="$2" ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
    shift 2
done

if [ -n "$workload" ]; then
    exec "$bin" --root "$here" "${args[@]}"
fi

# All workloads. A workload the box cannot run (metro_busy_x2 below two
# cores) is reported as skipped and turns the exit code to 3: skipped is
# not passed. A workload whose noise self-check printed UNRESOLVED is
# re-run once; if the flag is still there the second output stands, flag
# and all.
run_one() {
    "$bin" --root "$here" --workload "$1" --seed "$seed" --seconds "$seconds" --trace "$2"
}
status=0
total_start=$(date +%s)
for w in city_packets metro_idle metro_busy metro_busy_x2; do
    for t in 0 1; do
        [ "$t" = 1 ] && [ "$trace" != 1 ] && continue
        start=$(date +%s)
        echo "=== $w (trace $t) ==="
        if out=$(run_one "$w" "$t"); then
            if grep -q UNRESOLVED <<<"$out"; then
                echo "=== $w (trace $t): unresolved, re-running once ==="
                out=$(run_one "$w" "$t") || status=3
            fi
            echo "$out"
        else
            echo "=== $w (trace $t): SKIPPED or failed, see the message above ==="
            status=3
        fi
        echo "=== $w (trace $t): wall $(( $(date +%s) - start )) s ==="
    done
done
echo "=== total wall $(( $(date +%s) - total_start )) s on $(nproc) cores ==="
exit $status
