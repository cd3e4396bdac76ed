#!/usr/bin/env bash
# Benchmark-regression gates. Gates 1, 3, 4, 5 and 6 run seeded,
# deterministic scenarios, so they gate exactly: every numeric cell of
# every baseline row must equal the fresh run's, in either direction,
# and a missing row fails (chronos_bench::cli::check_exact). Any change
# fails until the baseline is re-recorded with its reason in
# CHANGES.md. Only host-timed columns keep a tolerance.
#
#  1. Position tracking: rerun the quick LOS and walled-NLOS walker
#     scenarios against the checked-in BENCH_position.json baseline
#     (fix rate, median/p90 error, tracked RMSE, worst tracked error).
#  2. Sweep-pipeline throughput: rerun the quick N=8 estimation
#     benchmark and fail when the pipeline's speedup over the
#     pre-refactor reference solver regresses >20% (a constant,
#     SPEEDUP_TOLERANCE in throughput.rs: the ratio is host-timed) or
#     drops below the absolute 3.0x floor, or when allocs/sweep
#     increases AT ALL — the zero-allocation contract gates exactly,
#     not within a tolerance, and on the fix_pool rows it gates the
#     runtime's per-item allocation counter on every lane. The
#     solver_pipeline row's tiles_per_solve column is the mean number
#     of 8-bin gradient tiles the FISTA prox steps evaluate per solve
#     (IstaStats::tiles_evaluated over the 12-band TRACK channels):
#     the work the safe tile screen leaves, fixed by the code and not
#     by the host. It also fails on ANY increase, so a looser screen
#     that quietly skips less cannot pass. So does units_per_solve,
#     the polyphase partial-sum units (8 phases of every residue
#     class) the prox steps build per solve (IstaStats::units_built):
#     a step builds only the units its live tiles read. Wall-clock sweeps/s
#     columns are informational (they depend on the host); only the
#     portable ratio/alloc/tile metrics gate. The speedup is
#     measured paired (reference and pipeline alternate call-by-call,
#     per-client minimum over rounds), so host contention cancels out
#     of the ratio instead of tripping the gate.
#  3. Adversarial detection: rerun the quick replay/inject/jam attack
#     matrix against the checked-in BENCH_adversarial.json baseline
#     (honest-client error, detection latency, quarantined rate).
#  4. Overload soak: rerun the quick 1x-5x load matrix through the
#     bounded ingestion front-end against the checked-in BENCH_soak.json
#     baseline (offered sweeps, admitted-fix rate, sheds, deferrals,
#     queue peaks, fairness, honest-client error). The queue sheds as a
#     pure function of the arrival sequence, so any drift is a real
#     scheduling change.
#  5. Fleet capacity: rerun the quick 16-AP / 1000-roaming-client
#     TDoA-vs-round-trip comparison plus the shard-scaling rows
#     (fleet_shard_w1/w2/w4 — serial loop vs shard windows spread over
#     2 and 4 lanes) against the checked-in BENCH_fleet.json baseline
#     (fix rates, position errors, handoffs, handoff-gap sweeps and the
#     AP/client/window/worker counts).
#     worker_allocs reads the fleet runtime's counted items after the
#     first window. A fleet runs its shard windows uncounted and every
#     shard sweeps inline, and workers=0 builds no runtime at all, so
#     its 0 pins that no fleet sweep runs as a counted pool item, on a
#     host of any core count. It does not measure the zero-allocation
#     contract of the estimation span inside the sweeps; narrowing the
#     probe to that span is still open.
#     The speedup_vs_serial column is host-timed and informational only
#     (CI hosts vary in core count; its "x" suffix keeps it out of the
#     exact check). The bench itself also asserts the headline claim
#     (TDoA >= 2x fixes/s per client at <= 1.5x the error) and that
#     every worker count replays the serial loop's reports
#     digest-identically, before writing or checking anything.
#  6. Airtime capacity: rerun the seed-42 capacity comparisons that
#     README, docs/TRACKING.md and docs/SCHEDULING.md quote (adaptive
#     TRACK subsets vs full sweeps at 1, 2, 4 and 8 static clients; the
#     event engine vs the epoch barrier on a mixed ACQUIRE/TRACK
#     population at 4, 8 and 16) against the checked-in
#     BENCH_capacity.json baseline (sweeps/s, gain, utilization and
#     error, every cell a plain number). It has no quick size: --quick
#     runs the same few seconds of work.
#
# On an *intentional* change, regenerate and commit the baselines:
#
#   cargo run --release -p chronos-bench --bin bench_position -- --quick
#   cargo run --release -p chronos-bench --bin bench_throughput -- --quick
#   cargo run --release -p chronos-bench --bin bench_adversarial -- --quick
#   cargo run --release -p chronos-bench --bin bench_soak -- --quick
#   cargo run --release -p chronos-bench --bin bench_fleet -- --quick
#   cargo run --release -p chronos-bench --bin bench_capacity
#
# Usage: scripts/check-bench-regression.sh \
#            [position-baseline.json [throughput-baseline.json \
#            [adversarial-baseline.json [soak-baseline.json \
#            [fleet-baseline.json [capacity-baseline.json]]]]]]
set -euo pipefail

cd "$(dirname "$0")/.."
position_baseline="${1:-BENCH_position.json}"
throughput_baseline="${2:-BENCH_throughput.json}"
adversarial_baseline="${3:-BENCH_adversarial.json}"
soak_baseline="${4:-BENCH_soak.json}"
fleet_baseline="${5:-BENCH_fleet.json}"
capacity_baseline="${6:-BENCH_capacity.json}"

for baseline in "$position_baseline" "$throughput_baseline" \
        "$adversarial_baseline" "$soak_baseline" "$fleet_baseline" \
        "$capacity_baseline"; do
    if [[ ! -f "$baseline" ]]; then
        echo "missing baseline $baseline (generate with the commands in this script's header)" >&2
        exit 1
    fi
done

cargo run --release -p chronos-bench --bin bench_position -- \
    --quick --check "$position_baseline"

cargo run --release -p chronos-bench --bin bench_throughput -- \
    --quick --check "$throughput_baseline"

cargo run --release -p chronos-bench --bin bench_adversarial -- \
    --quick --check "$adversarial_baseline"

cargo run --release -p chronos-bench --bin bench_soak -- \
    --quick --check "$soak_baseline"

cargo run --release -p chronos-bench --bin bench_fleet -- \
    --quick --check "$fleet_baseline"

exec cargo run --release -p chronos-bench --bin bench_capacity -- \
    --check "$capacity_baseline"
