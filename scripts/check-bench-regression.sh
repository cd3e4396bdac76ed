#!/usr/bin/env bash
# Benchmark-regression gates:
#
#  1. Position tracking: rerun the quick position scenarios and fail when
#     any metric regresses >20% against the checked-in
#     BENCH_position.json baseline. Fully deterministic (seeded).
#  2. Sweep-pipeline throughput: rerun the quick N=8 estimation
#     benchmark and fail when the pipeline's speedup over the
#     pre-refactor reference solver regresses >20% (or drops
#     below the absolute 3.0x floor; re-baselined from 1.2x when the
#     lane-chunked SoA solver kernels landed), or when allocs/sweep
#     increases AT ALL — the zero-allocation contract gates exactly,
#     not within a tolerance, and on the fix_pool rows it gates the
#     runtime's per-item allocation counter on every lane. Wall-clock
#     sweeps/s columns are informational (they depend on the host);
#     only the portable ratio/alloc metrics gate. The speedup is
#     measured paired (reference and pipeline alternate call-by-call,
#     per-client minimum over rounds), so host contention cancels out
#     of the ratio instead of tripping the gate.
#  3. Adversarial detection: rerun the quick replay/inject/jam attack
#     matrix and fail when detection latency (or honest-client error)
#     regresses >20%, or the quarantined rate drops >20%, against the
#     checked-in BENCH_adversarial.json baseline. Fully deterministic
#     (seeded), so the gate trips on real drift, not noise.
#  4. Overload soak: rerun the quick 1x-5x load matrix through the
#     bounded ingestion front-end and fail when the admitted-fix rate
#     drops >20%, shedding/deferrals or honest-client error grow >20%,
#     or any exact column (offered sweeps, queue peaks) drifts at all,
#     against the checked-in BENCH_soak.json baseline. The queue sheds
#     as a pure function of the arrival sequence, so drift is a real
#     scheduling change, never noise.
#  5. Fleet capacity: rerun the quick 16-AP / 1000-roaming-client
#     TDoA-vs-round-trip comparison plus the shard-scaling rows
#     (fleet_shard_w1/w2/w4 — serial loop vs shard windows spread over
#     2 and 4 lanes) and fail when per-client fix rate drops >20%,
#     position error or handoff-gap sweeps grow >20%, or any exact
#     column (AP/client/window/worker counts, handoffs, worker_allocs)
#     drifts at all, against the checked-in BENCH_fleet.json baseline.
#     worker_allocs reads the fleet runtime's counted items after the
#     first window. A fleet runs its shard windows uncounted and every
#     shard sweeps inline, and workers=0 builds no runtime at all, so
#     its 0 pins that no fleet sweep runs as a counted pool item, on a
#     host of any core count. It does not measure the zero-allocation
#     contract of the estimation span inside the sweeps; narrowing the
#     probe to that span is still open.
#     The speedup_vs_serial column is informational only (CI hosts vary
#     in core count). The bench itself also asserts the headline claim
#     (TDoA >= 2x fixes/s per client at <= 1.5x the error) and that
#     every worker count replays the serial loop's reports
#     digest-identically, before writing or checking anything.
#
# On an *intentional* change, regenerate and commit the baselines:
#
#   cargo run --release -p chronos-bench --bin bench_position -- --quick
#   cargo run --release -p chronos-bench --bin bench_throughput -- --quick
#   cargo run --release -p chronos-bench --bin bench_adversarial -- --quick
#   cargo run --release -p chronos-bench --bin bench_soak -- --quick
#   cargo run --release -p chronos-bench --bin bench_fleet -- --quick
#
# Usage: scripts/check-bench-regression.sh \
#            [position-baseline.json [throughput-baseline.json \
#            [adversarial-baseline.json [soak-baseline.json \
#            [fleet-baseline.json]]]]]
set -euo pipefail

cd "$(dirname "$0")/.."
position_baseline="${1:-BENCH_position.json}"
throughput_baseline="${2:-BENCH_throughput.json}"
adversarial_baseline="${3:-BENCH_adversarial.json}"
soak_baseline="${4:-BENCH_soak.json}"
fleet_baseline="${5:-BENCH_fleet.json}"

for baseline in "$position_baseline" "$throughput_baseline" \
        "$adversarial_baseline" "$soak_baseline" "$fleet_baseline"; do
    if [[ ! -f "$baseline" ]]; then
        echo "missing baseline $baseline (generate with the commands in this script's header)" >&2
        exit 1
    fi
done

cargo run --release -p chronos-bench --bin bench_position -- \
    --quick --check "$position_baseline" --tolerance 0.20

cargo run --release -p chronos-bench --bin bench_throughput -- \
    --quick --check "$throughput_baseline" --tolerance 0.20

cargo run --release -p chronos-bench --bin bench_adversarial -- \
    --quick --check "$adversarial_baseline" --tolerance 0.20

cargo run --release -p chronos-bench --bin bench_soak -- \
    --quick --check "$soak_baseline" --tolerance 0.20

exec cargo run --release -p chronos-bench --bin bench_fleet -- \
    --quick --check "$fleet_baseline" --tolerance 0.20
