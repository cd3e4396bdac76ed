#!/usr/bin/env bash
# Same-answers check for the end-to-end benchmark.
#
# Runs the command BENCHMARK.json declares with `--seconds 1 --trace 0`,
# which makes only the quality pass, for every run listed in
# scripts/perfbench-digests.txt (office_pair seeds 1-4, fleet_tdoa seeds
# 1-4), and fails unless each run's check-prefix digest equals the listed
# one. The digest covers every estimate, position and link counter of
# the check prefix, so a speed change that claims "same answers" must
# leave it alone; a change that moves the numerics on purpose updates
# the list and says so in CHANGES.md.
#
#   bash scripts/check-perfbench-digests.sh
set -euo pipefail
cd "$(dirname "$0")/.."

mapfile -t cmd < <(python3 -c 'import json; print("\n".join(json.load(open("BENCHMARK.json"))["command"]))')

fail=0
while read -r workload seed want; do
    [[ -z "$workload" || "$workload" == \#* ]] && continue
    out=$("${cmd[@]}" --workload "$workload" --seed "$seed" --seconds 1 --trace 0 2>&1)
    got=$(sed -n 's/.*check-prefix digest \([0-9a-f]*\).*/\1/p' <<<"$out")
    if [[ "$got" == "$want" ]]; then
        echo "ok    $workload seed $seed: $got"
    else
        echo "FAIL  $workload seed $seed: digest ${got:-missing}, expected $want"
        fail=1
    fi
done < scripts/perfbench-digests.txt

if [[ $fail -ne 0 ]]; then
    echo "perfbench digests moved: the change alters the benchmark's answers" >&2
    exit 1
fi
echo "perfbench digests unchanged"
