#!/usr/bin/env bash
# Checks that every evaluation tier still pays for itself on the paper's
# own regime. Runs the BENCHMARK.json command traced (paper_check, then
# serve_churn, seed 1, the shortest run), fails unless each run is correct
# with no failed op, and checks each floor below against a ratio of two
# per-layer metrics of the same run, so it holds on any host.
#
# Usage: ./tier_gates.sh   (needs jq; about 45 s on 2 vCPUs once paperbench
# is built in release)
set -euo pipefail
cd "$(dirname "$0")"

# Floor on core.exact.ns_per_point / core.mask.ns_per_point at
# paper_check: the whole point of the sector-mask kernel.
MASK_FLOOR=5
# Floor on core.mask.ns_per_point / hier.map.ns_per_point at paper_check:
# the whole point of the quadtree prover. The mask runs on the 304² dense
# grid and the prover on the 1216² map of the same fleet.
HIER_FLOOR=3
# Floor on core.mask.ns_per_point / hier.check.ns_per_point at
# paper_check: on the same 304² dense grid, the prover's certificates
# must beat the screen it falls back to.
CHECK_FLOOR=1.5
# Floor on core.incremental.cold_ms / core.incremental.repair_ms at
# serve_churn: the whole point of tile-dirty tracking.
REPAIR_FLOOR=5

command -v jq >/dev/null || { echo "tier gates: jq is required" >&2; exit 1; }
mapfile -t BENCH < <(jq -r '.command[]' BENCHMARK.json)

# Prints the traced run's report and leaves its JSON line in $RESULT.
traced() {
    local out
    out=$("${BENCH[@]}" --workload "$1" --seed 1 --seconds 0 --trace 1)
    printf '%s\n' "$out"
    RESULT=$(printf '%s\n' "$out" | tail -n 1)
    if ! jq -e '.correct == true and .failed == 0' <<<"$RESULT" >/dev/null; then
        echo "tier gates: $1 run is not correct or has failed ops" >&2
        exit 1
    fi
}

# gate WORKLOAD NUMERATOR DENOMINATOR FLOOR: checks a ratio of two of
# $RESULT's metrics against its floor.
FAILED=0
GATES=()
gate() {
    local line
    line=$(jq -r --arg w "$1" --arg n "$2" --arg d "$3" --argjson f "$4" '
        def r1: . * 10 | round / 10;
        .metrics[$n] as $a | .metrics[$d] as $b | ($a.value / $b.value) as $r
        | "\(if $r >= $f then "ok  " else "FAIL" end) \($n) / \($d) @ \($w) = \($r | r1)x"
          + " (\($a.value | r1) / \($b.value | r1) \($a.unit), floor \($f)x)"' <<<"$RESULT")
    GATES+=("$line")
    [[ $line == ok* ]] || FAILED=1
}

traced paper_check
gate paper_check core.exact.ns_per_point core.mask.ns_per_point "$MASK_FLOOR"
gate paper_check core.mask.ns_per_point hier.map.ns_per_point "$HIER_FLOOR"
gate paper_check core.mask.ns_per_point hier.check.ns_per_point "$CHECK_FLOOR"
traced serve_churn
gate serve_churn core.incremental.cold_ms core.incremental.repair_ms "$REPAIR_FLOOR"

echo "tier gates:"
printf '  %s\n' "${GATES[@]}"
if ((FAILED)); then
    echo "tier gates: a tier no longer pays for itself" >&2
    exit 1
fi
