#!/usr/bin/env bash
# One unrepeated round per argument set of perfbench/run.py, which checks
# every answer as the benchmark runs it. Runs from any directory against
# the checkout it sits in; it exits non-zero on the first round that does
# not read "correct": true.
#
# The tier-1 tests run xi-scan and cli-corpus only traced and no
# corona-ladder at all, so these are the corona-ladder rounds with and
# without the tracing wrappers, and the untraced xi-scan (ξ and ξ_total)
# and cli-corpus (every CLI answer, cache path included) rounds. A
# cli-corpus round serves one recorded corpus seed, chosen by --seed:
# seeds 2, 0, 8, 7, 1 and 19 serve corpus seeds 0 to 5, so every suite's
# JSON is checked at every recorded seed.
set -euo pipefail
cd "$(dirname "$0")/../.."

for args in \
  "--workload corona-ladder --seed 0" \
  "--workload corona-ladder --seed 0 --trace 1" \
  "--workload xi-scan --seed 0" \
  "--workload cli-corpus --seed 2" \
  "--workload cli-corpus --seed 0" \
  "--workload cli-corpus --seed 8" \
  "--workload cli-corpus --seed 7" \
  "--workload cli-corpus --seed 1" \
  "--workload cli-corpus --seed 19"
do
  if ! python3 perfbench/run.py $args --seconds 0 | tail -n 1 | grep -q '"correct": true'; then
    echo "benchmark round failed: $args"
    exit 1
  fi
done
