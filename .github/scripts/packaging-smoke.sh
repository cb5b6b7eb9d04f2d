#!/usr/bin/env bash
# Packaging smoke test for the installed `equidim` console script, which
# the tier-1 tests never call. Run it after `pip install .`, from any
# directory; it exits non-zero on the first line that fails.
#
# It runs the large-input paths no benchmark reaches: one bisector of
# P_1023 off two BFS rows, and the 512 x 512 distance matrix. The
# xi-corona --oracle lines are the console script's one way to the explicit
# corona product, which the command reads by value only: P_4 with 2K_1
# copies, P_7 with K_1 copies at the oracle cap of 14, and P_5 with 2K_1
# copies, of order 15, which must exit 1 with the budget error alone. The
# xi and xi-total lines run the ξ search and the pair mask table at the
# order cap of 18. The k-threshold and beta-star lines on P_28 solve β*
# and the exact line at the cover cap of 28. The fish sweep to
# n(H) = 4000 prints one value per copy order; a sweep that kept each
# printed witness would hold hundreds of MiB by its end. The K_{12,16}
# and C_27 xi-corona lines take each branch of the corona tables:
# K_{12,16} is bipartite, so its tables are read off the BFS from vertex 0
# and the value is the bipartite formula 12 * 3 + 16; C_27 has an odd cycle and runs the BFS from every
# vertex. The fish xi-corona line at n(H) = 10^9 prints the value and the
# split only; a witness would hold 10^9 + 6 product vertices. The
# chorded-path beta-star line is the one with a non-empty overlap: its
# "pair" is the (U, L) decomposition of beta_star's result, and U & L is
# the overlap. The fish bounds and k-threshold lines pin the two payloads
# the CLI assembles itself: the bounds JSON is "nh" plus every field of the
# bounds report, and the k-threshold text line carries "(threshold bound:
# exact)", which the solver's ThresholdLine does not hold. The last line
# checks the console script's error exit: a --sweep range without ".."
# must exit non-zero with exactly one error line on stderr; the tier-1
# tests run the CLI only as `python -m equidim.cli`. The import line checks
# that the installed, bytecode-compiled package, as users run it, loads no
# `dataclasses`: the records are plain classes, so no import compiles
# generated methods.
set -euo pipefail
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

equidim --help
test "$(python -c 'import sys, equidim.cli; print("dataclasses" in sys.modules)')" = False
equidim verify gallai --json
test "$(equidim gen path 1023 | equidim bisector - 0 1022 --json)" = '{"bisector":[511]}'
equidim gen cycle 512 | equidim dist - --json > /dev/null
equidim gen empty 2 -o "$tmp/h.txt"
test "$(equidim gen path 4 | equidim xi-corona - --nh 2 --oracle "$tmp/h.txt" --json)" = '{"agree":true,"base_part":[1,3],"copies_over":[0,2],"nh":2,"oracle":6,"value":6}'
equidim gen empty 1 -o "$tmp/h1.txt"
test "$(equidim gen path 7 | equidim xi-corona - --nh 1 --oracle "$tmp/h1.txt" --json)" = '{"agree":true,"base_part":[0,2,4,6],"copies_over":[1,3,5],"nh":1,"oracle":7,"value":7}'
status=0
err="$(equidim gen path 5 | equidim xi-corona - --nh 2 --oracle "$tmp/h.txt" 2>&1 >/dev/null)" || status=$?
test "$status" = 1
test "$err" = "error: exact search out of budget: order 15 exceeds cap 14"
test "$(equidim gen path 18 | equidim xi - --json)" = '{"value":13,"witness":[0,2,3,4,6,8,9,10,11,12,13,14,16]}'
test "$(equidim gen cycle 18 | equidim xi-total - --json)" = '{"value":null,"witness":null}'
test "$(equidim gen complete-bipartite 12 16 | equidim xi-corona - --nh 3 --json)" = '{"base_part":[12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27],"copies_over":[0,1,2,3,4,5,6,7,8,9,10,11],"nh":3,"value":52}'
test "$(equidim gen cycle 27 | equidim xi-corona - --nh 3 --json)" = '{"base_part":[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26],"copies_over":[],"nh":3,"value":27}'
test "$(equidim gen path 28 | equidim k-threshold - --json)" = '{"k":14,"slope":14,"threshold":14,"threshold_bound":"exact"}'
test "$(equidim gen path 28 | equidim beta-star - --json)" = '{"overlap":[],"pair":[[0,2,4,6,8,10,12,14,16,18,20,22,24,26],[1,3,5,7,9,11,13,15,17,19,21,23,25,27]],"value":0}'
test "$(equidim gen chorded-path | equidim beta-star - --json)" = '{"overlap":[1],"pair":[[1,2,5,7],[1,3,4,6]],"value":1}'
test "$(equidim gen fish | equidim k-threshold - --sweep 1..4000 | tail -n 1)" = "4000,4006"
test "$(equidim gen fish | equidim xi-corona - --nh 1000000000 --json)" = '{"base_part":[1,2,3,4,5,6],"copies_over":[4],"nh":1000000000,"value":1000000006}'
test "$(equidim gen fish | equidim bounds - --nh 2 --json)" = '{"exact":8,"floor":6,"lower":7,"lower_weak":7,"nh":2,"upper":8,"upper_via_xi":10}'
test "$(equidim gen fish | equidim k-threshold -)" = 'xi = 1*n(H) + 6 for n(H) > 2 (threshold bound: exact)'
if err="$(equidim gen fish | equidim k-threshold - --sweep 1.4 2>&1 >/dev/null)"; then
    echo "k-threshold --sweep 1.4 exited 0" >&2
    exit 1
fi
test "$err" = "error: bad range '1.4', expected A..B"
