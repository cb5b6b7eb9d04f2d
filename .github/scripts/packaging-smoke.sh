#!/usr/bin/env bash
# Packaging smoke test for the installed `equidim` console script, which
# the tier-1 tests never call. Run it after `pip install .`, from any
# directory; it exits non-zero on the first line that fails.
#
# It runs the large-input paths no benchmark reaches: one bisector of
# P_1023 off two BFS rows, and the 512 x 512 distance matrix. The
# xi-corona --oracle line is the console script's one way to the explicit
# corona product. The xi and xi-total lines run the ξ search and the pair
# mask table at the order cap of 18. The k-threshold and beta-star lines on
# P_28 solve β* and the exact line at the cover cap of 28. The fish sweep
# to n(H) = 4000 prints one value per copy order; a sweep that kept each
# printed witness would hold hundreds of MiB by its end.
set -euo pipefail
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

equidim --help
equidim verify gallai --json
test "$(equidim gen path 1023 | equidim bisector - 0 1022 --json)" = '{"bisector":[511]}'
equidim gen cycle 512 | equidim dist - --json > /dev/null
equidim gen empty 2 -o "$tmp/h.txt"
test "$(equidim gen path 4 | equidim xi-corona - --nh 2 --oracle "$tmp/h.txt" --json)" = '{"agree":true,"base_part":[1,3],"copies_over":[0,2],"nh":2,"oracle":6,"value":6}'
test "$(equidim gen path 18 | equidim xi - --json)" = '{"value":13,"witness":[0,2,3,4,6,8,9,10,11,12,13,14,16]}'
test "$(equidim gen cycle 18 | equidim xi-total - --json)" = '{"value":null,"witness":null}'
test "$(equidim gen path 28 | equidim k-threshold - --json)" = '{"k":14,"slope":14,"threshold":14,"threshold_bound":"exact"}'
test "$(equidim gen path 28 | equidim beta-star - --json)" = '{"overlap":[],"pair":[[0,2,4,6,8,10,12,14,16,18,20,22,24,26],[1,3,5,7,9,11,13,15,17,19,21,23,25,27]],"value":0}'
test "$(equidim gen fish | equidim k-threshold - --sweep 1..4000 | tail -n 1)" = "4000,4006"
