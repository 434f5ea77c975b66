#!/usr/bin/env bash
# Tier-1 verification plus the hermeticity and hygiene gates. Each gate
# runs once; the script writes nothing into the tree.
#
#   1. hygiene:     cargo fmt --check && cargo clippy -D warnings &&
#                   cargo doc -D warnings
#   2. tier-1:      cargo build --release && cargo test -q (the root
#                   package's tests/: the 48 golden digests, each with
#                   ZL009's static bound <= its simulated iteration, the
#                   ZeRO++ bounds, ZL008's deny under the default pass
#                   set, the golden serving digests and their latency
#                   order, and the >=5x links-touched-per-solve floor)
#   3. hermeticity: the same build must succeed with --offline, the
#                   manifests must declare no registry dependencies, the
#                   simulator's lower layers (simkit, hw, model,
#                   collectives, strategies) must not link testkit
#                   outside their tests, and the analyzer must not depend
#                   on collectives outside its tests
#   4. solver:      every test of every crate in release with the shadow
#                   oracle on (each incremental max-min solve
#                   cross-checked against the full reference solver,
#                   including on every pinned training, fault-matrix and
#                   serving digest); the same pass runs the root
#                   package's allocation floors (tests/lowering_allocs.rs:
#                   the solver hot path allocates nothing in steady state,
#                   and planning, lowering, execution and linting
#                   allocate per plan or DAG), each of which turns the
#                   oracle off on the networks it measures
#   5. sweep:       `repro --workers 4` must render the scorecard and
#                   nineteen runner artifacts byte-identically to the
#                   serial run: the ext11 fault matrix, ext13's fleet
#                   search and Young/Daly brackets (all three rows must
#                   read `yes`; its last line is one digest over the
#                   brackets), ext14's serving latencies and ext15's
#                   ZeRO++ sweep (the one artifact whose plans carry
#                   codecs) among them.
#                   The runner clamps the width to the machine's cores;
#                   the verdict names the width repro actually ran
#   6. planlint:    static analysis (ZL001-ZL009) over the 12 golden
#                   paper configurations: zero deny and zero warnings,
#                   and a `--json` document that leads with its
#                   schema_version
#   7. planfind:    placement search smoke on a capacity-edge scenario;
#                   asserts the >=50% static-prune floor and
#                   width-invariant digests on its --json report, naming
#                   the width the search ran at (the lint passes run on
#                   the search's workers too, so the width gate covers
#                   them), and that a 1,000 B search prunes all ten
#                   candidates on memory without simulating one
#   8. fleetplan:   the dollars-to-train search on a pods fleet must find
#                   a feasible configuration
#   9. servesim:    one dense serving run must complete all 24 requests
#
# Host-time performance is perfbench's job (BENCHMARK.json), not this
# script's. The workspace must never require network/registry access;
# everything external was replaced by crates/testkit (see DESIGN.md,
# "Testing strategy").
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== hygiene: rustfmt =="
cargo fmt --check

echo "== hygiene: clippy (all targets, -D warnings, truncation lints) =="
cargo clippy --workspace --all-targets -- -D warnings \
  -W clippy::cast_possible_truncation

echo "== hygiene: rustdoc (intra-doc links, -D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== tier-1: build (release) =="
cargo build --release

echo "== tier-1: tests =="
cargo test -q

echo "== hermeticity: offline build =="
cargo build --release --offline
cargo test -q --offline --no-run

echo "== hermeticity: manifest scan =="
# No registry dependency may reappear in any manifest. Matches the old
# dependency names anywhere in a Cargo.toml; path-only deps never match.
if grep -rn "proptest\|criterion\|serde\|crossbeam\|parking_lot\|rand\b\|bytes =" \
    crates/*/Cargo.toml Cargo.toml; then
  echo "ERROR: registry dependency found in a manifest (see matches above)" >&2
  exit 1
fi
echo "manifests clean: path dependencies only"

echo "== hermeticity: layering =="
# The test kit is a dev-dependency of the simulator's lower layers, never
# a normal one: their normal dependency trees must not list it. The tree
# is captured first so an early-exiting grep cannot mask a match under
# pipefail.
LAYERS="simkit hw model collectives strategies"
for crate in $LAYERS; do
  tree="$(cargo tree --offline -e normal -p "zerosim-$crate")"
  if grep -q "zerosim-testkit" <<<"$tree"; then
    echo "ERROR: zerosim-$crate links zerosim-testkit outside its tests:" >&2
    echo "$tree" >&2
    exit 1
  fi
done
echo "layering clean: $LAYERS do not link zerosim-testkit"
# The collective schedule is decided in zerosim-collectives alone: the
# analyzer reads link loads off the lowered DAG and uses the crate only
# in its tests, so its direct normal dependencies must not list it.
tree="$(cargo tree --offline -e normal --depth 1 -p zerosim-analyzer)"
if grep -q "zerosim-collectives" <<<"$tree"; then
  echo "ERROR: zerosim-analyzer depends on zerosim-collectives outside its tests:" >&2
  echo "$tree" >&2
  exit 1
fi
echo "layering clean: zerosim-analyzer uses zerosim-collectives only in tests"

echo "== solver-equivalence gate: every test with the shadow oracle on =="
# ZEROSIM_SHADOW=1 makes every incremental solve run the full reference
# solver next to it and assert bitwise-equal rates and demands
# (FlowNet::shadow_check). The oracle is off by default in every build;
# this one command runs every test of every crate under it, including the
# 48 golden training digests, the ext11 fault-matrix cells, the golden
# serving digests, the randomized solver property, the >=5x
# links-touched-per-solve floor, the CLI usage-error table
# (crates/bench/tests/cli_usage.rs) and the allocation floors
# (tests/lowering_allocs.rs, a counting global allocator in its own test
# binary: steady-state start -> solve -> advance cycles allocate nothing,
# and planning, lowering and running a DAG allocate per plan or DAG).
ZEROSIM_SHADOW=1 cargo test -q --release --workspace

echo "== sweep smoke: --workers 4 renders every runner artifact byte-identically =="
# The scorecard, every artifact whose runs moved onto the sweep runner in
# v0.15.0, the ext11 fault matrix, ext13's fleet economics (32-sample
# Young/Daly ensembles) and ext14's serving latencies.
WIDTH_ARTIFACTS="scorecard fig5 fig7 fig8 fig9 fig10 fig11 fig12 fig13 table4 table5 table6 ext2 ext3 ext7 ext8 ext11 ext13 ext14 ext15"
SWEEP_TMP="$(mktemp -d)"
trap 'rm -rf "$SWEEP_TMP"' EXIT
cargo run --release -q -p zerosim-bench --bin repro -- \
  --out "$SWEEP_TMP/serial" $WIDTH_ARTIFACTS >/dev/null
if ! cargo run --release -q -p zerosim-bench --bin repro -- \
  --out "$SWEEP_TMP/wide" --workers 4 $WIDTH_ARTIFACTS >/dev/null 2>"$SWEEP_TMP/wide.err"; then
  cat "$SWEEP_TMP/wide.err" >&2
  exit 1
fi
# repro reports the width it ran: `[sweep workers: 4]`, or `[sweep
# workers: requested 4 -> effective N (clamped to machine)]` on a machine
# with fewer cores.
WIDE="$(sed -nE 's/^\[sweep workers: (requested [0-9]+ -> effective )?([0-9]+).*$/\2/p' \
  "$SWEEP_TMP/wide.err" | head -n 1)"
if [ -z "$WIDE" ]; then
  echo "ERROR: repro --workers 4 did not report its sweep width" >&2
  cat "$SWEEP_TMP/wide.err" >&2
  exit 1
fi
for id in $WIDTH_ARTIFACTS; do
  if ! cmp -s "$SWEEP_TMP/serial/$id.txt" "$SWEEP_TMP/wide/$id.txt"; then
    echo "ERROR: $id differs between widths 1 and $WIDE" >&2
    diff "$SWEEP_TMP/serial/$id.txt" "$SWEEP_TMP/wide/$id.txt" >&2 || true
    exit 1
  fi
done
echo "$(echo $WIDTH_ARTIFACTS | wc -w) artifacts byte-identical at widths 1 and $WIDE (requested 4)"
# Young/Daly: at the 32-sample floor the analytic interval must beat both
# the 0.5x and the 2x cadence on mean goodput for all three golden
# configurations, i.e. every bracket row's last column reads `yes`.
EXT13="$SWEEP_TMP/serial/ext13.txt"
YD_WINS="$(grep -cE '[[:space:]]yes[[:space:]]*$' "$EXT13" || true)"
if [ "$YD_WINS" != "3" ] || grep -qE '[[:space:]]NO[[:space:]]*$' "$EXT13"; then
  echo "ERROR: ext13 Young/Daly win floor violated ($YD_WINS/3)" >&2
  cat "$EXT13" >&2
  exit 1
fi
BRACKET_DIGEST="$(grep -E '^bracket digest: [0-9a-f]{16}$' "$EXT13" || true)"
if [ -z "$BRACKET_DIGEST" ]; then
  echo "ERROR: ext13 prints no bracket digest line" >&2
  exit 1
fi
echo "ext13: $YD_WINS/3 Young/Daly wins, $BRACKET_DIGEST (same at widths 1 and $WIDE)"

echo "== planlint gate: golden configs lint at zero deny and zero warnings =="
# Static analysis (ZL001-ZL009) over the 12 golden paper configurations.
# planlint exits non-zero on any deny-level finding; beyond that every
# config's status must read [  ok] and every summary line must report
# "0 deny, 0 warning(s)". The JSON document must lead with its schema
# version so downstream parsers get a contract. The lint fixtures and the
# simulator-consistency checks (ZL009's bound <= simulated time, ZL008's
# deny) live in the tier-1 tests.
planlint_golden=$(cargo run --release -q -p zerosim-bench --bin planlint -- golden)
printf '%s\n' "$planlint_golden"
if printf '%s\n' "$planlint_golden" | grep -Eq '^\[(warn|DENY)\]'; then
    echo "planlint golden: a config linted at warn or DENY"
    exit 1
fi
if printf '%s\n' "$planlint_golden" | grep 'planlint:' \
        | grep -vq '0 deny, 0 warning(s)'; then
    echo "planlint golden: expected zero deny and zero warnings everywhere"
    exit 1
fi
cargo run --release -q -p zerosim-bench --bin planlint -- golden --json \
    | grep -q '^{"schema_version":2' \
    || { echo "planlint --json: missing top-level schema_version"; exit 1; }

echo "== planfind gate: capacity-edge search, honest pruning, width-invariant =="
# The placement search on a single paper node at 8 B: DDP and the
# in-HBM sharded plans cannot fit, so the static pass must prune at
# least half the grid before any simulation runs.
# The --json report carries enumerated/pruned/simulated, the prune
# fraction, the digest and the wall time.
cargo run --release -q -p zerosim-bench --bin planfind -- \
  --topology flat:1 --model 8 --json > "$SWEEP_TMP/planfind1.json"
if ! grep -qE '"prune_fraction":(0\.[5-9][0-9]*|1)\b' "$SWEEP_TMP/planfind1.json"; then
  echo "ERROR: planfind prune_fraction below the 0.5 floor" >&2
  grep -o '"prune_fraction":[0-9.]*' "$SWEEP_TMP/planfind1.json" >&2 || true
  exit 1
fi
# At 1,000 B (the CLI's largest size) no candidate fits one node: the
# memory verdict prunes all ten before anything is planned or lowered.
cargo run --release -q -p zerosim-bench --bin planfind -- \
  --topology flat:1 --model 1000 --json > "$SWEEP_TMP/planfind_1000.json"
if ! grep -q '"pruned":10,' "$SWEEP_TMP/planfind_1000.json" \
  || ! grep -q '"simulated":0,' "$SWEEP_TMP/planfind_1000.json"; then
  echo "ERROR: planfind at 1,000 B must prune 10 of 10 candidates and simulate none" >&2
  cat "$SWEEP_TMP/planfind_1000.json" >&2
  exit 1
fi
echo "planfind scorecard: $(grep -o '"enumerated":[0-9]*' "$SWEEP_TMP/planfind1.json")," \
  "$(grep -o '"pruned":[0-9]*' "$SWEEP_TMP/planfind1.json")," \
  "$(grep -o '"simulated":[0-9]*' "$SWEEP_TMP/planfind1.json")," \
  "$(grep -o '"wall_secs":[0-9.e-]*' "$SWEEP_TMP/planfind1.json");" \
  "all-pruned 1,000 B search: $(grep -o '"wall_secs":[0-9.e-]*' "$SWEEP_TMP/planfind_1000.json")"
# The search report must be byte-identical at any --workers width. The
# report's "workers" field is the width the search ran at: the runner
# clamps the requested 4 to the machine's cores.
cargo run --release -q -p zerosim-bench --bin planfind -- \
  --topology flat:1 --model 8 --workers 4 --json > "$SWEEP_TMP/planfind4.json"
PF_WIDE="$(grep -oE '"workers":[0-9]+' "$SWEEP_TMP/planfind4.json" | cut -d: -f2 || true)"
PF1_DIGEST="$(grep -o '"digest":"[0-9a-f]*"' "$SWEEP_TMP/planfind1.json")"
PF4_DIGEST="$(grep -o '"digest":"[0-9a-f]*"' "$SWEEP_TMP/planfind4.json")"
if [ -z "$PF_WIDE" ] || [ -z "$PF1_DIGEST" ] || [ "$PF1_DIGEST" != "$PF4_DIGEST" ]; then
  echo "ERROR: planfind digest differs between widths 1 and ${PF_WIDE:-?} (requested 4)" >&2
  echo "  serial: $PF1_DIGEST  fanned: $PF4_DIGEST" >&2
  exit 1
fi
echo "planfind digest width-invariant at widths 1 and $PF_WIDE (requested 4): $PF1_DIGEST"

echo "== fleetplan gate: the costed ranking finds a feasible configuration =="
# The acceptance CLI shape: rank (strategy x placement x interval) by
# dollars-to-train on a pods fleet under a failure rate and a deadline.
# The Young/Daly validation is ext13 in the sweep step.
cargo run --release -q -p zerosim-bench --bin fleetplan -- \
  --topology pods:2x2x4:2:1.5 --model 11.4 --rate 0.1 --days 365 --json \
  > "$SWEEP_TMP/fleetcli.json"
if ! grep -q '"feasible":true' "$SWEEP_TMP/fleetcli.json"; then
  echo "ERROR: fleetplan found no feasible configuration for the acceptance shape" >&2
  exit 1
fi
echo "fleetplan: $(grep -o '"digest":"[0-9a-f]*"' "$SWEEP_TMP/fleetcli.json")"

echo "== servesim gate: one serving run completes every request =="
# The binary's own run path on its default trace (24 closed-loop
# requests). The golden deployments, their pinned digests and latency
# order are tier-1 tests; the regime sweep is ext14 in the sweep step.
cargo run --release -q -p zerosim-bench --bin servesim -- --json \
  > "$SWEEP_TMP/serve.json"
if ! grep -q '"requests":24,' "$SWEEP_TMP/serve.json"; then
  echo "ERROR: servesim did not complete all 24 requests" >&2
  cat "$SWEEP_TMP/serve.json" >&2
  exit 1
fi
echo "servesim: $(grep -o '"digest":"[0-9a-f]*"' "$SWEEP_TMP/serve.json")"

echo "VERIFY OK"
