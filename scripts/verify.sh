#!/usr/bin/env bash
# Tier-1 verification plus the hermeticity and hygiene gates.
#
#   1. hygiene:     cargo fmt --check && cargo clippy -D warnings &&
#                   cargo doc -D warnings
#   2. tier-1:      cargo build --release && cargo test -q (the root
#                   package's tests/, including the >=5x
#                   links-touched-per-solve floor on dual-node ZeRO-3)
#   3. hermeticity: the same build must succeed with --offline, the
#                   manifests must declare no registry dependencies, and
#                   the simulator's lower layers (simkit, hw, model,
#                   collectives, strategies) must not link testkit
#                   outside their tests
#   4. solver:      every test of every crate in release with the shadow
#                   oracle on (each incremental max-min solve
#                   cross-checked against the full reference solver,
#                   including on every pinned training, fault-matrix and
#                   serving digest), the zero-allocation gate on the
#                   solver hot path, and the per-task allocation floor of
#                   lowering and execution
#   5. sweep:       `repro --workers 4` must render the scorecard and
#                   sixteen runner artifacts, the ext11 fault matrix
#                   among them, byte-identically to the serial run
#   6. planlint:    static analysis (ZL001-ZL009) over the 12 golden
#                   paper configurations; any deny-level finding fails.
#                   The v2 gate additionally pins zero warnings, the
#                   JSON schema_version, the zl008-selfcheck exit code,
#                   and the ZL009 bound verdict (BENCH_planlint.json)
#   7. planfind:    placement search smoke on a capacity-edge scenario;
#                   asserts the >=50% static-prune floor and
#                   width-invariant digests on its --json report
#   8. fleetplan:   resilience-economics gate: the dollars-to-train
#                   search on a pods fleet, plus the Young/Daly
#                   validation scorecard (BENCH_fleet.json) — every
#                   golden config's analytic interval must beat both the
#                   2x and 0.5x cadence on ensemble goodput, with
#                   digests byte-identical at --workers 1 vs 4
#   9. servesim:    serving gate: TTFT/TPOT scorecard on the three
#                   golden deployments plus the decode regime sweep
#                   (BENCH_serve.json) — the in-binary sanity verdict
#                   must hold and digests must be byte-identical at
#                   --workers 1 vs 4
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

echo "== solver-equivalence gate: every test with the shadow oracle on =="
# ZEROSIM_SHADOW=1 makes every incremental solve run the full reference
# solver next to it and assert bitwise-equal rates and demands
# (FlowNet::shadow_check). The oracle is off by default in every build;
# this one command runs every test of every crate under it, including the
# 48 golden training digests, the ext11 fault-matrix cells, the golden
# serving digests, the randomized solver property, the >=5x
# links-touched-per-solve floor and the CLI usage-error table
# (crates/bench/tests/cli_usage.rs).
ZEROSIM_SHADOW=1 cargo test -q --release --workspace
# Steady-state start -> solve -> advance cycles must allocate nothing,
# and lowering and running a DAG must allocate per DAG, not per task
# (each a counting global allocator in its own test binary).
cargo test -q --release -p zerosim-simkit --test solver_allocs
cargo test -q --release --test lowering_allocs

echo "== sweep smoke: --workers 4 renders every runner artifact byte-identically =="
# The scorecard, every artifact whose runs moved onto the sweep runner in
# v0.15.0, and the ext11 fault matrix (ext13's fleet search is covered by
# the fleetplan gate).
WIDTH_ARTIFACTS="scorecard fig5 fig7 fig8 fig9 fig10 fig11 fig12 fig13 table4 table5 table6 ext2 ext3 ext7 ext8 ext11"
SWEEP_TMP="$(mktemp -d)"
trap 'rm -rf "$SWEEP_TMP"' EXIT
cargo run --release -q -p zerosim-bench --bin repro -- \
  --out "$SWEEP_TMP/serial" $WIDTH_ARTIFACTS >/dev/null
cargo run --release -q -p zerosim-bench --bin repro -- \
  --out "$SWEEP_TMP/wide" --workers 4 $WIDTH_ARTIFACTS >/dev/null
for id in $WIDTH_ARTIFACTS; do
  if ! cmp -s "$SWEEP_TMP/serial/$id.txt" "$SWEEP_TMP/wide/$id.txt"; then
    echo "ERROR: $id differs between --workers 1 and --workers 4" >&2
    diff "$SWEEP_TMP/serial/$id.txt" "$SWEEP_TMP/wide/$id.txt" >&2 || true
    exit 1
  fi
done
echo "$(echo $WIDTH_ARTIFACTS | wc -w) artifacts byte-identical at widths 1 and 4"

echo "== planlint gate: golden configs must be deny-clean =="
# Static analysis (ZL001-ZL009) over the 12 golden paper configurations;
# planlint exits non-zero on any deny-level finding. The lint fixtures
# and simulator-consistency checks live in tests/analyzer_lints.rs (run
# by the tier-1 step).
cargo run --release -q -p zerosim-bench --bin planlint -- golden

echo "== planlint v2 gate: codec legality + static step-time bounds =="
# The golden dozen must lint at zero deny AND zero warnings — every
# config's status reads [  ok] and every summary line reports
# "0 deny, 0 warning(s)" — and the JSON document must lead with its
# schema version so downstream parsers get a contract.
planlint_golden=$(cargo run --release -q -p zerosim-bench --bin planlint -- golden)
if printf '%s\n' "$planlint_golden" | grep -Eq '^\[(warn|DENY)\]'; then
    echo "planlint golden: a config linted at warn or DENY"
    printf '%s\n' "$planlint_golden"
    exit 1
fi
if printf '%s\n' "$planlint_golden" | grep 'planlint:' \
        | grep -vq '0 deny, 0 warning(s)'; then
    echo "planlint golden: expected zero deny and zero warnings everywhere"
    printf '%s\n' "$planlint_golden"
    exit 1
fi
cargo run --release -q -p zerosim-bench --bin planlint -- golden --json \
    | grep -q '^{"schema_version":2' \
    || { echo "planlint --json: missing top-level schema_version"; exit 1; }
# A deliberately illegal codec plan (wrong ratio for its dtype pair,
# compute fed encoded bytes with no decode) must exit 2 with ZL008
# findings — a silently disabled analyzer cannot pass this gate.
rc=0
cargo run --release -q -p zerosim-bench --bin planlint -- zl008-selfcheck \
    > planlint_selfcheck.log 2>&1 || rc=$?
if [ "$rc" -ne 2 ]; then
    echo "zl008-selfcheck: expected exit code 2, got $rc"
    cat planlint_selfcheck.log
    exit 1
fi
grep -q "ZL008" planlint_selfcheck.log \
    || { echo "zl008-selfcheck: no ZL008 finding in output"; exit 1; }
rm -f planlint_selfcheck.log
# ZL009's static wire/protocol bounds must lower-bound the simulated
# iteration time for the golden matrix and the ZeRO++ family across
# jitter seeds (the binary exits non-zero if any bound is violated).
cargo run --release -q -p zerosim-bench --bin planlint -- --bench BENCH_planlint.json
grep -q '"all_bounds_hold":true' BENCH_planlint.json \
    || { echo "BENCH_planlint.json: all_bounds_hold is not true"; exit 1; }

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
echo "planfind scorecard: $(grep -o '"enumerated":[0-9]*' "$SWEEP_TMP/planfind1.json")," \
  "$(grep -o '"pruned":[0-9]*' "$SWEEP_TMP/planfind1.json")," \
  "$(grep -o '"simulated":[0-9]*' "$SWEEP_TMP/planfind1.json")," \
  "$(grep -o '"wall_secs":[0-9.]*' "$SWEEP_TMP/planfind1.json")"
# The search report must be byte-identical at any --workers width.
cargo run --release -q -p zerosim-bench --bin planfind -- \
  --topology flat:1 --model 8 --workers 4 --json > "$SWEEP_TMP/planfind4.json"
PF1_DIGEST="$(grep -o '"digest":"[0-9a-f]*"' "$SWEEP_TMP/planfind1.json")"
PF4_DIGEST="$(grep -o '"digest":"[0-9a-f]*"' "$SWEEP_TMP/planfind4.json")"
if [ -z "$PF1_DIGEST" ] || [ "$PF1_DIGEST" != "$PF4_DIGEST" ]; then
  echo "ERROR: planfind digest differs between --workers 1 and --workers 4" >&2
  echo "  serial: $PF1_DIGEST  fanned: $PF4_DIGEST" >&2
  exit 1
fi
echo "planfind digest width-invariant: $PF1_DIGEST"

echo "== fleetplan gate: cost ranking + Young/Daly validation, width-invariant =="
# The acceptance CLI shape: rank (strategy x placement x interval) by
# dollars-to-train on a pods fleet under a failure rate and a deadline.
cargo run --release -q -p zerosim-bench --bin fleetplan -- \
  --topology pods:2x2x4:2:1.5 --model 11.4 --rate 0.1 --days 365 --json \
  > "$SWEEP_TMP/fleetcli.json"
if ! grep -q '"feasible":true' "$SWEEP_TMP/fleetcli.json"; then
  echo "ERROR: fleetplan found no feasible configuration for the acceptance shape" >&2
  exit 1
fi
# The scorecard: the costed ranking plus the Young/Daly brackets on the
# three golden configs at the 32-sample Monte-Carlo floor. Every bracket
# must show the analytic interval strictly beating both naive cadences.
cargo run --release -q -p zerosim-bench --bin fleetplan -- \
  --bench BENCH_fleet.json >/dev/null
YD_WINS="$(grep -o '"yd_win":true' BENCH_fleet.json | wc -l | tr -d ' ')"
if [ "$YD_WINS" != "3" ] || grep -q '"yd_win":false' BENCH_fleet.json; then
  echo "ERROR: BENCH_fleet.json Young/Daly win floor violated ($YD_WINS/3)" >&2
  exit 1
fi
# Ensemble and ranking digests must be byte-identical at any width.
cargo run --release -q -p zerosim-bench --bin fleetplan -- \
  --workers 4 --bench "$SWEEP_TMP/fleet4.json" >/dev/null
FP1="$(grep -o '"ensemble_digest":"[0-9a-f]*"\|"digest":"[0-9a-f]*"' BENCH_fleet.json)"
FP4="$(grep -o '"ensemble_digest":"[0-9a-f]*"\|"digest":"[0-9a-f]*"' "$SWEEP_TMP/fleet4.json")"
if [ -z "$FP1" ] || [ "$FP1" != "$FP4" ]; then
  echo "ERROR: fleetplan digests differ between --workers 1 and --workers 4" >&2
  exit 1
fi
echo "fleetplan scorecard: $YD_WINS/3 Young/Daly wins," \
  "$(grep -o '"ensemble_digest":"[0-9a-f]*"' BENCH_fleet.json)"

echo "== servesim gate: serving latencies sane, width-invariant =="
# The TTFT/TPOT scorecard on the three golden serving deployments (dense
# 1-node, dense 2-node, NVMe-streamed) plus the decode regime sweep.
# `sane` is computed in-binary: every request completes, percentiles are
# ordered, the (batch x KV-bucket) plan cache hits, dense TTFT exceeds
# dense TPOT, and NVMe streaming costs first-token latency over dense.
cargo run --release -q -p zerosim-bench --bin servesim -- \
  --bench BENCH_serve.json >/dev/null
if ! grep -q '"sane":true' BENCH_serve.json; then
  echo "ERROR: BENCH_serve.json does not report sane:true" >&2
  exit 1
fi
# Serving digests must be byte-identical at any --workers width.
cargo run --release -q -p zerosim-bench --bin servesim -- \
  --workers 4 --bench "$SWEEP_TMP/serve4.json" >/dev/null
SV1="$(grep -o '"serve_digest":"[0-9a-f]*"' BENCH_serve.json)"
SV4="$(grep -o '"serve_digest":"[0-9a-f]*"' "$SWEEP_TMP/serve4.json")"
if [ -z "$SV1" ] || [ "$SV1" != "$SV4" ]; then
  echo "ERROR: servesim digests differ between --workers 1 and --workers 4" >&2
  echo "  serial: $SV1  fanned: $SV4" >&2
  exit 1
fi
echo "servesim scorecard: $SV1," \
  "$(grep -o '"nvme_ttft_ratio":[0-9.]*' BENCH_serve.json)"

echo "VERIFY OK"
