#!/bin/sh
# Staged CI pipeline. Mirrors what the driver runs on every PR; keep it
# green.
#
#   ./ci.sh                 # all stages: build fmt lint test smoke durability tracing engines hybrid
#   ./ci.sh build test      # just those stages
#   ./ci.sh --list          # list stages with one-line descriptions
#
# The pinned runs (fault, chunk-off, routed and serving cells, each run
# twice and/or under both engines and diffed against ci/golden/) and the
# check matrix are `dune runtest` rules, table in ci/cells.ml; refresh a
# golden after an intended change with `dune runtest; dune promote`.
#
# Each stage is wall-clock timed; a failing stage is named in a
# trailing "== stage X: FAILED ==" line so the culprit is the last
# thing in the log.
#
# Stages:
#   build      - dune build @all
#   fmt        - dune build @fmt (skipped when ocamlformat is not installed)
#   lint       - dump determinism: summary, classify (text +
#                schema-validated JSON) and shape dumps must be
#                byte-identical across two runs
#   test       - dune runtest (tier-1 unit/property/integration suites,
#                the check matrix and the pinned cells vs ci/golden/)
#   smoke      - quick bench-harness run; writes metrics JSON to _ci/metrics;
#                the shared run flags (engine, faults, replicas, ack) parse
#                and bad bench and serve flags are usage errors
#   durability - replicated-tier crash matrix: workloads x seeds x
#                replicas={1,3}; each run twice (byte-identical counters),
#                replicas=3 must finish with a correct checksum, replicas=1
#                must demonstrably lose data (wrong checksum, lost objects)
#   tracing    - observability gate: span-traced runs must not perturb the
#                sim (counters byte-identical to ci/golden/), the exported
#                Chrome trace must validate against ci/trace_schema.json,
#                and fixed-seed attribution exports must be byte-identical
#                across two runs (workloads x seeds matrix)
#   engines    - execution-engine gate: the check matrix re-run with
#                --engine compiled, and the engine_speedup
#                dispatch-throughput experiment must PASS
#   hybrid     - hybrid data-plane gate: a routed streaming workload must
#                stay byte-identical to its unrouted run (the classifier
#                keeps its hands off), and so must shape-blind routing of
#                llist; the shadow validator cross-checks static classes
#                against observed dependent-load depths; the
#                hybrid_routing and shape_routing bench gates must PASS
set -eu

cd "$(dirname "$0")"

CLI=_build/default/bin/trackfm_cli.exe
FAULT_WORKLOADS="stream-sum hashmap"
FAULT_SEEDS="1 2 3"
FAULT_SPEC=medium
SUMMARY_WORKLOADS="stream-sum kmeans analytics hashmap"
CLASSIFY_WORKLOADS="stream-sum kmeans analytics hashmap memcached pointer-chase llist"
SHAPE_WORKLOADS="llist pointer-chase analytics hashmap"
DUR_WORKLOADS="stream-sum analytics"
DUR_SEEDS="1 2"
DUR_SPEC=crash=1500000:250000

stage_build() {
    echo "== stage build: dune build @all =="
    dune build @all
}

stage_fmt() {
    # Formatting is advisory: the check only runs where ocamlformat is
    # installed (the pinned build image does not ship it).
    if command -v ocamlformat >/dev/null 2>&1; then
        echo "== stage fmt: dune build @fmt =="
        dune build @fmt
    else
        echo "== stage fmt: skipped (ocamlformat not installed) =="
    fi
}

stage_lint() {
    dune build bin/trackfm_cli.exe
    # Summary determinism: the call-graph/summary dump must be
    # byte-identical across two runs of the same build.
    echo "== stage lint: summary dump determinism =="
    mkdir -p _ci/summaries
    for w in $SUMMARY_WORKLOADS; do
        "$CLI" summaries -w "$w" >"_ci/summaries/$w.txt"
        "$CLI" summaries -w "$w" >"_ci/summaries/$w.txt.rerun"
        if ! cmp -s "_ci/summaries/$w.txt" "_ci/summaries/$w.txt.rerun"; then
            echo "lint: NONDETERMINISTIC summaries dump for $w" >&2
            diff "_ci/summaries/$w.txt" "_ci/summaries/$w.txt.rerun" >&2 || true
            exit 1
        fi
    done
    # Classification determinism: the access-pattern dump (and the
    # routing decisions it drives) must be byte-identical across two
    # runs of the same build.
    echo "== stage lint: access-pattern classification determinism =="
    mkdir -p _ci/classify
    for w in $CLASSIFY_WORKLOADS; do
        "$CLI" classify -w "$w" >"_ci/classify/$w.txt"
        "$CLI" classify -w "$w" >"_ci/classify/$w.txt.rerun"
        if ! cmp -s "_ci/classify/$w.txt" "_ci/classify/$w.txt.rerun"; then
            echo "lint: NONDETERMINISTIC classification dump for $w" >&2
            diff "_ci/classify/$w.txt" "_ci/classify/$w.txt.rerun" >&2 || true
            exit 1
        fi
        # The machine-readable variant must be deterministic too, and
        # must satisfy the checked-in schema.
        "$CLI" classify -w "$w" --json >"_ci/classify/$w.json"
        "$CLI" classify -w "$w" --json >"_ci/classify/$w.json.rerun"
        if ! cmp -s "_ci/classify/$w.json" "_ci/classify/$w.json.rerun"; then
            echo "lint: NONDETERMINISTIC classification JSON for $w" >&2
            diff "_ci/classify/$w.json" "_ci/classify/$w.json.rerun" >&2 || true
            exit 1
        fi
        if ! "$CLI" validate --schema ci/classify_schema.json "_ci/classify/$w.json" >/dev/null; then
            echo "lint: classify --json for $w violates ci/classify_schema.json" >&2
            exit 1
        fi
    done
    # Shape-analysis determinism: the interprocedural shape dump must be
    # byte-identical across two runs of the same build.
    echo "== stage lint: shape analysis determinism =="
    mkdir -p _ci/shape
    for w in $SHAPE_WORKLOADS; do
        "$CLI" shape -w "$w" >"_ci/shape/$w.txt"
        "$CLI" shape -w "$w" >"_ci/shape/$w.txt.rerun"
        if ! cmp -s "_ci/shape/$w.txt" "_ci/shape/$w.txt.rerun"; then
            echo "lint: NONDETERMINISTIC shape dump for $w" >&2
            diff "_ci/shape/$w.txt" "_ci/shape/$w.txt.rerun" >&2 || true
            exit 1
        fi
    done
}

stage_test() {
    echo "== stage test: dune runtest =="
    dune runtest
}

stage_smoke() {
    echo "== stage smoke: bench harness (quick) =="
    mkdir -p _ci/metrics
    dune exec bench/main.exe -- table1 fig6 --quick --metrics-dir _ci/metrics
    for f in table1 fig6; do
        if [ ! -s "_ci/metrics/$f.json" ]; then
            echo "smoke: missing metrics JSON _ci/metrics/$f.json" >&2
            exit 1
        fi
    done
    # The run flags the bench shares with the CLI: every one of them
    # parses, and bad values are usage errors (exit 124) before any
    # experiment runs. So are out-of-range serve flags.
    echo "== stage smoke: shared run flags =="
    mkdir -p _ci/metrics-fabric
    dune exec bench/main.exe -- table1 --quick --engine compiled \
        --faults light --fault-seed 2 --replicas 3 --ack 2 \
        --metrics-dir _ci/metrics-fabric
    if [ ! -s _ci/metrics-fabric/table1.json ]; then
        echo "smoke: missing metrics JSON _ci/metrics-fabric/table1.json" >&2
        exit 1
    fi
    bench="bench/main.exe table1 --quick"
    for bad in "$bench --replicas 9" "$bench --ack 3 --replicas 2" \
        "$bench --faults bogus" "$bench --engine foo" "$bench --faults" \
        "bin/trackfm_cli.exe serve --skew 0" \
        "bin/trackfm_cli.exe serve --rate nan"; do
        status=0
        # shellcheck disable=SC2086 # $bad is deliberately word-split
        dune exec -- $bad >/dev/null 2>&1 || status=$?
        if [ "$status" -ne 124 ]; then
            echo "smoke: $bad exited $status, want 124" >&2
            exit 1
        fi
    done
}

stage_durability() {
    echo "== stage durability: crash matrix ($DUR_SPEC; seeds $DUR_SEEDS) =="
    dune build bin/trackfm_cli.exe
    mkdir -p _ci/durability
    fail=0
    for w in $DUR_WORKLOADS; do
        for seed in $DUR_SEEDS; do
            for tier in "1 1" "3 2"; do
                set -- $tier
                r=$1; k=$2
                out="_ci/durability/$w-seed$seed-r$r.json"
                log="_ci/durability/$w-seed$seed-r$r.log"
                "$CLI" run -w "$w" -s trackfm -m 25 \
                    --faults "$DUR_SPEC" --fault-seed "$seed" \
                    --replicas "$r" --ack "$k" \
                    --counters-json "$out" >"$log"
                "$CLI" run -w "$w" -s trackfm -m 25 \
                    --faults "$DUR_SPEC" --fault-seed "$seed" \
                    --replicas "$r" --ack "$k" \
                    --counters-json "$out.rerun" >/dev/null
                if ! cmp -s "$out" "$out.rerun"; then
                    echo "durability: NONDETERMINISTIC: $w seed $seed r=$r differs between two runs" >&2
                    diff "$out" "$out.rerun" >&2 || true
                    fail=1
                fi
                if [ "$r" = 1 ]; then
                    # A single node under this crash schedule must lose
                    # data: wrong answer, nonzero net.lost_objects.
                    if ! grep -q 'WRONG' "$log"; then
                        echo "durability: $w seed $seed r=1 did NOT lose data (checksum correct?)" >&2
                        fail=1
                    fi
                    if ! grep -q '"net.lost_objects":[1-9]' "$out"; then
                        echo "durability: $w seed $seed r=1 reports no lost objects" >&2
                        fail=1
                    fi
                else
                    # Three replicas with ack=2 must ride the identical
                    # schedule to a correct checksum with nothing lost.
                    if ! grep -q '(correct)' "$log"; then
                        echo "durability: $w seed $seed r=$r checksum WRONG" >&2
                        fail=1
                    fi
                    if grep -q '"net.lost_objects"' "$out"; then
                        echo "durability: $w seed $seed r=$r lost objects despite replication" >&2
                        fail=1
                    fi
                fi
            done
        done
    done
    if [ "$fail" -ne 0 ]; then
        echo "durability stage failed" >&2
        exit 1
    fi
}

TRACE_WORKLOADS="hashmap kmeans"
TRACE_SEEDS="1 2"

stage_tracing() {
    echo "== stage tracing: span attribution gate ($FAULT_SPEC; seeds $TRACE_SEEDS) =="
    dune build bin/trackfm_cli.exe
    mkdir -p _ci/tracing
    fail=0
    # Zero-cost check, read the strong way: a run with spans, trace and
    # attribution all enabled must leave every counter byte-identical to
    # the telemetry-off goldens in ci/golden/.
    for w in $FAULT_WORKLOADS; do
        for seed in $FAULT_SEEDS; do
            out="_ci/tracing/$w-seed$seed-counters.json"
            "$CLI" run -w "$w" -s trackfm -m 25 \
                --faults "$FAULT_SPEC" --fault-seed "$seed" \
                --trace "_ci/tracing/$w-seed$seed-trace.json" \
                --attribution "_ci/tracing/$w-seed$seed-attr-on.json" \
                --counters-json "$out" >/dev/null
            golden="ci/golden/$w-seed$seed.json"
            if ! cmp -s "$golden" "$out"; then
                echo "tracing: PERTURBED: $w seed $seed counters differ from $golden with telemetry on" >&2
                diff "$golden" "$out" >&2 || true
                fail=1
            fi
        done
    done
    # The exported Chrome trace must satisfy the checked-in schema.
    for f in _ci/tracing/*-trace.json; do
        if ! "$CLI" validate --schema ci/trace_schema.json "$f" >/dev/null; then
            echo "tracing: $f violates ci/trace_schema.json" >&2
            fail=1
        fi
    done
    # Attribution determinism: same workload, seed and build must export
    # byte-identical attribution JSON across two runs.
    for w in $TRACE_WORKLOADS; do
        for seed in $TRACE_SEEDS; do
            out="_ci/tracing/$w-seed$seed-attr.json"
            "$CLI" run -w "$w" -s trackfm -m 25 \
                --faults "$FAULT_SPEC" --fault-seed "$seed" \
                --attribution "$out" >/dev/null
            "$CLI" run -w "$w" -s trackfm -m 25 \
                --faults "$FAULT_SPEC" --fault-seed "$seed" \
                --attribution "$out.rerun" >/dev/null
            if ! cmp -s "$out" "$out.rerun"; then
                echo "tracing: NONDETERMINISTIC: $w seed $seed attribution differs between two runs" >&2
                fail=1
            fi
            # The invariant line is printed by the run itself; also make
            # sure the export carries a clean verdict.
            if ! grep -q '"violations":0' "$out"; then
                echo "tracing: $w seed $seed attribution reports invariant violations" >&2
                fail=1
            fi
        done
    done
    # A fault-preset run with the recorder armed must dump, and the dump
    # must be identical under the same fault seed.
    for seed in $TRACE_SEEDS; do
        fr="_ci/tracing/flight-seed$seed.json"
        "$CLI" run -w hashmap -s trackfm -m 25 \
            --faults "$FAULT_SPEC" --fault-seed "$seed" \
            --flight-recorder "$fr" >/dev/null
        "$CLI" run -w hashmap -s trackfm -m 25 \
            --faults "$FAULT_SPEC" --fault-seed "$seed" \
            --flight-recorder "$fr.rerun" >/dev/null
        if [ ! -s "$fr" ]; then
            echo "tracing: flight recorder did not dump for seed $seed" >&2
            fail=1
        elif ! cmp -s "$fr" "$fr.rerun"; then
            echo "tracing: NONDETERMINISTIC flight dump for seed $seed" >&2
            fail=1
        fi
    done
    if [ "$fail" -ne 0 ]; then
        echo "tracing stage failed" >&2
        exit 1
    fi
}

stage_engines() {
    echo "== stage engines: check matrix under the compiled engine + dispatch-throughput gate =="
    dune build bin/trackfm_cli.exe bench/main.exe
    mkdir -p _ci/engines
    fail=0
    # The check matrix must also hold under the compiled engine (check
    # re-runs every workload under both engines and requires identical
    # results and counters).
    "$CLI" check --engine compiled
    # Dispatch-throughput gate: engine_speedup must report PASS (at
    # least two cases >= 5x); full-size, not --quick, so the ratio is
    # measured on runs long enough to be stable.
    if ! dune exec bench/main.exe -- engine_speedup >_ci/engines/bench.log 2>&1; then
        cat _ci/engines/bench.log >&2
        echo "engines: engine_speedup experiment failed" >&2
        fail=1
    elif ! grep -q "engine_speedup PASS" _ci/engines/bench.log; then
        cat _ci/engines/bench.log >&2
        echo "engines: dispatch-throughput gate did not PASS" >&2
        fail=1
    fi
    if [ "$fail" -ne 0 ]; then
        echo "engines stage failed" >&2
        exit 1
    fi
}

stage_hybrid() {
    echo "== stage hybrid: routing identities, shadow audit, routing gates =="
    dune build bin/trackfm_cli.exe
    mkdir -p _ci/hybrid
    fail=0
    # Without shape facts the same compile must route nothing: the
    # --no-shapes run must be byte-identical to an unrouted run.
    "$CLI" run -w llist -s trackfm -m 25 --route off \
        --counters-json _ci/hybrid/llist-off.json >/dev/null
    "$CLI" run -w llist -s trackfm -m 25 --route static --no-shapes \
        --counters-json _ci/hybrid/llist-noshapes.json >/dev/null
    if ! cmp -s _ci/hybrid/llist-off.json _ci/hybrid/llist-noshapes.json; then
        echo "hybrid: shape-blind routing perturbed the helper-hidden workload" >&2
        diff _ci/hybrid/llist-off.json _ci/hybrid/llist-noshapes.json >&2 || true
        fail=1
    fi
    # Dynamic audit: the shadow validator executes the statically routed
    # llist under the interpreter's depth recorder and cross-checks every
    # static class; any mismatch (e.g. a lying shape summary that
    # misrouted a site) fails the gate.
    if ! "$CLI" shape -w llist --shadow -m 100 >_ci/hybrid/shadow.log 2>&1; then
        cat _ci/hybrid/shadow.log >&2
        echo "hybrid: shadow validator failed" >&2
        fail=1
    elif ! grep -q "shape-shadow PASS" _ci/hybrid/shadow.log; then
        cat _ci/hybrid/shadow.log >&2
        echo "hybrid: shadow validation did not PASS" >&2
        fail=1
    fi
    # Zero-routing identity: on a streaming workload the classifier
    # routes nothing, so route=static must be byte-identical to
    # route=off — down to the lazily-constructed swap never existing.
    "$CLI" run -w analytics -s trackfm -m 25 --route off \
        --counters-json _ci/hybrid/analytics-off.json >/dev/null
    "$CLI" run -w analytics -s trackfm -m 25 --route static \
        --counters-json _ci/hybrid/analytics-static.json >/dev/null
    if ! cmp -s _ci/hybrid/analytics-off.json _ci/hybrid/analytics-static.json; then
        echo "hybrid: routing perturbed an unrouted streaming workload" >&2
        diff _ci/hybrid/analytics-off.json _ci/hybrid/analytics-static.json >&2 || true
        fail=1
    fi
    # The two-directional performance gate (and the cross-engine
    # checksum identity) lives in the bench harness.
    if ! dune exec bench/main.exe -- hybrid_routing --quick >_ci/hybrid/bench.log 2>&1; then
        cat _ci/hybrid/bench.log >&2
        echo "hybrid: hybrid_routing experiment failed" >&2
        fail=1
    elif ! grep -q "hybrid_routing PASS" _ci/hybrid/bench.log; then
        cat _ci/hybrid/bench.log >&2
        echo "hybrid: routing gate did not PASS" >&2
        fail=1
    fi
    # Shape-analysis performance gate: routing helper-hidden chases must
    # beat the shape-blind hybrid (and nothing may route without shapes).
    if ! dune exec bench/main.exe -- shape_routing --quick >_ci/hybrid/shape-bench.log 2>&1; then
        cat _ci/hybrid/shape-bench.log >&2
        echo "hybrid: shape_routing experiment failed" >&2
        fail=1
    elif ! grep -q "shape_routing PASS" _ci/hybrid/shape-bench.log; then
        cat _ci/hybrid/shape-bench.log >&2
        echo "hybrid: shape-routing gate did not PASS" >&2
        fail=1
    fi
    if [ "$fail" -ne 0 ]; then
        echo "hybrid stage failed" >&2
        exit 1
    fi
}

if [ "${1:-}" = "--list" ]; then
    cat <<'EOF'
build       dune build @all
fmt         dune build @fmt (skipped when ocamlformat is not installed)
lint        summary/classify/shape dump determinism
test        dune runtest (tier-1 suites, check matrix, pinned cells vs ci/golden/)
smoke       quick bench-harness run with metrics JSON export + shared run flags
durability  replicated-tier crash matrix (r=1 must lose data, r=3 must not)
tracing     span tracing must not perturb counters; trace schema + attribution
engines     check matrix under the compiled engine + dispatch-throughput gate
hybrid      routing identities + shadow audit + routing/shape gates
EOF
    exit 0
fi

STAGES="${*:-build fmt lint test smoke durability tracing engines hybrid}"

# Name the failing stage at the very end of the log, where it is hardest
# to miss (set -e aborts mid-stage, possibly far above).
CURRENT_STAGE=""
report_failure() {
    status=$?
    if [ "$status" -ne 0 ] && [ -n "$CURRENT_STAGE" ]; then
        echo "== stage $CURRENT_STAGE: FAILED ==" >&2
    fi
}
trap report_failure EXIT

for s in $STAGES; do
    CURRENT_STAGE=$s
    stage_t0=$(date +%s)
    case "$s" in
        build)      stage_build ;;
        fmt)        stage_fmt ;;
        lint)       stage_lint ;;
        test)       stage_test ;;
        smoke)      stage_smoke ;;
        durability) stage_durability ;;
        tracing)    stage_tracing ;;
        engines)    stage_engines ;;
        hybrid)     stage_hybrid ;;
        *)
            echo "unknown stage '$s' (see ./ci.sh --list)" >&2
            exit 2
            ;;
    esac
    echo "== stage $s: ok in $(($(date +%s) - stage_t0))s =="
done
CURRENT_STAGE=""

echo "CI OK"
