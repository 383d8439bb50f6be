#!/usr/bin/env sh
# ci.sh — the tier-2 correctness gate.
#
# Tier 1 (go build ./... && go test ./...) proves the library works; this
# script layers on the project's own static and dynamic invariant checks:
#
#   1. gofmt         — no unformatted files
#   2. go vet        — the standard analyzers
#   3. blockreorg-vet — the project-specific analyzers (see internal/analysis)
#   4. vet allowlist  — blockreorg-vet -json diffed against the committed
#                      vet_allowlist.json (empty), so any new finding fails
#                      the build with a parseable, file:line diagnostic
#   5. go test -race — the invariant-heavy packages, the host executor
#                      (internal/parallel: work stealing, the shared slot
#                      pool, the views a deadline stops), plus the two
#                      spgemmd clients (spgemmload's live runner fires one
#                      goroutine per request; spgemmctl polls jobs), under
#                      the race detector, with BLOCKREORG_PARANOID=1 so every
#                      multiplication in those suites runs the deep
#                      sanitizer layer. Plan-cache hits are among them
#                      (TestConcurrentKnownStructureHits: eight goroutines
#                      on one plan a cold Multiply built), so the Paranoid
#                      cross-check of every known-structure hit against
#                      the accumulator engine runs here
#   6. examples       — every runnable Example function executes with its
#                      Output pinned, and every example program compiles,
#                      so the documented code paths cannot drift from the
#                      API (docs/CLI.md and the godoc examples are tested,
#                      not trusted)
#   7. bench smoke    — every benchmark once with -benchmem, so a change
#                      that breaks a measured path (or its setup) fails
#                      here instead of silently disappearing from the
#                      perf record, plus one spgemm CLI run per accumulator
#                      (auto, dense, hash, sort) on youtube and on harbor
#                      whose four products must compare byte-identical —
#                      auto sends few rows of a narrow operand through sort,
#                      so the forced sort path gets its own end-to-end
#                      check; the host merges hash rows dense, so the hash
#                      run checks that the name still runs and agrees byte
#                      for byte; and the two datasets take the dense path's
#                      sort-fallback and bitmap-sweep emits. Runs on every
#                      host: it checks that the paths work and agree, and
#                      records no timings
#   8. fuzz smoke     — FuzzDecodeRequest, FuzzOpenSegmented and
#                      FuzzAccumulatorMerge each run for 10 s past their
#                      seed corpora: spgemmd's request decoder must agree
#                      with encoding/json on whatever the fuzzer makes, the
#                      segmented container (the one binary matrix decoder)
#                      must reject or read any file without a panic and
#                      within its allocation bound, and every merge
#                      strategy, the dense path's wide rows and each of its
#                      emit branches included, must sum any product stream
#                      to CombineRow's bits. FuzzReadMatrixMarket stays
#                      out: a mutated size line may legitimately allocate
#                      gigabytes
#   9. graphrun smoke — genmat generates a small R-MAT network and graphrun
#                      clusters it end to end, so the CLI wiring from file
#                      input through the pipeline engine stays exercised
#  10. spgemmload smoke — a tiny workload spec drives an in-process spgemmd
#                      for under a second and records the request trace;
#                      the trace is scored twice and the two reports must
#                      compare byte-identical, and both the live and the
#                      scored report must pass the committed schema golden,
#                      so the serving loop (admission, queue-wait
#                      accounting, trace recording and reading, SLO
#                      scoring) stays exercised end to end
#  11. cluster smoke  — spgemmd starts as a 2-instance cluster behind the
#                      structure-affinity router, spgemmload drives a
#                      structure-repeating spec at it over real HTTP, and
#                      the gate asserts the router's affinity-hit counter
#                      moved (cluster_routed_total{...,affinity_hit="true"}
#                      > 0), that the live cluster /metrics declares each
#                      family once (no repeated "# TYPE" line), and that
#                      the fitness report still passes the schema golden —
#                      so the routing and fleet-scrape paths of
#                      docs/CLUSTER.md stay exercised end to end
#  12. out-of-core smoke — genmat -stream writes a segmented R-MAT network,
#                      graphrun powers it in memory and then under two
#                      deliberately tiny -mem-budgets. Each budgeted result
#                      file must compare byte-identical to the in-memory
#                      one — the engine's bit-identity contract enforced
#                      end to end at the CLI — and each run must tile
#                      (ooc_tiles > 1) with its tracked peak within the
#                      budget (ooc_peak_tracked_bytes <= ooc_budget_bytes).
#                      64K splits B into about 3 column panels, so tiles
#                      still spill and each row panel is merged from its
#                      files. 160K keeps B in one column panel, so A's row
#                      panels are cut by the budget B leaves and each tile
#                      is emitted unspilled
#  13. scorecard gate — blockreorg-bench regenerates, in one invocation at
#                      scale 8 (deterministic, about half a minute), every
#                      scorecard CSV that reproduces today: ablation-alpha,
#                      casestudy_0, fig3a, fig3b, fig11 (both), fig12, fig13,
#                      tab1, tab2 and tab3 (both). Each must compare
#                      byte-identical to its committed results/ file, so
#                      the claims EXPERIMENTS.md makes from them cannot
#                      drift silently. fig8 and fig10 run in the same
#                      invocation, so ablation-alpha's outer-product and
#                      α=10 columns are read from the runs those figures
#                      made: the gate also covers the harness's shared
#                      memo. The other 9 CSVs (casestudy_1, fig3c, fig8,
#                      fig9, fig10, fig14, fig15, fig16a, fig16b) are not
#                      gated yet (ROADMAP item 1)
#  14. grid-golden gate — the benchmark's grid-multiply workload runs for one
#                      second (about 6 s with its build and set-up) and must
#                      report "correct":true: the simulated seconds of a
#                      cold and a rebound Block Reorganizer run, and the
#                      product checksums, of the six scale-32 grid datasets
#                      match benchmark/testdata/grid_golden.json, so a
#                      change to the simulator or the host engine that
#                      moves a simulated second or a product bit fails here
#
# Run from the repository root. Exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")"

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet"
go vet ./...

echo "==> blockreorg-vet"
go run ./cmd/blockreorg-vet ./...

echo "==> blockreorg-vet -json (allowlist diff)"
vet_json=$(mktemp)
go run ./cmd/blockreorg-vet -json ./... >"$vet_json" || true
if ! diff -u vet_allowlist.json "$vet_json"; then
    echo "blockreorg-vet findings diverge from vet_allowlist.json" >&2
    echo "(fix the findings, or suppress with a reasoned //vet:ignore)" >&2
    rm -f "$vet_json"
    exit 1
fi
rm -f "$vet_json"

echo "==> go test -race (paranoid)"
BLOCKREORG_PARANOID=1 go test -race . ./internal/core/... ./internal/gpusim/... ./internal/kernels/... ./internal/parallel/... ./internal/trace/... ./internal/prom/... ./sparse/... ./server/... ./pipeline/... ./workload/... ./ooc/... \
    ./cmd/spgemmload/... ./cmd/spgemmctl/...

echo "==> examples (godoc Examples + example programs)"
go test -run Example ./...
for ex in ./examples/*/; do
    go build -o /dev/null "$ex"
done

smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT

echo "==> bench smoke (every benchmark once)"
go test -run '^$' -bench . -benchtime 1x -benchmem ./...

echo "==> accumulator smoke (spgemm -accum auto/dense/hash/sort, byte-identical products)"
go build -o "$smoke_dir/spgemm" ./cmd/spgemm
# youtube's rows are mostly too sparse for their bitmap span, so its dense
# rows emit through the sort fallback; harbor's are dense enough to be
# swept out of the bitmap. Together they hold both dense emit branches.
for ds in youtube:64 harbor:32; do
    name=${ds%:*} scale=${ds#*:}
    for accum in auto dense hash sort; do
        "$smoke_dir/spgemm" -dataset "$name" -scale "$scale" -accum "$accum" -o "$smoke_dir/c_${name}_$accum.mtx"
    done
    for accum in auto hash sort; do
        if ! cmp -s "$smoke_dir/c_${name}_dense.mtx" "$smoke_dir/c_${name}_$accum.mtx"; then
            echo "accumulator strategies disagree on $name: -accum dense and -accum $accum wrote different products" >&2
            exit 1
        fi
    done
done

echo "==> fuzz smoke (request decoder against encoding/json)"
go test -run '^$' -fuzz '^FuzzDecodeRequest$' -fuzztime 10s ./server
echo "==> fuzz smoke (segmented container readers)"
go test -run '^$' -fuzz '^FuzzOpenSegmented$' -fuzztime 10s ./sparse
echo "==> fuzz smoke (merge accumulators against CombineRow)"
go test -run '^$' -fuzz '^FuzzAccumulatorMerge$' -fuzztime 10s ./sparse

echo "==> graphrun smoke (genmat R-MAT -> MCL clustering)"
go run ./cmd/genmat -kind rmat -n 256 -nnz 1024 -seed 7 -o "$smoke_dir/net.mtx"
go run ./cmd/graphrun -workload mcl -in "$smoke_dir/net.mtx" -symmetrize -profile

echo "==> spgemmload smoke (spec -> live run -> trace -> score twice -> schema check)"
cat >"$smoke_dir/wl.json" <<'EOF'
{
  "name": "ci-smoke",
  "seed": 7,
  "duration_seconds": 0.8,
  "classes": [
    {
      "name": "interactive",
      "arrival": {"process": "poisson", "rate": 15},
      "matrix": {"kind": "rmat", "n": 96, "nnz": 600},
      "structure_pool": 2,
      "slo": {"p95_ms": 2000}
    },
    {
      "name": "batch",
      "arrival": {"process": "gamma", "rate": 6, "cv": 2},
      "matrix": {"kind": "powerlaw", "n": 128, "nnz": 900},
      "structure_churn": 0.5,
      "weight": 2
    }
  ]
}
EOF
go run ./cmd/spgemmload run -spec "$smoke_dir/wl.json" -self \
    -trace "$smoke_dir/wl.jsonl" -o "$smoke_dir/live.json"
go run ./cmd/spgemmload score -trace "$smoke_dir/wl.jsonl" -spec "$smoke_dir/wl.json" \
    -o "$smoke_dir/score1.json"
go run ./cmd/spgemmload score -trace "$smoke_dir/wl.jsonl" -spec "$smoke_dir/wl.json" \
    -o "$smoke_dir/score2.json"
if ! cmp -s "$smoke_dir/score1.json" "$smoke_dir/score2.json"; then
    echo "spgemmload score is not deterministic" >&2
    exit 1
fi
go run ./cmd/spgemmload check -report "$smoke_dir/live.json" -schema workload/testdata/fitness_schema.json
go run ./cmd/spgemmload check -report "$smoke_dir/score1.json" -schema workload/testdata/fitness_schema.json

echo "==> cluster smoke (2-instance affinity router, real HTTP)"
cat >"$smoke_dir/cl.json" <<'EOF'
{
  "name": "ci-cluster",
  "seed": 11,
  "duration_seconds": 1.0,
  "classes": [
    {
      "name": "repeat",
      "arrival": {"process": "poisson", "rate": 20},
      "matrix": {"kind": "rmat", "n": 96, "nnz": 600},
      "structure_pool": 3
    }
  ]
}
EOF
go run ./cmd/spgemmload gen -spec "$smoke_dir/cl.json" -o /dev/null
go build -o "$smoke_dir/spgemmd" ./cmd/spgemmd
cluster_addr=127.0.0.1:18448
"$smoke_dir/spgemmd" -addr "$cluster_addr" -cluster 2 -workers 1 -route affinity \
    >"$smoke_dir/spgemmd.log" 2>&1 &
cluster_pid=$!
trap 'kill "$cluster_pid" 2>/dev/null; rm -rf "$smoke_dir"' EXIT
i=0
until curl -sf "http://$cluster_addr/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ] || ! kill -0 "$cluster_pid" 2>/dev/null; then
        echo "cluster spgemmd failed to come up:" >&2
        cat "$smoke_dir/spgemmd.log" >&2
        exit 1
    fi
    sleep 0.1
done
go run ./cmd/spgemmload run -spec "$smoke_dir/cl.json" -target "http://$cluster_addr" \
    -o "$smoke_dir/cluster.json"
go run ./cmd/spgemmload check -report "$smoke_dir/cluster.json" -schema workload/testdata/fitness_schema.json
curl -sf "http://$cluster_addr/metrics" >"$smoke_dir/cluster_metrics.txt"
kill "$cluster_pid" 2>/dev/null || true
trap 'rm -rf "$smoke_dir"' EXIT
repeated_types=$(grep '^# TYPE' "$smoke_dir/cluster_metrics.txt" | sort | uniq -d)
if [ -n "$repeated_types" ]; then
    echo "cluster smoke: /metrics repeats a family's TYPE line:" >&2
    echo "$repeated_types" >&2
    exit 1
fi
affinity_hits=$(awk '$1 == "cluster_routed_total{policy=\"affinity\",affinity_hit=\"true\"}" { print $2 }' \
    "$smoke_dir/cluster_metrics.txt")
if [ -z "$affinity_hits" ] || [ "$affinity_hits" -le 0 ]; then
    echo "cluster smoke: affinity hit counter absent or zero (got '${affinity_hits:-missing}')" >&2
    grep '^cluster_' "$smoke_dir/cluster_metrics.txt" >&2 || true
    exit 1
fi
echo "cluster smoke: $affinity_hits affinity-routed requests"

echo "==> out-of-core smoke (genmat -stream -> graphrun -mem-budget, byte-identical)"
go run ./cmd/genmat -kind rmat -n 256 -nnz 2048 -seed 9 -stream -panel 32 -o "$smoke_dir/net.csrs"
go run ./cmd/graphrun -workload power -in "$smoke_dir/net.csrs" -k 3 \
    -o "$smoke_dir/power_mem.mtx"
for budget in 64K 160K; do
    go run ./cmd/graphrun -workload power -in "$smoke_dir/net.csrs" -k 3 \
        -mem-budget "$budget" -spill-dir "$smoke_dir/spill" -profile \
        -o "$smoke_dir/power_ooc_$budget.mtx" | tee "$smoke_dir/power_ooc_$budget.txt"
    if ! cmp -s "$smoke_dir/power_mem.mtx" "$smoke_dir/power_ooc_$budget.mtx"; then
        echo "out-of-core smoke: result under $budget differs from the in-memory run" >&2
        exit 1
    fi
    ooc_tiles=$(awk '$1 == "ooc_tiles" { print $2 }' "$smoke_dir/power_ooc_$budget.txt")
    if [ -z "$ooc_tiles" ] || [ "$ooc_tiles" -le 1 ]; then
        echo "out-of-core smoke: $budget did not force a tile grid (ooc_tiles='${ooc_tiles:-missing}')" >&2
        exit 1
    fi
    ooc_peak=$(awk '$1 == "ooc_peak_tracked_bytes" { print $2 }' "$smoke_dir/power_ooc_$budget.txt")
    ooc_budget=$(awk '$1 == "ooc_budget_bytes" { print $2 }' "$smoke_dir/power_ooc_$budget.txt")
    if [ -z "$ooc_peak" ] || [ -z "$ooc_budget" ] || [ "$ooc_peak" -gt "$ooc_budget" ]; then
        echo "out-of-core smoke: tracked peak '${ooc_peak:-missing}' over the budget '${ooc_budget:-missing}'" >&2
        exit 1
    fi
    echo "out-of-core smoke: $budget, $ooc_tiles tiles, peak $ooc_peak of $ooc_budget bytes, byte-identical result"
done

echo "==> scorecard gate (12 scorecard CSVs regenerated, byte-identical to results/)"
go run ./cmd/blockreorg-bench -scale 8 -csv "$smoke_dir/results" \
    fig8 fig10 ablation-alpha casestudy fig3a fig3b fig11 fig12 fig13 tab1 tab2 tab3 >/dev/null
for csv in ablation-alpha_0 casestudy_0 fig11_0 fig11_1 fig12_0 fig13_0 fig3a_0 fig3b_0 \
    tab1_0 tab2_0 tab3_0 tab3_1; do
    if ! cmp "$smoke_dir/results/$csv.csv" "results/$csv.csv"; then
        echo "scorecard gate: $csv at scale 8 differs from results/$csv.csv" >&2
        echo "(regenerate with: go run ./cmd/blockreorg-bench -scale 8 -csv results all)" >&2
        exit 1
    fi
done

echo "==> grid-golden gate (benchmark grid-multiply: simulated seconds and checksums match the golden)"
bash benchmark/run.sh --workload grid-multiply --seed 1 --seconds 1 --trace 0 | tee "$smoke_dir/grid.txt"
if ! tail -n 1 "$smoke_dir/grid.txt" | grep -q '"correct":true'; then
    echo "grid-golden gate: the grid-multiply run does not match benchmark/testdata/grid_golden.json" >&2
    exit 1
fi

echo "ci.sh: all gates passed"
