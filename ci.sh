#!/bin/sh
# Tier-1 gate: everything must build, be gofmt-clean, pass vet, and
# pass the full test suite under the race detector (the parallel
# evaluation engine, sweep drivers, and mission batch all exercise
# their concurrent paths in their package tests). Then two smoke
# tests: a short bench run must emit a JSON metrics snapshot that
# parses and contains the core metric families, and a faulted protocol
# run (scripted fail-silent windows + loss burst + retransmission)
# must produce bit-identical metrics snapshots at two worker counts —
# the determinism gate for the fault-injection path.
#
# On top of tier 1, the validation-harness gates: the golden corpus
# must regenerate identically at 1 and 8 workers and the comparator
# must catch an injected perturbation; every fuzz target gets a short
# live fuzz beyond its committed seed corpus; and the harness's own
# packages must hold a statement-coverage floor.
set -eux

go build ./...

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" "$unformatted" >&2
    exit 1
fi

go vet ./...
go test -race ./...

# perfbench is a separate module, so the root build never compiles it;
# vet and test it here because it names program APIs.
(cd perfbench && go vet ./... && go test ./...)

go run ./cmd/oaqbench -exp fig9,simvsana -episodes 256 -metrics - |
    go run ./cmd/metricscheck des oaq crosslink parallel capacity

# Fault-scenario smoke under -race, plus the determinism gate: the same
# faulted workload at 1 and 7 workers must dump identical simulation
# metrics (wall-clock families are exempted by metricscheck's default
# -ignore pattern).
tmpdir=$(mktemp -d)
qosd_pid=""
trap 'if [ -n "$qosd_pid" ]; then kill "$qosd_pid" 2>/dev/null || true; fi; rm -rf "$tmpdir"' EXIT
go run -race ./cmd/constsim -mode protocol -episodes 500 -loss 0.4 -retries 2 \
    -faults cmd/constsim/testdata/faults.json -workers 1 -metrics "$tmpdir/w1.json"
go run ./cmd/constsim -mode protocol -episodes 500 -loss 0.4 -retries 2 \
    -faults cmd/constsim/testdata/faults.json -workers 7 -metrics "$tmpdir/w7.json"
go run ./cmd/metricscheck -in "$tmpdir/w1.json" -diff "$tmpdir/w7.json" des oaq crosslink fault

# Example smoke: every examples/* program must run to completion (no
# test runs them), and quickstart must print its traced protocol
# episode as a span tree.
for ex in examples/*/; do
    go run "./$ex" > "$tmpdir/example-$(basename "$ex").txt"
done
grep -q "span tree" "$tmpdir/example-quickstart.txt"

# Routed-fabric smoke under -race, one run per forwarding policy: a
# congested multi-hop workload with background cross-traffic exercises
# the per-node queues, the policy state, and the packet pool's epoch
# fencing on the race detector.
for policy in static probabilistic qlearning; do
    go run -race ./cmd/constsim -mode protocol -episodes 200 -k 10 \
        -route "$policy" -traffic-load 40 -retries 1 \
        -faults cmd/constsim/testdata/faults.json
done

# Routed determinism gate: the same routed faulted workload at 1 and 7
# workers must dump identical simulation metrics, including the route_*
# family (queue depths, drops, hop counts).
go run ./cmd/constsim -mode protocol -episodes 500 -k 10 -route qlearning \
    -traffic-load 40 -retries 1 -faults cmd/constsim/testdata/faults.json \
    -workers 1 -metrics "$tmpdir/r1.json"
go run ./cmd/constsim -mode protocol -episodes 500 -k 10 -route qlearning \
    -traffic-load 40 -retries 1 -faults cmd/constsim/testdata/faults.json \
    -workers 7 -metrics "$tmpdir/r7.json"
go run ./cmd/metricscheck -in "$tmpdir/r1.json" -diff "$tmpdir/r7.json" des oaq crosslink route
# The same gate at the congested golden point (3 pkt/min links, load
# 180): egress rings fill, wrap and drop at their QueueCap, so queue
# order and drop accounting are under the determinism gate too.
go run ./cmd/constsim -mode protocol -episodes 500 -k 10 -route qlearning \
    -isl-capacity 3 -traffic-load 180 -retries 1 \
    -faults cmd/constsim/testdata/faults.json -workers 1 -metrics "$tmpdir/rc1.json"
go run ./cmd/constsim -mode protocol -episodes 500 -k 10 -route qlearning \
    -isl-capacity 3 -traffic-load 180 -retries 1 \
    -faults cmd/constsim/testdata/faults.json -workers 7 -metrics "$tmpdir/rc7.json"
go run ./cmd/metricscheck -in "$tmpdir/rc1.json" -diff "$tmpdir/rc7.json" des oaq crosslink route

# Golden-corpus gate: the committed experiment snapshots (figures 7-9
# and the degraded-mode sweeps) must regenerate identically at both
# worker counts, and the comparator must fail loudly when the
# regenerated values are perturbed.
go run ./cmd/goldencheck -workers 1
go run ./cmd/goldencheck -workers 8
if go run ./cmd/goldencheck -only fig9 -perturb 0.05; then
    echo "goldencheck failed to detect an injected perturbation" >&2
    exit 1
fi

# Allocation gate: the des kernel's schedule-and-run loop on a reused
# simulation (heap and lane events), the steady-state episode hot path
# (on the ideal channel, and on the routed ISL fabric under every
# forwarding policy at both the default and the congested golden
# operating point, faults included),
# the SoA coverage scan (one target, and a ring of 16 longitudes), the
# shared read-mostly scanner's concurrent query path, and the
# stochastic-geometry point query (one cap integral plus one binomial
# term) all have a committed budget of 0 allocs/op
# (BENCH_PR5.json / BENCH_PR6.json / BENCH_PR10.json). A single
# fixed-count bench run is timing-noisy but its allocation counts are exact, so gate on
# allocs/op only; timing is measured by perfbench/run.sh.
alloc_budget=0
go test -run '^$' -bench '^BenchmarkProtocolEpisode$|^BenchmarkProtocolEpisodeRouted$|^BenchmarkCoverageScan$|^BenchmarkSharedScanner$' \
    -benchmem -benchtime 200x . |
    tee "$tmpdir/bench.txt"
go test -run '^$' -bench '^BenchmarkStochGeom$/^pvisible$' -benchmem -benchtime 200x . |
    tee -a "$tmpdir/bench.txt"
go test -run '^$' -bench '^BenchmarkScheduleAndRun$' -benchmem -benchtime 200x ./internal/des |
    tee -a "$tmpdir/bench.txt"
awk -v budget="$alloc_budget" '
    /^BenchmarkProtocolEpisode(-[0-9]+)?[ \t]/ || /^BenchmarkProtocolEpisodeRouted\// ||
    /^BenchmarkCoverageScan\// ||
    /^BenchmarkSharedScanner(-[0-9]+)?[ \t]/ ||
    /^BenchmarkStochGeom\/pvisible(-[0-9]+)?[ \t]/ ||
    /^BenchmarkScheduleAndRun(-[0-9]+)?[ \t]/ {
        seen++
        allocs = $(NF - 1) + 0
        if (allocs > budget) {
            print $1, "allocs/op", allocs, "exceeds budget", budget; bad = 1
        }
    }
    END { if (seen < 22) { print "expected 22 gated benchmarks, saw", seen + 0; bad = 1 }; exit bad }
' "$tmpdir/bench.txt"

# Worker-invariance gate: every experiment's rendered output must be
# bit-identical at 1 and 8 workers. This includes the stochastic-geometry
# check, whose BPP backend must agree with the exact geometry engine on
# every Walker preset (the experiment self-gates the relative mean error
# at 1% in its package test).
go run ./cmd/oaqbench -exp all -episodes 256 -workers 1 > "$tmpdir/all1.txt"
go run ./cmd/oaqbench -exp all -episodes 256 -workers 8 > "$tmpdir/all8.txt"
cmp "$tmpdir/all1.txt" "$tmpdir/all8.txt"
grep -q "worst relative mean error" "$tmpdir/all1.txt"

# Sweep-metrics determinism gate: sweep points run concurrently, yet the
# simulation families they publish must fold into the same snapshot at
# 1 and 8 workers, down to the last bit of every histogram sum.
go run ./cmd/oaqbench -exp degraded-loss,ablation-backward -episodes 256 \
    -workers 1 -metrics "$tmpdir/sweep1.json" > /dev/null
go run ./cmd/oaqbench -exp degraded-loss,ablation-backward -episodes 256 \
    -workers 8 -metrics "$tmpdir/sweep8.json" > /dev/null
go run ./cmd/metricscheck -in "$tmpdir/sweep1.json" -diff "$tmpdir/sweep8.json" des oaq crosslink

# Serving gate: boot satqosd on an ephemeral port with an artificially
# tiny Monte-Carlo admission budget, then satqosload exercises
# the analytic path, a Monte-Carlo request plus its cache-hit repeat,
# and an over-budget request that must be shed with an explicit 429.
# The served /metrics.json snapshot must validate (server + merged
# simulation families) and record exactly one shed, and SIGTERM must
# drain to a clean exit 0.
go build -o "$tmpdir/satqosd" ./cmd/satqosd
go build -o "$tmpdir/satqosload" ./cmd/satqosload
"$tmpdir/satqosd" -addr 127.0.0.1:0 -ready-file "$tmpdir/qosd.addr" \
    -mc-budget 50000 > "$tmpdir/qosd.log" 2>&1 &
qosd_pid=$!
"$tmpdir/satqosload" -addr-file "$tmpdir/qosd.addr" \
    -shed-episodes 100000 -metrics-out "$tmpdir/qosd.metrics.json"
go run ./cmd/metricscheck -in "$tmpdir/qosd.metrics.json" satqosd oaq
grep -A 4 '"name": "satqosd_shed_total"' "$tmpdir/qosd.metrics.json" |
    grep -q '"value": 1'
kill -TERM "$qosd_pid"
wait "$qosd_pid"
qosd_pid=""

# Pooled-shard allocation gate: a whole EvaluateParallel batch (4096
# episodes = 4 shards) draws its runners from the shared pool and
# costs tens of allocations, not the ~1000 the per-shard construction
# used to; a paired batch draws two runners per shard from the same
# pool and costs ~60, not the ~400 of two fresh runners per shard. Each
# budget is about four times the measured count: headroom for
# sync.Pool/GC variance that still catches any return of per-shard
# stack rebuilding.
go test -run '^$' -bench '^BenchmarkEvaluateParallel$|^BenchmarkEvaluatePairedParallel$' \
    -benchmem -benchtime 50x . |
    tee "$tmpdir/bench_pool.txt"
awk '
    /^BenchmarkEvaluateParallel\// { budget = 160 }
    /^BenchmarkEvaluatePairedParallel\// { budget = 240 }
    /^BenchmarkEvaluate(Paired)?Parallel\// {
        seen++
        allocs = $(NF - 1) + 0
        if (allocs > budget) {
            print $1, "allocs/op", allocs, "exceeds budget", budget; bad = 1
        }
    }
    END { if (seen < 6) { print "expected 6 pooled-shard benchmarks, saw", seen + 0; bad = 1 }; exit bad }
' "$tmpdir/bench_pool.txt"

# Span-trace gates. First determinism: the same lossy workload traced
# at 1 and 8 workers must produce byte-identical Chrome trace exports
# (the retained set is a pure function of episode ordinals and
# outcomes, and the export holds nothing else), and tracing must not
# perturb the simulation — the traced and untraced snapshots of the
# same run must be diff-identical modulo the wall-clock families. Then
# the exporter contract: the Chrome trace-event JSON must satisfy the
# viewer invariants metricscheck -chrome enforces.
go run ./cmd/constsim -mode protocol -episodes 500 -loss 0.4 -retries 1 \
    -workers 1 -metrics "$tmpdir/tr1.json" -trace-chrome "$tmpdir/tr1.chrome.json"
go run ./cmd/constsim -mode protocol -episodes 500 -loss 0.4 -retries 1 \
    -workers 8 -metrics "$tmpdir/tr8.json" -trace-chrome "$tmpdir/tr8.chrome.json"
go run ./cmd/constsim -mode protocol -episodes 500 -loss 0.4 -retries 1 \
    -workers 8 -metrics "$tmpdir/untraced8.json"
cmp "$tmpdir/tr1.chrome.json" "$tmpdir/tr8.chrome.json"
grep -q '"name":"process_name"' "$tmpdir/tr1.chrome.json" # the gate is vacuous if nothing was retained
go run ./cmd/metricscheck -in "$tmpdir/tr1.json" -diff "$tmpdir/tr8.json" oaq crosslink
go run ./cmd/metricscheck -in "$tmpdir/tr8.json" -diff "$tmpdir/untraced8.json" oaq
go run ./cmd/metricscheck -chrome "$tmpdir/tr1.chrome.json"
go run ./cmd/metricscheck -chrome internal/oaq/testdata/anomaly_chrome.golden

# Fuzz smoke tier: a short live fuzz of every target, beyond the
# committed seed corpora (which plain `go test` already replays).
go test -run='^$' -fuzz='^FuzzScenarioJSON$' -fuzztime=5s ./internal/fault
go test -run='^$' -fuzz='^FuzzParams$' -fuzztime=5s ./internal/oaq
go test -run='^$' -fuzz='^FuzzConditionalPMF$' -fuzztime=5s ./internal/qos
go test -run='^$' -fuzz='^FuzzGeometry$' -fuzztime=5s ./internal/qos
go test -run='^$' -fuzz='^FuzzSnapshotDiff$' -fuzztime=5s ./cmd/metricscheck
go test -run='^$' -fuzz='^FuzzRouteConfigJSON$' -fuzztime=5s ./internal/route
go test -run='^$' -fuzz='^FuzzAnalytic$' -fuzztime=5s ./internal/capacity
go test -run='^$' -fuzz='^FuzzEvaluateRequest$' -fuzztime=5s ./internal/qosd

# Coverage floor on the validation harness, its statistical machinery,
# the observability layer (metrics + span tracing), the routed ISL
# fabric, and the stochastic-geometry backend: these packages gate
# everything else, so their own statement coverage must not rot.
go test -cover ./internal/validate ./internal/stats ./internal/obs ./internal/obs/trace ./internal/route ./internal/stochgeom |
    awk '/coverage:/ {
             gsub(/%/, "", $5)
             if ($5 + 0 < 75) { print "coverage below 75%:", $0; bad = 1 }
         }
         END { exit bad }'
