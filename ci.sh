#!/bin/sh
# ci.sh — the tier-1 verification workflow. Run before every commit.
#
#   ./ci.sh          full check (build, vet, fmt, tests, race-checked harness)
#   QUICK=1 ./ci.sh  same, but the slow figure-shape sweeps run in -short mode
#
# The -race pass covers internal/harness because that is where host-level
# concurrency lives (the experiment worker pool); the simulator itself is
# single-goroutine-at-a-time per kernel but many kernels run concurrently
# under the pool, so the harness suite doubles as the cross-run
# shared-state audit.
#
# Every stage is timed; the run ends with a per-stage wall-clock table
# and writes the same data machine-readably to /tmp/pmemspec-ci-times.json
# (CI uploads it as an artifact, so stage-cost drift is visible across
# runs without re-reading logs).
set -eu
cd "$(dirname "$0")"

short=""
if [ "${QUICK:-0}" = "1" ]; then
	short="-short"
fi

ci_start=$(date +%s)
cur_slug=""
cur_start=$ci_start
stage_rows=""
TIMES_FILE=${TIMES_FILE:-/tmp/pmemspec-ci-times.json}

# stage SLUG PRETTY... — closes the previous stage's timer, starts a new
# one, and prints the banner. SLUG keys the timing table; keep it short
# and space-free.
stage() {
	stage_slug=$1
	shift
	stage_now=$(date +%s)
	if [ -n "$cur_slug" ]; then
		stage_rows="${stage_rows}${cur_slug} $((stage_now - cur_start))
"
	fi
	cur_slug=$stage_slug
	cur_start=$stage_now
	echo "== $* =="
}

# finish_stages — closes the last stage, prints the timing table, and
# writes $TIMES_FILE.
finish_stages() {
	fin_now=$(date +%s)
	if [ -n "$cur_slug" ]; then
		stage_rows="${stage_rows}${cur_slug} $((fin_now - cur_start))
"
		cur_slug=""
	fi
	total=$((fin_now - ci_start))
	echo "== stage timing =="
	printf '%-24s %8s\n' stage seconds
	printf '%s' "$stage_rows" | while read -r row_name row_secs; do
		printf '%-24s %8s\n' "$row_name" "$row_secs"
	done
	printf '%-24s %8s\n' total "$total"
	quick_bool=false
	if [ "${QUICK:-0}" = "1" ]; then
		quick_bool=true
	fi
	{
		printf '{"quick":%s,"total_seconds":%s,"stages":[' "$quick_bool" "$total"
		printf '%s' "$stage_rows" |
			awk '{ printf "%s{\"name\":\"%s\",\"seconds\":%s}", (NR > 1 ? "," : ""), $1, $2 }'
		printf ']}\n'
	} >"$TIMES_FILE"
	echo "stage timings written to $TIMES_FILE"
}

# run_budgeted NAME BUDGET_S COMMAND — runs COMMAND (a sh -c script, so
# redirections work) and fails the build if its wall-clock exceeds the
# budget. Build binaries before calling this: the budget should measure
# the tool's work, not compilation.
run_budgeted() {
	rb_name=$1
	rb_budget=$2
	rb_cmd=$3
	rb_start=$(date +%s)
	sh -c "$rb_cmd"
	rb_elapsed=$(($(date +%s) - rb_start))
	echo "$rb_name: ${rb_elapsed}s (budget ${rb_budget}s)"
	if [ "$rb_elapsed" -gt "$rb_budget" ]; then
		echo "$rb_name exceeded its ${rb_budget}s wall-clock budget"
		exit 1
	fi
}

stage gofmt "gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" "$unformatted"
	exit 1
fi

stage vet "go vet ./..."
go vet ./...

stage lint "pmemspec-lint -fix -diff ./... (budgeted)"
# The repo's own persistency-discipline and determinism analyzers
# (internal/analysis); any diagnostic fails the build. Check mode
# (-fix -diff) additionally fails if the redundant-barrier optimizer
# still has applicable edits — apply them with `pmemspec-lint -fix`
# before committing. The analysis must also fit the wall-clock budget
# (the loader is stdlib-only and signatures-only for dependencies, so a
# lint run costs seconds, not a build).
go build -o /tmp/pmemspec-lint ./cmd/pmemspec-lint
run_budgeted pmemspec-lint "${LINT_BUDGET_S:-120}" \
	"/tmp/pmemspec-lint -fix -diff ./..."

stage build "go build ./..."
go build ./...
# Only the commands that offer -debug-addr (pmemspec-bench, -crash,
# -serve) import internal/debughttp. The simulator's other binaries must
# not link net/http: its ~80 dependent packages would initialize in
# every process, and set-up time is part of what the benchmark measures.
if go list -deps ./cmd/pmemspec-mc ./cmd/pmemspec-sim | grep -qx 'net/http'; then
	echo "pmemspec-mc or pmemspec-sim links net/http; keep the debug server in internal/debughttp"
	exit 1
fi

stage test "go test $short ./..."
go test $short ./...

stage coverage "coverage floor (./internal/...)"
# Statement coverage over the simulator packages, gated on the
# checked-in floor (COVERAGE_FLOOR). -short always: the floor tracks the
# cheap suite, so quick and full runs gate identically.
go test -short -coverprofile=/tmp/pmemspec-cover.out ./internal/... >/dev/null
coverage=$(go tool cover -func=/tmp/pmemspec-cover.out | awk '/^total:/ { sub(/%/, "", $3); print $3 }')
floor=$(cat COVERAGE_FLOOR)
echo "coverage ${coverage}% (floor ${floor}%)"
if ! awk -v c="$coverage" -v f="$floor" 'BEGIN { exit !(c+0 >= f+0) }'; then
	echo "coverage ${coverage}% fell below the checked-in floor ${floor}%"
	exit 1
fi

stage race "go test -race $short ./internal/harness/... ./internal/sim/... ./internal/serve/... ./internal/mem/... ./internal/cache/... ./internal/mc/..."
# -timeout raised above the go default: the race detector is ~10x and
# the harness sweeps are minutes-long even unraced on small hosts.
# internal/serve joins the race pass because it is the other place
# host-level concurrency lives (HTTP handlers racing the job
# dispatchers and the result cache). internal/mem, internal/cache and
# internal/mc join it because recycled PM images, caches and block
# tables cross goroutines through the shared free lists (mem's and
# cache's concurrent free-list tests; mc's parallel schedule and
# reference sweeps). Under -race the PM images stay on the Go heap
# (internal/mem/array_heap.go) rather than in mappings of their own, so
# the detector still sees their bytes.
go test -race -timeout 60m $short ./internal/harness/... ./internal/sim/... ./internal/serve/... ./internal/mem/... ./internal/cache/... ./internal/mc/...

stage crash-campaign "crash campaign (all designs, boundary-aligned, injection)"
# A small end-to-end fault-injection campaign: every design × every
# workload, persist-boundary-aligned crash points plus a coarse uniform
# grid, with synthetic misspeculations injected through the OS relay.
# Exits non-zero on any invariant violation or failed trial.
go run ./cmd/pmemspec-crash -all -threads 2 -ops 12 -points 2 -maxus 100 \
	-boundaries -boundary-budget 2 -max-points 5 \
	-inject-stale-ns 4000 -inject-ooo-ns 7000 -inject-count 3 \
	-report /tmp/pmemspec-campaign.json
# The report and the metrics grid must be independent of pool width
# (checked on one cell; the harness suite covers the multi-design case).
# Each crash point's metrics are a snapshot taken mid-run, inside the
# cell's one live run, so the grid is compared as well as the report.
go run ./cmd/pmemspec-crash -workload queue -threads 2 -ops 12 -points 3 -maxus 100 \
	-boundaries -boundary-budget 2 -inject-stale-ns 4000 -inject-count 3 \
	-parallel 1 -report /tmp/pmemspec-campaign-p1.json \
	-metrics-out /tmp/pmemspec-campaign-metrics-p1.json >/dev/null
go run ./cmd/pmemspec-crash -workload queue -threads 2 -ops 12 -points 3 -maxus 100 \
	-boundaries -boundary-budget 2 -inject-stale-ns 4000 -inject-count 3 \
	-parallel 8 -report /tmp/pmemspec-campaign-p8.json \
	-metrics-out /tmp/pmemspec-campaign-metrics-p8.json >/dev/null
cmp /tmp/pmemspec-campaign-p1.json /tmp/pmemspec-campaign-p8.json
cmp /tmp/pmemspec-campaign-metrics-p1.json /tmp/pmemspec-campaign-metrics-p8.json
# Without -metrics-out no trial takes a metrics snapshot; the report
# must not change.
go run ./cmd/pmemspec-crash -workload queue -threads 2 -ops 12 -points 3 -maxus 100 \
	-boundaries -boundary-budget 2 -inject-stale-ns 4000 -inject-count 3 \
	-parallel 1 -report /tmp/pmemspec-campaign-nometrics.json >/dev/null
cmp /tmp/pmemspec-campaign-p1.json /tmp/pmemspec-campaign-nometrics.json

stage metrics-determinism "metrics grid determinism (pool width 1 vs 8)"
# The observability layer's acceptance check: the (design, workload)
# metrics grid of a small Figure 9 sweep must serialize byte-identically
# whether the runs share one worker or race across eight. The
# -parallel 1 run doubles as the fresh wall-clock record for the perf
# gate below.
go build -o /tmp/pmemspec-bench ./cmd/pmemspec-bench
/tmp/pmemspec-bench -experiment fig9 -ops 50 -threads 2 -seed 1 -parallel 1 -json \
	-metrics-out /tmp/pmemspec-metrics-p1.json \
	-bench-out /tmp/pmemspec-bench-small.json >/dev/null
/tmp/pmemspec-bench -experiment fig9 -ops 50 -threads 2 -seed 1 -parallel 8 -json \
	-metrics-out /tmp/pmemspec-metrics-p8.json >/dev/null
cmp /tmp/pmemspec-metrics-p1.json /tmp/pmemspec-metrics-p8.json

stage bench-cmp "bench-cmp small-grid perf gate"
# Wall-clock regression gate against the checked-in small-grid baseline.
# BENCH_TOL is loose by default because hosted runners and laptops differ
# widely; tighten it (e.g. 0.15) when comparing on the baseline host.
go run ./cmd/pmemspec-ci bench-cmp -baseline BENCH_baseline_small.json \
	-current /tmp/pmemspec-bench-small.json -tolerance "${BENCH_TOL:-0.5}"

if [ "${QUICK:-0}" != "1" ]; then
	stage opt-loop "opt-loop (optimize -> simulate -> verify, budgeted)"
	# The closed optimization loop on the planted naive workloads: the
	# optimization analyzers' edits must apply cleanly to a sandboxed
	# module copy, the copy must re-analyze clean, the edited workloads
	# must survive the crash campaign, and the -json report must match
	# the schema with at least one positive simulated saving. The stage
	# rebuilds the module inside sandboxes (via the shared build cache),
	# so it runs in the nightly full pass, within a wall-clock budget.
	go build -o /tmp/pmemspec-opt ./cmd/pmemspec-opt
	run_budgeted pmemspec-opt "${OPT_BUDGET_S:-600}" \
		"/tmp/pmemspec-opt -workloads naivelog,naivescan -designs IntelX86,DPO -json . > /tmp/pmemspec-opt-report.json"
	go run ./cmd/pmemspec-ci opt-check -report /tmp/pmemspec-opt-report.json
fi

stage mc "model checker (litmus corpus, DPOR schedules x crash images, budgeted)"
# The one persist-order checker: every single- and multi-threaded
# litmus pattern × design, every non-equivalent thread interleaving
# (sleep-set partial-order reduction; one schedule for a single-threaded
# pattern), every reachable crash image per schedule. The sweep is
# exhaustive on push and nightly alike; the gate demands zero
# refutations, no capped cells, the 52-pattern corpus floor and a
# schedule count strictly below the unreduced interleaving bound.
go build -o /tmp/pmemspec-mc ./cmd/pmemspec-mc
run_budgeted pmemspec-mc "${MC_BUDGET_S:-600}" \
	"/tmp/pmemspec-mc -report /tmp/pmemspec-mc.json"
go run ./cmd/pmemspec-ci mc-check -report /tmp/pmemspec-mc.json

stage serve-smoke "serve smoke (daemon over HTTP vs direct harness)"
# End-to-end exercise of the service layer: boot pmemspec-serve on an
# ephemeral port, run a small grid twice over HTTP (the second pass must
# be all cache hits with byte-identical results), cross-check one cell
# against a direct in-process harness run, and SIGTERM-drain to a clean
# exit. Cheap enough for the QUICK budget: four tiny cells simulated
# once.
go build -o /tmp/pmemspec-serve ./cmd/pmemspec-serve
go run ./cmd/pmemspec-ci serve-smoke -daemon /tmp/pmemspec-serve -ops 30

finish_stages
echo "ci.sh: all checks passed"
