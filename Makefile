# Development targets for the vasched repository. The repo is Go with no
# dependencies outside the standard library, so everything here is the
# go tool, plus git and tar for the tree benchcheck compares against.
# Its assembly is three sets of amd64 kernels: internal/fft's AVX
# butterflies (avx_amd64.s), internal/stats's AVX2 normal draws
# (norm_amd64.s) and internal/grf's AVX2 row scaling (scale_amd64.s);
# every other architecture, every CPU without the extension, and every
# race build runs the Go loops they stand in for.

GO ?= go

.PHONY: all build test vet lint check race bench benchtest ci fuzzseed benchcheck cover goldens goldens-check loadtest clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet also vets the tree as arm64 sees it, so that a build constraint
# that leaves a non-amd64 build without a symbol fails here.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

# lint mirrors the hosted lint job: vet plus the pinned external
# analysers (versions must match .github/workflows/ci.yml). `go run`
# caches the resolved modules, so repeat runs are cheap; first run needs
# network access.
STATICCHECK_VERSION = 2025.1.1
GOVULNCHECK_VERSION = v1.1.4

lint: vet
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

# race runs the full suite under the race detector; internal/farm and
# cmd/vaschedd are the concurrency-heavy packages this exists for.
race:
	$(GO) test -race ./...

# check is the tier-1+ gate: vet, build, the race-enabled test suite, and
# bench.
check: vet build race bench

# bench runs every benchmark once (-benchtime=1x), the paper-artefact
# ones at quick scale, so the bench code can't silently rot between perf
# passes; the nightly workflow uploads its output.
bench:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# benchtest vets and tests the end-to-end benchmark (bench/). It is a
# module of its own, so `go test ./...` at the root never compiles it,
# yet it imports the internal packages it drives.
benchtest:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# ci is the full gate: vet, build, race-enabled tests (includes the
# golden-file experiment test), the benchmark module's tests, the
# coverage gate, the fuzz targets (lp, anneal, shard codec, WAL record,
# die blob, LU solve, RNG stream, FFT prefix) run for 10s each, and
# benchcheck, the paired perf gate on the working tree's uncommitted
# change. The hosted pipeline (.github/workflows/ci.yml) runs the same
# steps as parallel jobs; its perf job runs the gate against a pull
# request's base commit, with the service-light workload added.
ci: lint build race benchtest goldens-check cover fuzzseed benchcheck

fuzzseed:
	$(GO) test -fuzz FuzzSolve -fuzztime 10s ./internal/lp
	$(GO) test -fuzz FuzzSolve -fuzztime 10s ./internal/anneal
	$(GO) test -fuzz FuzzShardCodec -fuzztime 10s ./internal/cluster
	$(GO) test -fuzz FuzzWALRecord -fuzztime 10s ./internal/jobstore
	$(GO) test -fuzz FuzzConfigHash -fuzztime 10s ./internal/diecache
	$(GO) test -fuzz FuzzLUSolve -fuzztime 10s ./internal/linsolve
	$(GO) test -fuzz FuzzRNGStream -fuzztime 10s ./internal/stats
	$(GO) test -fuzz FuzzForwardPrefix -fuzztime 10s ./internal/fft
	$(GO) test -fuzz FuzzExp -fuzztime 10s ./internal/vmath

# cover prints per-package statement coverage and fails if any of the
# gated packages (the concurrency- and protocol-heavy ones, the binary
# codec every protocol shares, the perf
# gate, the die generation path that workers share, the chip evaluation
# with the thermal kernel every evaluation rides, the device laws,
# floorplan and power model every chip is built from, the random
# stream and the annealer every golden depends on, and the vector
# exponential every leakage evaluation runs on) drops below 80%. Numbers are
# recorded in EXPERIMENTS.md ("Coverage gate").
COVER_GATED = vasched/internal/cluster vasched/internal/wire vasched/internal/pm vasched/internal/farm vasched/internal/trace vasched/internal/jobstore vasched/internal/tenant vasched/internal/diecache vasched/internal/adapt vasched/internal/metrics vasched/cmd/benchstatus vasched/internal/miniyaml vasched/internal/wearout vasched/cmd/vaschedload vasched/internal/grf vasched/internal/fft vasched/internal/varmodel vasched/internal/linsolve vasched/internal/thermal vasched/internal/chip vasched/internal/stats vasched/internal/anneal vasched/internal/tech vasched/internal/floorplan vasched/internal/power vasched/internal/vmath

# The timeline engine carries a higher bar: core's tick loop integrates
# four subsystems (thermal, power, scheduling, wearout) plus the optional
# scenario stages, and internal/dynamic configures the scenarios and
# wearout horizons on top of it, so untested branches there are compound
# failures.
COVER_GATED_85 = vasched/internal/core vasched/internal/dynamic

cover:
	$(GO) test -count=1 -cover ./... | tee /tmp/vasched-cover.txt
	@fail=0; \
	gate() { \
		pct=$$(grep -E "^ok[[:space:]]+$$1[[:space:]]" /tmp/vasched-cover.txt | grep -oE '[0-9.]+% of statements' | grep -oE '^[0-9.]+'); \
		if [ -z "$$pct" ]; then echo "cover: no coverage line for $$1"; return 1; \
		elif awk "BEGIN{exit !($$pct < $$2)}"; then echo "cover: $$1 at $$pct% (< $$2%)"; return 1; \
		else echo "cover: $$1 at $$pct% (gate $$2%)"; fi; \
	}; \
	for pkg in $(COVER_GATED); do gate $$pkg 80 || fail=1; done; \
	for pkg in $(COVER_GATED_85); do gate $$pkg 85 || fail=1; done; \
	exit $$fail

# goldens regenerates every committed golden from the current code;
# goldens-check additionally fails if that changed anything (CI's
# committed-goldens-match-reality gate).
goldens:
	$(GO) test ./internal/experiments -run 'TestGolden$$' -update

goldens-check: goldens
	git diff --exit-code internal/experiments/testdata/golden

# benchcheck runs the paired perf gate (cmd/benchstatus) with HEAD as
# the parent, so it judges the working tree's uncommitted change: ten
# rounds of every internal/ micro-benchmark, the two trees' binaries
# alternating, failing on any benchmark that reads worse. About 13
# minutes on a 2-vCPU VM; on a clean tree every benchmark reads same.
benchcheck:
	$(GO) run ./cmd/benchstatus HEAD

# loadtest is the SLO-asserted load smoke: spawn a real coordinator,
# drive 1,000 seeded mixed-tenant jobs through the three lanes with
# mid-flight cancels, a quota burst, and an injected SIGKILL-restart,
# and fail on any SLO violation, failed job, or lost job. The seed makes
# the workload (not the timings) reproducible; ~60s on the reference
# machine.
LOADFLAGS = -jobs 1000 -tenants 3 -clients 16 -seed 42 -tenant-quota 8 -kill-at 0.4 -timeout 8m

loadtest:
	$(GO) run ./cmd/vaschedload $(LOADFLAGS)

clean:
	$(GO) clean ./...
