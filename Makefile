# Developer entry points. `make check` is the gate new changes must pass:
# gofmt, vet, lint and the full test suite under the race detector.

GO ?= go

.PHONY: all build test race vet fmt lint check bench fuzz-smoke bench-core bench-regress crash-test cluster-test repair-test chaos-test trace-test perfbench-test profile metrics-check

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Formatting gate: fails listing every file gofmt would rewrite.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Race tests get an explicit budget: a deadlock in the cancellation or
# shutdown paths should fail the build, not hang it.
RACE_TIMEOUT ?= 10m

race:
	$(GO) test -race -timeout $(RACE_TIMEOUT) ./...

# Static analysis beyond vet. staticcheck and govulncheck are optional
# locally (skipped with a note when absent); CI installs both.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed; skipping"; \
	fi

check: fmt vet lint race

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# Crash-safety suite under the race detector: journal torn-tail recovery,
# engine checkpoint/resume equivalence, and the emsd kill-and-restart tests.
crash-test:
	$(GO) test -race -timeout $(RACE_TIMEOUT) ./internal/journal
	$(GO) test -race -timeout $(RACE_TIMEOUT) -run 'Checkpoint|Restore' ./internal/core ./ems
	$(GO) test -race -timeout $(RACE_TIMEOUT) -run 'KillAndRestart|Restart|Retry|CrashLoop|StatsExpose' ./internal/server

# Clustering suite under the race detector (ring placement, peer forwarding,
# batch failover), then a live smoke: boot three loopback emsd processes as a
# full mesh and run a 2x2 POST /v1/batch grid through node-a end to end.
CLUSTER_A ?= 127.0.0.1:18591
CLUSTER_B ?= 127.0.0.1:18592
CLUSTER_C ?= 127.0.0.1:18593

cluster-test:
	$(GO) test -race -timeout $(RACE_TIMEOUT) ./internal/jobkey ./internal/cluster
	$(GO) test -race -timeout $(RACE_TIMEOUT) -run 'TestCluster|TestBatch|TestJobsList' ./internal/server
	@tmp=$$(mktemp -d); \
	trap 'kill $$pa $$pb $$pc 2>/dev/null; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/emsd ./cmd/emsd || exit 1; \
	$$tmp/emsd -addr $(CLUSTER_A) -node-id node-a -advertise http://$(CLUSTER_A) \
		-peers node-b=http://$(CLUSTER_B),node-c=http://$(CLUSTER_C) \
		>$$tmp/a.log 2>&1 & pa=$$!; \
	$$tmp/emsd -addr $(CLUSTER_B) -node-id node-b -advertise http://$(CLUSTER_B) \
		-peers node-a=http://$(CLUSTER_A),node-c=http://$(CLUSTER_C) \
		>$$tmp/b.log 2>&1 & pb=$$!; \
	$$tmp/emsd -addr $(CLUSTER_C) -node-id node-c -advertise http://$(CLUSTER_C) \
		-peers node-a=http://$(CLUSTER_A),node-b=http://$(CLUSTER_B) \
		>$$tmp/c.log 2>&1 & pc=$$!; \
	for h in $(CLUSTER_A) $(CLUSTER_B) $(CLUSTER_C); do \
		for i in $$(seq 1 100); do \
			curl -sf http://$$h/healthz >/dev/null && break; sleep 0.1; \
		done; \
	done; \
	body='{"logs1":[{"csv":"case,event\nc1,A\nc1,C\n"},{"csv":"case,event\nc1,A\nc1,B\nc1,C\n"}],"logs2":[{"csv":"case,event\nc1,1\nc1,2\n"},{"csv":"case,event\nc1,1\nc1,3\n"}]}'; \
	id=$$(curl -sf -X POST http://$(CLUSTER_A)/v1/batch -d "$$body" \
		| sed -n 's/.*"id": *"\([^"]*\)".*/\1/p'); \
	test -n "$$id" || { echo "cluster-test: batch submit failed"; cat $$tmp/a.log; exit 1; }; \
	for i in $$(seq 1 300); do \
		status=$$(curl -sf http://$(CLUSTER_A)/v1/batch/$$id \
			| sed -n 's/.*"status": *"\([^"]*\)".*/\1/p' | head -n 1); \
		case $$status in done) break;; failed|cancelled) break;; esac; sleep 0.1; \
	done; \
	if [ "$$status" != done ]; then \
		echo "cluster-test: batch ended $$status"; cat $$tmp/a.log $$tmp/b.log $$tmp/c.log; exit 1; \
	fi; \
	curl -sf http://$(CLUSTER_A)/metrics | grep -q '^emsd_peer_forwards_total' \
		|| { echo "cluster-test: no per-peer forward counters on /metrics"; exit 1; }; \
	echo "cluster-test: 3-node batch grid ok (batch $$id done)"

# Dirty-log resilience suite under the race detector — the repair pipeline
# and lenient readers, then their integration seams in ems, emsd, and
# emsmatch — then one pass of the lenient reader's plain-row and quoted-row
# benchmarks, so both keep building and running, and a quick-scale run of
# the noise-robustness experiment so the EMS+repair rows stay reproducible
# end to end.
repair-test:
	$(GO) test -race -timeout $(RACE_TIMEOUT) ./internal/repair ./internal/eventlog
	$(GO) test -race -timeout $(RACE_TIMEOUT) -run 'Repair|Lenient' ./ems ./internal/server ./cmd/emsmatch
	$(GO) test -run '^$$' -bench 'ReadCSVLenient' -benchtime 1x .
	$(GO) run ./cmd/emsbench -robustness

# Overload-resilience suite under the race detector: the chaos registry's
# determinism and fault wiring, the resource governor / degradation ladder /
# shed paths, the cost model's 2x accuracy contract, and the kill-and-restart
# run that replays the committed seeded schedule
# (internal/server/testdata/chaos_replay.json) byte for byte.
chaos-test:
	$(GO) test -race -timeout $(RACE_TIMEOUT) ./internal/chaos
	$(GO) test -race -timeout $(RACE_TIMEOUT) -run 'Chaos|Governor|Ladder|Saturat|Degrade|TooLarge|RetryAfter|EstimateCost' \
		./internal/server ./internal/core

# Distributed-tracing suite under the race detector: the span model, the
# propagation header, the per-node trace store and flight recorder, then the
# server-level end-to-end checks — cross-node trace assembly over a 3-node
# loopback cluster, the forwarded-request-ID pin, and the flight-recorder
# chaos replay (internal/server/testdata/flightrec_replay.json) whose dumps
# must be byte-identical run to run.
trace-test:
	$(GO) test -race -timeout $(RACE_TIMEOUT) -run 'Trace|Span|Flight' ./internal/obs
	$(GO) test -race -timeout $(RACE_TIMEOUT) \
		-run 'Trace|FlightRecorder|ForwardedSubmission' ./internal/server

# Self-test of the end-to-end benchmark: every perfbench workload at toy
# size with its output checks, and its metric names against BENCHMARK.json.
# perfbench/ is a module of its own, so `go test ./...` at the root does not
# reach it, yet it compiles against core and composite.
perfbench-test:
	cd perfbench && $(GO) test ./...

# Short fuzz runs over every fuzz target; CI uses this as a smoke test.
# Each target needs its own invocation: `go test -fuzz` accepts exactly one.
# The targets come from `go test -list`, so a new one is run without being
# listed here, and the run fails if that list misses any `func Fuzz`
# declared in a test file of the module.
FUZZTIME ?= 10s

fuzz-smoke:
	@set -e; \
	targets=$$($(GO) test -list '^Fuzz' ./... | \
		awk '/^Fuzz/ { n[++k] = $$1; next } /^ok/ { for (i = 1; i <= k; i++) print $$2 ":" n[i]; k = 0 }'); \
	declared=$$($(GO) list -f '{{$$d := .Dir}}{{range .TestGoFiles}}{{$$d}}/{{.}} {{end}}{{range .XTestGoFiles}}{{$$d}}/{{.}} {{end}}' ./... | \
		xargs cat | grep -c '^func Fuzz'); \
	ran=$$(echo "$$targets" | grep -c .); \
	if [ "$$ran" -ne "$$declared" ]; then \
		echo "fuzz-smoke: $$declared fuzz targets declared, $$ran listed by go test:"; echo "$$targets"; exit 1; \
	fi; \
	for t in $$targets; do \
		echo "fuzz-smoke: $${t#*:} in $${t%%:*}"; \
		$(GO) test -run '^$$' -fuzz "^$${t#*:}\$$" -fuzztime $(FUZZTIME) "$${t%%:*}"; \
	done

# Core-engine scaling benchmark: serial vs N-worker wall time on a fixed
# synthetic pair, written as a machine-readable trajectory point.
bench-core:
	$(GO) run ./cmd/emsbench -json BENCH_core.json

# Wall-clock regression gate: re-measure the benchmark pair and fail when
# exact-serial or fast-path-serial wall time regressed more than 25% against
# the committed trajectory point. Timing-sensitive by nature — run it on a
# quiet machine and never under the race detector (the TestBenchRegress
# harness skips itself under -short and -race for the same reason). Then one
# pass of the formula-(1) kernel benchmark on its sparse and dense pairs, so
# both keep building and running and print their ns per product.
bench-regress:
	$(GO) run ./cmd/emsbench -regress BENCH_core.json
	$(GO) test -run '^$$' -bench 'SimilarityIterationLarge' -benchtime 1x .

# CPU and heap profiles of the core benchmark, ready for `go tool pprof`:
#   go tool pprof profiles/cpu.pprof
profile:
	mkdir -p profiles
	$(GO) run ./cmd/emsbench -json profiles/bench.json -bench-reps 1 \
		-cpuprofile profiles/cpu.pprof -memprofile profiles/heap.pprof
	@echo "profiles written to ./profiles (inspect with: go tool pprof profiles/cpu.pprof)"

# Scrape gate: boot emsd, run one job, then validate every line of the live
# /metrics exposition with the binary's own checker. Fails on any malformed
# line or if a whole instrument kind (counter/gauge/histogram) is missing.
METRICS_ADDR ?= 127.0.0.1:18484

metrics-check:
	@tmp=$$(mktemp -d); \
	trap 'kill $$pid 2>/dev/null; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/emsd ./cmd/emsd || exit 1; \
	$$tmp/emsd -addr $(METRICS_ADDR) >$$tmp/emsd.log 2>&1 & pid=$$!; \
	for i in $$(seq 1 100); do \
		curl -sf http://$(METRICS_ADDR)/healthz >/dev/null && break; sleep 0.1; \
	done; \
	curl -sf -X POST http://$(METRICS_ADDR)/v1/jobs \
		-d '{"log1":{"csv":"case,event\nc1,A\nc1,C\n"},"log2":{"csv":"case,event\nc1,1\nc1,2\n"}}' \
		>/dev/null || { cat $$tmp/emsd.log; exit 1; }; \
	sleep 1; \
	$$tmp/emsd -check-metrics http://$(METRICS_ADDR)/metrics || { cat $$tmp/emsd.log; exit 1; }
