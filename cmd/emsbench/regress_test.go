package main

import "testing"

// TestBenchRegress is the in-tree face of `make bench-regress`: re-measure
// the benchmark pair and fail when exact-serial or fast-path-serial wall
// time regressed more than 25% against the committed BENCH_core.json
// trajectory point. Each mode is timed as the fastest of regressReps runs:
// under a full `go test ./...` the other packages' test binaries share the
// CPUs, and a load spike must hit every run to fail the gate. Wall-clock
// assertions are meaningless under -short (budget) and -race
// (order-of-magnitude instrumentation slowdown), so both skip; everything
// non-temporal the measurement checks — the certified error bound held —
// still runs on every non-short invocation.
func TestBenchRegress(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock regression gate skipped under -short")
	}
	if raceEnabled {
		t.Skip("wall-clock regression gate skipped under -race")
	}
	const regressReps = 5
	if err := runCoreRegress("../../BENCH_core.json", regressReps); err != nil {
		t.Fatal(err)
	}
}
