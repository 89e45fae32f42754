// Command perfbench is the repository's end-to-end benchmark: it runs one
// workload (match-large, match-composite or svc-cluster) over inputs drawn
// from --seed, checks every output, and prints one JSON line with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// See README.md for the workloads, metrics and how the bounds were set.
//
//	go run . --workload match-large --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// runConfig is what a workload run needs from the command line.
type runConfig struct {
	seed    int64
	seconds int
	trace   bool
	// toy shrinks every input set to a few small pairs so the self-test
	// runs each workload, with every check, in seconds.
	toy bool
	// workDir holds the emsd data directories; removed afterwards.
	workDir string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps each workload name to its run function. A run returns an
// error only when it cannot run at all; output check failures come back as
// result.Correct = false.
var workloads = map[string]func(runConfig) (*result, error){
	"match-large":     runLarge,
	"match-composite": runComposite,
	"svc-cluster":     runCluster,
}

func main() {
	workload := flag.String("workload", "", "workload to run: match-large, match-composite or svc-cluster")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "nominal run length; fixes the operation count")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: perfbench --workload match-large|match-composite|svc-cluster --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	work, err := os.MkdirTemp(".bench_build", "perfbench-run-")
	if errors.Is(err, fs.ErrNotExist) {
		if err = os.Mkdir(".bench_build", 0o755); err == nil {
			work, err = os.MkdirTemp(".bench_build", "perfbench-run-")
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, workDir: work})
	if rerr := os.RemoveAll(work); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// phases reports on standard error how long each phase of a run took, so a
// slow run shows where its time went.
type phases struct{ last time.Time }

func newPhases() *phases { return &phases{last: time.Now()} }

func (p *phases) done(name string) {
	now := time.Now()
	fmt.Fprintf(os.Stderr, "perfbench: %s took %.1fs\n", name, now.Sub(p.last).Seconds())
	p.last = now
}

// setupReps is how many times a run sets up; it reports the median.
const setupReps = 5

// rounds converts the nominal run length into a whole number of rounds
// over a workload's input set: baseRounds at --seconds 20, in proportion
// otherwise. Each workload's baseRounds gives a run more than 100
// operations, so at least ten lie beyond p90, and keeps its timed phase
// between 10 and 35 seconds on a 2-CPU machine. The count does not depend
// on the speed of the machine, so every run of one configuration does the
// same work.
func rounds(cfg runConfig, baseRounds int) int {
	if cfg.toy {
		return 2
	}
	return max(1, int(math.Round(float64(baseRounds*cfg.seconds)/20)))
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap is the heap that survived the latest GC cycle.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// checker accumulates output-check failures of a run.
type checker struct {
	mu   sync.Mutex
	errs []string
}

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.errs) < 20 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

func (c *checker) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.errs) == 0
}

// report prints the first failures to standard error.
func (c *checker) report() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
}

// meter measures the timed phase of a run: per-operation latencies plus the
// process CPU, allocation and retained-heap figures over the whole phase.
type meter struct {
	start     time.Time
	cpu0      time.Duration
	alloc0    uint64
	wall, cpu time.Duration
	alloc     uint64
	peakLive  uint64
	latencies []float64 // ms
}

// startMeter collects garbage left by set-up, then starts the clock.
func startMeter() *meter {
	m := &meter{}
	m.sampleRetained()
	m.alloc0 = totalAlloc()
	m.cpu0 = cpuTime()
	m.start = time.Now()
	return m
}

// sampleRetained records the live heap after a forced GC cycle: what the
// program retains between operations. Runs call it at round boundaries,
// where no operation is in flight; the live heap of a cycle that happens
// to run mid-operation would add that operation's working set, which
// depends on GC timing and moved this figure by a third between runs.
func (m *meter) sampleRetained() {
	runtime.GC()
	m.peakLive = max(m.peakLive, liveHeap())
}

func (m *meter) stop() {
	m.wall = time.Since(m.start)
	m.cpu = cpuTime() - m.cpu0
	m.alloc = totalAlloc() - m.alloc0
}

// endToEnd renders the meter plus the workload's quality figures as the
// end-to-end metric set. errorBound is the median certified bound of the
// run's distinct results: a pair's certificate falls in one of two modes
// (about 0.05 or about 0.2 on match-large) depending on its logs, so the
// largest and the mean moved by a quarter between seeds, the median by a
// tenth.
func (m *meter) endToEnd(setup []time.Duration, fMeasure, errorBound float64) map[string]metric {
	ops := float64(len(m.latencies))
	setups := make([]float64, len(setup))
	for i, d := range setup {
		setups[i] = d.Seconds()
	}
	return map[string]metric{
		"setup_s":           {median(setups), "s"},
		"latency_p50_ms":    {quantile(m.latencies, 0.5), "ms"},
		"latency_p90_ms":    {quantile(m.latencies, 0.9), "ms"},
		"throughput_ops_s":  {ops / m.wall.Seconds(), "ops/s"},
		"cpu_ms_per_op":     {ms(m.cpu) / ops, "ms"},
		"alloc_mb_per_op":   {float64(m.alloc) / ops / (1 << 20), "MiB"},
		"peak_live_heap_mb": {float64(m.peakLive) / (1 << 20), "MiB"},
		"f_measure":         {fMeasure, "ratio"},
		"error_bound":       {errorBound, "abs"},
	}
}

// layerMetrics is the per-layer metric set of a traced run. Every workload
// reports every name; a layer the workload never calls as a step of its
// operation reads 0.
func layerMetrics(vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		out[name] = metric{vals[name], unit}
	}
	return out
}

// layerUnits names every per-layer metric with its unit.
var layerUnits = map[string]string{
	"eventlog.parse_ms":             "ms",
	"depgraph.build_ms":             "ms",
	"depgraph.edges":                "count",
	"matching.select_ms":            "ms",
	"core.setup_ms":                 "ms",
	"core.run_ms":                   "ms",
	"core.agreement_cache_ms":       "ms",
	"core.rounds":                   "count",
	"core.evals_per_op":             "count",
	"core.pruned_ratio":             "ratio",
	"core.max_observed_error":       "abs",
	"core.max_error_bound":          "abs",
	"core.label_matrix_ms":          "ms",
	"label.calls_per_op":            "count",
	"composite.discover_ms":         "ms",
	"composite.greedy_ms":           "ms",
	"composite.candidates_tried":    "count",
	"composite.aborted_ratio":       "ratio",
	"composite.steps_accepted":      "count",
	"composite.evals_per_op":        "count",
	"composite.shared_events":       "count",
	"repair.ms":                     "ms",
	"repair.events_touched_per_job": "count",
	"repair.traces_quarantined":     "count",
	"server.submit_fresh_ms":        "ms",
	"server.submit_hit_ms":          "ms",
	"server.queue_wait_ms":          "ms",
	"server.compute_ms":             "ms",
	"server.result_ms":              "ms",
	"server.cache_hit_ratio":        "ratio",
	"server.boot_ms":                "ms",
	"journal.bytes_per_job":         "bytes",
	"cluster.forward_submit_ms":     "ms",
	"cluster.proxy_result_ms":       "ms",
	"cluster.peer_hop_ms":           "ms",
	"cluster.forwarded_share":       "ratio",
	"trace.overhead_ms":             "ms",
	"trace.layer_sum_share":         "ratio",
}
