package server

import (
	"strconv"
	"sync"
	"time"

	"repro/ems"
	"repro/internal/obs"
)

// progressRounds bounds the per-round history a job retains: enough for a
// dashboard sparkline, bounded so a slowly-converging job cannot grow
// without limit.
const progressRounds = 50

// RoundProgress is one iteration round as exposed by the progress endpoint.
type RoundProgress struct {
	Round int `json:"round"`
	// Delta is the worst per-direction convergence delta of the round.
	Delta float64 `json:"delta"`
	// Evals and Pruned sum the directions' per-round counters.
	Evals  int `json:"evals"`
	Pruned int `json:"pruned"`
	// Estimated marks the synthetic final round an estimation pass reports
	// (the engine's fast-path cutover). It stands for the estimate and the
	// certifying round(s) after it: its round and counters are the last
	// certifying round's, and on the fast path its delta is the increment
	// that round measured over the estimate, which the certified ErrorBound
	// is derived from.
	Estimated bool `json:"estimated,omitempty"`
}

// DirProgress is the cumulative state of one propagation direction. A
// direction is finished when either Converged or Estimated is set: the
// default fast path ends runs with an estimation pass instead of iterating
// to convergence, and reports the certified ErrorBound alongside.
type DirProgress struct {
	Direction string  `json:"direction"`
	Round     int     `json:"round"`
	Delta     float64 `json:"delta"`
	Evals     int     `json:"evals"`
	Pruned    int     `json:"pruned"`
	Converged bool    `json:"converged"`
	Estimated bool    `json:"estimated,omitempty"`
	// ErrorBound is the certified per-pair error bound of a fast-path run,
	// zero until certification (and always zero for exact runs).
	ErrorBound float64 `json:"error_bound,omitempty"`
}

// ProgressView is the JSON body of GET /v1/jobs/{id}/progress.
type ProgressView struct {
	ID      string `json:"id"`
	Status  Status `json:"status"`
	TraceID string `json:"trace_id,omitempty"`
	// Round counters are present only once the iteration engine has reported
	// a round (composite jobs and cache hits never do).
	Round      int             `json:"round,omitempty"`
	Dirs       []DirProgress   `json:"directions,omitempty"`
	Recent     []RoundProgress `json:"recent_rounds,omitempty"`
	UpdatedMS  float64         `json:"updated_ms,omitempty"` // ms since the last round report
	Spans      []obs.SpanView  `json:"spans,omitempty"`
	CacheHit   bool            `json:"cache_hit,omitempty"`
	Error      string          `json:"error,omitempty"`
	WallMS     float64         `json:"wall_ms,omitempty"`
	Observable bool            `json:"observable"`
	// Batch carries the pair counters of a batch-coordinator job (nil for
	// ordinary match jobs); the full per-pair grid lives at /v1/batch/{id}.
	Batch *BatchProgressView `json:"batch,omitempty"`
}

// progress accumulates the engine's per-round observations for one job. The
// observer goroutine writes, HTTP pollers read; a mutex keeps the view
// coherent (observations arrive at round granularity, so contention is
// negligible).
type progress struct {
	mu      sync.Mutex
	round   int
	dirs    []DirProgress
	recent  []RoundProgress
	updated time.Time
}

// observe folds one engine observation into the progress state.
func (p *progress) observe(ob ems.RoundObservation) {
	rp := RoundProgress{Round: ob.Round}
	dirs := make([]DirProgress, len(ob.Dirs))
	for i, d := range ob.Dirs {
		dirs[i] = DirProgress{
			Direction:  d.Direction.String(),
			Round:      d.Round,
			Delta:      d.Delta,
			Evals:      d.TotalEvals,
			Pruned:     d.TotalPruned,
			Converged:  d.Converged,
			Estimated:  d.Estimated,
			ErrorBound: d.ErrorBound,
		}
		if d.Estimated {
			rp.Estimated = true
		}
		if !d.Converged || d.Round == ob.Round {
			rp.Evals += d.RoundEvals
			rp.Pruned += d.RoundPruned
			if d.Delta > rp.Delta {
				rp.Delta = d.Delta
			}
		}
	}
	p.mu.Lock()
	p.round = ob.Round
	p.dirs = dirs
	p.recent = append(p.recent, rp)
	if len(p.recent) > progressRounds {
		p.recent = p.recent[len(p.recent)-progressRounds:]
	}
	p.updated = time.Now()
	p.mu.Unlock()
}

// stampSpan copies the engine's final counters onto the job's compute span
// as attributes (rounds, total evals, estimation cutover).
func (p *progress) stampSpan(sp *obs.Span) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.round == 0 {
		return
	}
	sp.SetAttr("rounds", strconv.Itoa(p.round))
	evals := 0
	estimated := false
	for _, d := range p.dirs {
		evals += d.Evals
		if d.Estimated {
			estimated = true
		}
	}
	sp.SetAttr("evals", strconv.Itoa(evals))
	if estimated {
		sp.SetAttr("estimated", "true")
	}
}

// fill copies the accumulated state into a view.
func (p *progress) fill(v *ProgressView) {
	p.mu.Lock()
	defer p.mu.Unlock()
	v.Round = p.round
	v.Dirs = append([]DirProgress(nil), p.dirs...)
	v.Recent = append([]RoundProgress(nil), p.recent...)
	if !p.updated.IsZero() {
		v.UpdatedMS = float64(time.Since(p.updated).Microseconds()) / 1000
	}
}

// Progress snapshots a job's live progress: lifecycle state, the engine's
// per-round trajectory (when the job drives the iteration engine and has
// started), and the trace's span timeline so far.
func (j *Job) Progress() ProgressView {
	view := j.View()
	v := ProgressView{
		ID:       view.ID,
		Status:   view.Status,
		TraceID:  view.TraceID,
		CacheHit: view.CacheHit,
		Error:    view.Error,
		WallMS:   view.WallMS,
	}
	// trace, prog and batch are immutable once the job is shared; no lock
	// needed.
	v.Observable = j.prog != nil || j.batch != nil
	if j.prog != nil {
		j.prog.fill(&v)
	}
	if j.batch != nil {
		v.Batch = j.batch.progress()
	}
	if j.trace != nil {
		v.Spans = j.trace.Snapshot()
	}
	return v
}
