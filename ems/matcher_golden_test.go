package ems_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/ems"
	"repro/internal/dataset"
)

var updateGolden = flag.Bool("update", false, "rewrite the matcher goldens from the current engine")

// rematchGolden pins one Rematch call: the similarity as a digest of its
// float64 bits, with the names it is indexed by, the round count and the
// evaluation count.
type rematchGolden struct {
	Mode        string   `json:"mode"`
	Step        int      `json:"step"`
	Names1      []string `json:"names1"`
	Names2      []string `json:"names2"`
	SimSHA256   string   `json:"sim_sha256"`
	Rounds      int      `json:"rounds"`
	Evaluations int      `json:"evaluations"`
}

// TestMatcherRematchGolden pins a three-step incremental sequence to stored
// results: a cold Rematch over part of a DS-FB pair, a warm one after traces
// (one with an event never seen before) are appended to log 1, and another
// after traces are appended to log 2. It runs under the default fast path
// and under exact iteration with q-gram labels. Every step must reproduce
// the stored similarity bits, rounds and evaluations exactly, so a change
// to how a warm start carries the previous fixpoint over that moves a
// single bit fails here. Regenerate deliberately with
// `go test ./ems -run MatcherRematchGolden -update`.
func TestMatcherRematchGolden(t *testing.T) {
	p, err := dataset.GeneratePair(rand.New(rand.NewSource(19)), "rematch", dataset.Options{
		Events: 20, Traces: 90, OpaqueFraction: 0.5, ExtraFront: 1, ExtraBack: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	fresh := append(ems.Trace{"0 fresh event"}, p.Log1.Traces[0]...)
	modes := []struct {
		name string
		opts []ems.Option
	}{
		{"default", nil},
		{"exact-labels", []ems.Option{ems.WithExact(), ems.WithAlpha(0.7), ems.WithLabelSimilarity(ems.QGramCosine(3))}},
	}
	var got []rematchGolden
	for _, mode := range modes {
		head1, head2 := p.Log1.Clone(), p.Log2.Clone()
		head1.Traces, head2.Traces = head1.Traces[:40], head2.Traces[:40]
		m, err := ems.NewMatcher(head1, head2, mode.opts...)
		if err != nil {
			t.Fatal(err)
		}
		for step := 1; step <= 3; step++ {
			switch step {
			case 2:
				err = m.Append(1, append(p.Log1.Traces[40:60:60], fresh)...)
			case 3:
				err = m.Append(2, p.Log2.Traces[40:65]...)
			}
			if err != nil {
				t.Fatal(err)
			}
			r, err := m.Rematch()
			if err != nil {
				t.Fatalf("%s step %d: %v", mode.name, step, err)
			}
			got = append(got, rematchGolden{
				Mode: mode.name, Step: step,
				Names1: r.Names1, Names2: r.Names2,
				SimSHA256:   bitsDigest(r.Sim),
				Rounds:      r.Rounds,
				Evaluations: r.Evaluations,
			})
		}
	}
	path := filepath.Join("testdata", "rematch_golden.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create it): %v", err)
	}
	var want []rematchGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("decode golden: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		for i := range got {
			if i >= len(want) || !reflect.DeepEqual(want[i], got[i]) {
				t.Errorf("%s step %d differs from the golden: got %+v", got[i].Mode, got[i].Step, got[i])
			}
		}
		t.Fatalf("rematch results differ from %s", path)
	}
}

// bitsDigest hashes the exact float64 bits of a matrix.
func bitsDigest(m []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range m {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
