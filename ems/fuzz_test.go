package ems

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
)

// FuzzReadResultJSON checks the result-persistence reader: it must never
// panic, and every result it accepts must survive a WriteJSON →
// ReadResultJSON round trip unchanged.
func FuzzReadResultJSON(f *testing.F) {
	f.Add(`{"names1":["a","b"],"names2":["x"],"sim":[0.5,0.25],` +
		`"mapping":[{"left":["a"],"right":["x"],"score":0.5}],"evaluations":4,"rounds":2}`)
	f.Add(`{"names1":[],"names2":[],"sim":[],"mapping":null,"evaluations":0,"rounds":0}`)
	f.Add(`{"names1":["a"],"names2":["x","y"],"sim":[0.1]}`) // size mismatch: must be rejected
	f.Add(`{`)
	f.Add(``)
	f.Add(`{"names1":["a+b"],"names2":["x"],"sim":[1],"composites1":[["a","b"]]}`)
	// Mapping groups referencing names absent from the matrix: rejected.
	f.Add(`{"names1":["a"],"names2":["x"],"sim":[1],"mapping":[{"left":["ghost"],"right":["x"],"score":1}]}`)
	f.Add(`{"names1":["a"],"names2":["x"],"sim":[1],"mapping":[{"left":["a"],"right":["ghost"],"score":1}]}`)
	// Composite constituents are legal mapping names for a merged node.
	f.Add(`{"names1":["a\u001db"],"names2":["x"],"sim":[1],"mapping":[{"left":["a","b"],"right":["x"],"score":1}]}`)
	f.Fuzz(func(t *testing.T, in string) {
		r, err := ReadResultJSON(strings.NewReader(in))
		if err != nil {
			return
		}
		if len(r.Sim) != len(r.Names1)*len(r.Names2) {
			t.Fatalf("accepted result has inconsistent matrix: %d sim for %dx%d",
				len(r.Sim), len(r.Names1), len(r.Names2))
		}
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatalf("accepted result failed to serialize: %v", err)
		}
		back, err := ReadResultJSON(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if len(back.Names1) != len(r.Names1) || len(back.Names2) != len(r.Names2) ||
			len(back.Sim) != len(r.Sim) || len(back.Mapping) != len(r.Mapping) ||
			back.Evaluations != r.Evaluations || back.Rounds != r.Rounds {
			t.Fatalf("round trip changed shape: %+v vs %+v", back, r)
		}
		for i := range r.Sim {
			// NaN never round-trips through JSON (encoding rejects it), so
			// any accepted value compares by ==.
			if back.Sim[i] != r.Sim[i] {
				t.Fatalf("round trip changed sim[%d]: %v vs %v", i, back.Sim[i], r.Sim[i])
			}
		}
	})
}

// FuzzMatch runs raw CSV bytes through the path dirty logs take — the
// lenient reader, then Match with the repair pipeline under the default
// fast path — and checks what every accepted pair must yield: no panic,
// every similarity in [0,1], an injective mapping over names of the result,
// and a certificate within the default budget unless the run stopped at its
// round cap.
func FuzzMatch(f *testing.F) {
	f.Add([]byte("case,event\nc1,A\nc1,B\nc1,C\nc2,A\nc2,C\n"),
		[]byte("case,event\nc1,1\nc1,2\nc1,3\nc2,1\nc2,3\n"))
	f.Add([]byte("case,event\nc1,A\nc1,B\nc1,A\nc1,B\nc2,B\nc2,A\n"),
		[]byte("case,event\nc1,x\nc1,y\nc2,y\nc2,x\nc2,y\n"))
	f.Add([]byte("case,event\nc1,A\nc1,\"B,\"\"q\"\"\"\nc1,C,extra\n\"broken\nc2,A\r\nc2,C\n"),
		[]byte("case,event\nc1,1\nc1,1\nc1,2\nc2,3\n"))
	f.Add([]byte("case,event\n"), []byte("case,event\nc1,1\n"))
	f.Add([]byte("no header"), []byte(""))
	maxRounds := core.DefaultConfig().MaxRounds
	f.Fuzz(func(t *testing.T, csv1, csv2 []byte) {
		if len(csv1)+len(csv2) > 8<<10 {
			return // engine cost grows with the events, not the fuzzed parsing
		}
		lenient := ReadOptions{Lenient: true}
		l1, _, err := ReadCSVWith(bytes.NewReader(csv1), "log1", lenient)
		if err != nil {
			return
		}
		l2, _, err := ReadCSVWith(bytes.NewReader(csv2), "log2", lenient)
		if err != nil {
			return
		}
		r, err := Match(l1, l2, WithRepair())
		if err != nil {
			return
		}
		if len(r.Sim) != len(r.Names1)*len(r.Names2) {
			t.Fatalf("%d similarities for %dx%d names", len(r.Sim), len(r.Names1), len(r.Names2))
		}
		for i, v := range r.Sim {
			if !(v >= 0 && v <= 1) {
				t.Fatalf("Sim[%d] = %v outside [0,1]", i, v)
			}
		}
		known := [2]map[string]bool{{}, {}}
		for _, n := range r.Names1 {
			known[0][n] = true
		}
		for _, n := range r.Names2 {
			known[1][n] = true
		}
		used := [2]map[string]bool{{}, {}}
		for _, c := range r.Mapping {
			for side, group := range [2][]string{c.Left, c.Right} {
				if len(group) != 1 {
					t.Fatalf("1:1 match has a %d-event group: %+v", len(group), c)
				}
				n := group[0]
				if !known[side][n] {
					t.Fatalf("mapping names %q, which log %d's result lacks", n, side+1)
				}
				if used[side][n] {
					t.Fatalf("mapping uses %q of log %d twice", n, side+1)
				}
				used[side][n] = true
			}
		}
		if math.IsNaN(r.ErrorBound) || r.ErrorBound < 0 ||
			r.ErrorBound > core.DefaultFastPathBudget && r.Rounds < maxRounds {
			t.Fatalf("ErrorBound %v after %d of %d rounds, budget %v", r.ErrorBound, r.Rounds, maxRounds, core.DefaultFastPathBudget)
		}
	})
}
