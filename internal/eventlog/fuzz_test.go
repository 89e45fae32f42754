package eventlog

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// Fuzz targets for the parsers: they must never panic, and everything they
// accept must round-trip. Each target also drives the lenient reader over
// the same input with two cross-mode properties: lenient reading never
// panics either, and whenever the strict reader succeeds and the lenient
// reader reports zero skips, both must have produced the identical log.
// FuzzReadCSV further holds the lenient CSV reader to its reference
// (oracleReadCSVLenient): the same log, error and SkipReport on every input.

func FuzzReadCSV(f *testing.F) {
	f.Add("case,event\nc1,a\nc1,b\n")
	f.Add("case,event\n")
	f.Add("")
	f.Add("case,event\nc1,\"quoted,comma\"\n")
	f.Add("case,event\nc1,a\nc1\nc1,b,extra\nc1,b\n")
	f.Add("case,event\nc1,a\nc1,\nc2,x\n")
	// Size-cap seeds are built here rather than stored: each is over a
	// megabyte or 64 KiB of filler.
	f.Add("case,event\nc1,a\nc1," + strings.Repeat("x", MaxLineBytes) + "\nc1,b\n")
	f.Add("case,event\nc1,a\nc1," + strings.Repeat("y", MaxFieldBytes+1) + "\nc1,b\n")
	f.Fuzz(func(t *testing.T, in string) {
		strict, serr := ReadCSV(strings.NewReader(in), "fuzz")
		lenient, rep, lerr := ReadCSVWith(strings.NewReader(in), "fuzz", ReadOptions{Lenient: true})
		want, wantRep, werr := oracleReadCSVLenient(strings.NewReader(in), "fuzz")
		if (lerr == nil) != (werr == nil) || (lerr != nil && lerr.Error() != werr.Error()) {
			t.Fatalf("lenient error %v, reference %v", lerr, werr)
		}
		if lerr == nil && !lenient.Equal(want) {
			t.Fatalf("lenient log %v, reference %v", lenient, want)
		}
		if !reflect.DeepEqual(rep, wantRep) {
			t.Fatalf("lenient report %+v, reference %+v", rep, wantRep)
		}
		if serr == nil && lerr == nil && rep.Total() == 0 && !lenient.Equal(strict) {
			t.Fatalf("lenient with zero skips diverged from strict: %v vs %v", lenient, strict)
		}
		if serr != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, strict); err != nil {
			t.Fatalf("accepted log failed to serialize: %v", err)
		}
		back, err := ReadCSV(&buf, "fuzz")
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if back.Len() != strict.Len() {
			t.Fatalf("round trip changed trace count: %d vs %d", back.Len(), strict.Len())
		}
	})
}

func FuzzReadXES(f *testing.F) {
	f.Add(`<log><trace><event><string key="concept:name" value="a"/></event></trace></log>`)
	f.Add(`<log/>`)
	f.Add(`<log><string key="concept:name" value="x"/></log>`)
	f.Add(`<log><trace><event><string key="concept:name" value="a"/></event><event><string key="org:resource" value="r"/></event></trace></log>`)
	f.Add(`<log><trace><event><string key="concept:name" value=""/></event></trace></log>`)
	f.Fuzz(func(t *testing.T, in string) {
		strict, serr := ReadXES(strings.NewReader(in))
		lenient, rep, lerr := ReadXESWith(strings.NewReader(in), ReadOptions{Lenient: true})
		if serr == nil && lerr == nil && rep.Total() == 0 && !lenient.Equal(strict) {
			t.Fatalf("lenient with zero skips diverged from strict: %v vs %v", lenient, strict)
		}
		if serr != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteXES(&buf, strict); err != nil {
			t.Fatalf("accepted log failed to serialize: %v", err)
		}
		if _, err := ReadXES(&buf); err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}

func FuzzReadXML(f *testing.F) {
	f.Add(`<log name="x"><trace><event name="a"/></trace></log>`)
	f.Add(`<log name="x"><trace><event name="a"/><event/></trace></log>`)
	f.Fuzz(func(t *testing.T, in string) {
		strict, serr := ReadXML(strings.NewReader(in))
		lenient, rep, lerr := ReadXMLWith(strings.NewReader(in), ReadOptions{Lenient: true})
		if serr == nil && lerr == nil && rep.Total() == 0 && !lenient.Equal(strict) {
			t.Fatalf("lenient with zero skips diverged from strict: %v vs %v", lenient, strict)
		}
		_ = strict
	})
}
