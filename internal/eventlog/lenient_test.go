package eventlog

import (
	"strings"
	"testing"
)

func TestReadCSVLenientSkipsMalformedRows(t *testing.T) {
	in := strings.Join([]string{
		"case,event",
		"c1,a",
		"c1",         // wrong column count: 1
		"c1,b,extra", // wrong column count: 3
		"c1,b",
		`c1,"broken`, // unterminated quote
		"c2,",        // empty event name
		"c2,x",
		"", // blank line: ignored silently
		"c1,c",
	}, "\n")
	l, rep, err := ReadCSVWith(strings.NewReader(in), "dirty", ReadOptions{Lenient: true})
	if err != nil {
		t.Fatalf("ReadCSVWith: %v", err)
	}
	want := New("dirty")
	want.Append(Trace{"a", "b", "c"})
	want.Append(Trace{"x"})
	if !l.Equal(want) {
		t.Fatalf("log = %v, want %v", l, want)
	}
	if rep.Rows != 4 {
		t.Fatalf("Rows = %d, want 4 (report %+v)", rep.Rows, rep)
	}
	if rep.Oversized != 0 || rep.Events != 0 || rep.Traces != 0 {
		t.Fatalf("unexpected counts: %+v", rep)
	}
	if len(rep.Warnings) != 4 {
		t.Fatalf("want 4 warnings, got %v", rep.Warnings)
	}
	// The same input must abort the strict reader.
	if _, err := ReadCSV(strings.NewReader(in), "dirty"); err == nil {
		t.Fatal("strict reader accepted malformed input")
	}
}

func TestReadCSVLenientSkipsOversized(t *testing.T) {
	long := strings.Repeat("x", MaxLineBytes+10)
	bigField := strings.Repeat("y", MaxFieldBytes+1)
	in := "case,event\nc1,a\nc1," + long + "\nc1," + bigField[:MaxFieldBytes-10] + "\nc1,b\n"
	// The third data row fits the line cap but is near the field cap; keep
	// it to prove large-but-legal fields still pass.
	l, rep, err := ReadCSVWith(strings.NewReader(in), "l", ReadOptions{Lenient: true})
	if err != nil {
		t.Fatalf("ReadCSVWith: %v", err)
	}
	if got := len(l.Traces[0]); got != 3 {
		t.Fatalf("kept %d events, want 3", got)
	}
	if rep.Rows != 1 || rep.Oversized != 1 {
		t.Fatalf("report %+v, want 1 oversized row", rep)
	}
	// An oversized field on a line under the line cap is also skipped.
	in2 := "case,event\nc1,a\nc1," + bigField + "\nc1,b\n"
	l, rep, err = ReadCSVWith(strings.NewReader(in2), "l", ReadOptions{Lenient: true})
	if err != nil {
		t.Fatalf("ReadCSVWith: %v", err)
	}
	if got := len(l.Traces[0]); got != 2 {
		t.Fatalf("kept %d events, want 2", got)
	}
	if rep.Rows != 1 || rep.Oversized != 1 {
		t.Fatalf("report %+v, want 1 oversized field", rep)
	}
}

func TestReadCSVLenientStructuralErrors(t *testing.T) {
	if _, _, err := ReadCSVWith(strings.NewReader(""), "l", ReadOptions{Lenient: true}); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, _, err := ReadCSVWith(strings.NewReader("id,name\nc1,a\n"), "l", ReadOptions{Lenient: true}); err == nil {
		t.Fatal("missing header accepted")
	}
	// All data rows skipped: structurally unusable.
	if _, _, err := ReadCSVWith(strings.NewReader("case,event\nc1\nc2\n"), "l", ReadOptions{Lenient: true}); err == nil {
		t.Fatal("log with zero usable rows accepted")
	}
	// Header-only input parses to an empty log in both modes.
	l, rep, err := ReadCSVWith(strings.NewReader("case,event\n"), "l", ReadOptions{Lenient: true})
	if err != nil || l.Len() != 0 || rep.Total() != 0 {
		t.Fatalf("header-only: log=%v rep=%+v err=%v", l, rep, err)
	}
}

func TestReadCSVLenientMatchesStrictOnCleanInput(t *testing.T) {
	l := New("clean")
	l.Append(Trace{"a", "b,with comma", `c "quoted"`})
	l.Append(Trace{"x"})
	var b strings.Builder
	if err := WriteCSV(&b, l); err != nil {
		t.Fatal(err)
	}
	strict, err := ReadCSV(strings.NewReader(b.String()), "clean")
	if err != nil {
		t.Fatal(err)
	}
	lenient, rep, err := ReadCSVWith(strings.NewReader(b.String()), "clean", ReadOptions{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total() != 0 {
		t.Fatalf("clean input reported skips: %+v", rep)
	}
	if !lenient.Equal(strict) {
		t.Fatalf("lenient %v != strict %v", lenient, strict)
	}
}

// TestReadCSVLenientLineEndingsMatchStrict pins carriage returns: a CRLF
// ends a line in both modes, a CRLF blank line is skipped, and a carriage
// return before the CRLF stays in the last field, as the strict reader
// keeps it.
func TestReadCSVLenientLineEndingsMatchStrict(t *testing.T) {
	in := "case,event\r\nc1,a\r\n\r\nc1,b\r\r\nc1,c\r"
	strict, err := ReadCSV(strings.NewReader(in), "crlf")
	if err != nil {
		t.Fatal(err)
	}
	lenient, rep, err := ReadCSVWith(strings.NewReader(in), "crlf", ReadOptions{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	want := New("crlf")
	want.Append(Trace{"a", "b\r", "c"})
	if !strict.Equal(want) || !lenient.Equal(want) || rep.Total() != 0 {
		t.Fatalf("strict %q, lenient %q (report %+v), want %q", strict.Traces, lenient.Traces, rep, want.Traces)
	}
}

func TestReadXESLenientSkipsBadEvents(t *testing.T) {
	in := `<?xml version="1.0"?>
<log>
  <string key="concept:name" value="dirty"/>
  <trace>
    <event><string key="concept:name" value="a"/></event>
    <event><string key="lifecycle:transition" value="complete"/></event>
    <event><string key="concept:name" value=""/></event>
    <event><string key="concept:name" value="b"/></event>
  </trace>
  <trace>
    <event><string key="other" value="nameless"/></event>
  </trace>
  <trace>
    <event><string key="concept:name" value="c"/></event>
  </trace>
</log>`
	l, rep, err := ReadXESWith(strings.NewReader(in), ReadOptions{Lenient: true})
	if err != nil {
		t.Fatalf("ReadXESWith: %v", err)
	}
	want := New("dirty")
	want.Append(Trace{"a", "b"})
	want.Append(Trace{"c"})
	if !l.Equal(want) {
		t.Fatalf("log = %v, want %v", l, want)
	}
	if rep.Events != 3 || rep.Traces != 1 {
		t.Fatalf("report %+v, want 3 skipped events and 1 dropped trace", rep)
	}
	// The same input must abort the strict reader.
	if _, err := ReadXES(strings.NewReader(in)); err == nil {
		t.Fatal("strict reader accepted an event without concept:name")
	}
	// Broken XML aborts even leniently.
	if _, _, err := ReadXESWith(strings.NewReader("<log><trace>"), ReadOptions{Lenient: true}); err == nil {
		t.Fatal("truncated XML accepted")
	}
}

func TestReadXMLLenientSkipsBadEvents(t *testing.T) {
	in := `<log name="dirty">
  <trace><event name="a"/><event/><event name="b"/></trace>
  <trace><event/></trace>
  <trace></trace>
</log>`
	l, rep, err := ReadXMLWith(strings.NewReader(in), ReadOptions{Lenient: true})
	if err != nil {
		t.Fatalf("ReadXMLWith: %v", err)
	}
	if len(l.Traces) != 2 || len(l.Traces[0]) != 2 || len(l.Traces[1]) != 0 {
		t.Fatalf("log = %v, want [a b] and one (originally) empty trace", l)
	}
	if rep.Events != 2 || rep.Traces != 1 {
		t.Fatalf("report %+v, want 2 skipped events and 1 dropped trace", rep)
	}
}

func TestLenientReadersMatchStrictRoundTrips(t *testing.T) {
	l := New("rt")
	l.Append(Trace{"alpha", "beta", "gamma"})
	l.Append(Trace{"beta"})
	var xes, xmlb strings.Builder
	if err := WriteXES(&xes, l); err != nil {
		t.Fatal(err)
	}
	if err := WriteXML(&xmlb, l); err != nil {
		t.Fatal(err)
	}
	got, rep, err := ReadXESWith(strings.NewReader(xes.String()), ReadOptions{Lenient: true})
	if err != nil || rep.Total() != 0 || !got.Equal(l) {
		t.Fatalf("xes round trip: log=%v rep=%+v err=%v", got, rep, err)
	}
	got, rep, err = ReadXMLWith(strings.NewReader(xmlb.String()), ReadOptions{Lenient: true})
	if err != nil || rep.Total() != 0 || !got.Equal(l) {
		t.Fatalf("xml round trip: log=%v rep=%+v err=%v", got, rep, err)
	}
	// Strict mode through the With API delegates to the strict readers.
	got, rep, err = ReadXESWith(strings.NewReader(xes.String()), ReadOptions{})
	if err != nil || rep.Total() != 0 || !got.Equal(l) {
		t.Fatalf("strict delegate: log=%v rep=%+v err=%v", got, rep, err)
	}
}
