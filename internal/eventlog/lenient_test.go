package eventlog

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"
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

// plainRowEdges are data rows at the edges of the lenient reader's
// plain-row classifier (splitPlainRow): rows it must split as encoding/csv
// would, and rows it must leave to encoding/csv. The read buffer and
// MaxFieldBytes are both 64 KiB; a row line of 64 KiB - 1 bytes plus its
// newline still fits the buffer, one byte more must be joined from pieces.
var plainRowEdges = []struct{ name, row string }{
	{"trailing_cr", "c1,a\r"},
	{"cr_cr", "c1,a\r\r"},
	{"cr_mid_event", "c1,a\rb"},
	{"cr_mid_case", "c\r1,a"},
	{"comma_then_cr", "c1,\r"},
	{"three_fields", "a,b,c"},
	{"empty_event", "a,"},
	{"empty_case", ",b"},
	{"lone_comma", ","},
	{"no_comma", "a"},
	{"spaces", " c1 , a "},
	{"tabs", "\tc1\t,\ta\t"},
	{"quoted_case", `"c1",a`},
	{"bare_quote_in_case", `c"1,a`},
	{"quoted_event", `c1,"a"`},
	{"case_at_max", strings.Repeat("c", MaxFieldBytes) + ",a"},
	{"case_over_max", strings.Repeat("c", MaxFieldBytes+1) + ",a"},
	{"event_at_max", "c1," + strings.Repeat("e", MaxFieldBytes)},
	{"event_at_max_cr", "c1," + strings.Repeat("e", MaxFieldBytes) + "\r"},
	{"event_over_max", "c1," + strings.Repeat("e", MaxFieldBytes+1)},
	{"nul", "c\x001,a\x00b"},
	{"invalid_utf8", "c\xff1,\xfe\xfda"},
	{"under_read_buffer", "c1," + strings.Repeat("u", 64<<10-1-len("c1,"))},
	{"over_read_buffer", "c1," + strings.Repeat("o", 64<<10-len("c1,"))},
}

// plainRowEdgeDoc embeds row twice in a document with line separator sep:
// once between plain rows, once as the last line without a terminator.
func plainRowEdgeDoc(row, sep string) string {
	return strings.Join([]string{"case,event", "c0,start", row, "c0,end", row}, sep)
}

func TestReadCSVLenientPlainRowEdgesMatchOracle(t *testing.T) {
	for _, r := range plainRowEdges {
		for _, sep := range []string{"\n", "\r\n"} {
			t.Run(fmt.Sprintf("%s/sep=%q", r.name, sep), func(t *testing.T) {
				requireLenientMatchesOracle(t, plainRowEdgeDoc(r.row, sep))
			})
		}
	}
}

// TestReadCSVLenientInternsEventNames pins the property ReadCSVWith states:
// in a lenient read of a plain document every occurrence of one event name
// shares one backing array.
func TestReadCSVLenientInternsEventNames(t *testing.T) {
	var b strings.Builder
	b.WriteString("case,event\n")
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&b, "case-%d,event-%d\n", i/30, i%7)
	}
	l, rep, err := ReadCSVWith(strings.NewReader(b.String()), "intern", ReadOptions{Lenient: true})
	if err != nil || rep.Total() != 0 {
		t.Fatalf("read: %v (report %+v)", err, rep)
	}
	data := make(map[string]*byte)
	for _, tr := range l.Traces {
		for _, ev := range tr {
			p := unsafe.StringData(ev)
			if q, ok := data[ev]; !ok {
				data[ev] = p
			} else if q != p {
				t.Fatalf("event %q stored at two addresses", ev)
			}
		}
	}
	if len(data) != 7 {
		t.Fatalf("read %d distinct event names, want 7", len(data))
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
