package eventlog

import (
	"fmt"
	"strings"
	"testing"
)

// TestReadCSVLenientAllocsPerRow guards the lenient CSV reader's per-row
// cost. A row may allocate its csv.Reader, the record and its fields, but
// no buffer and no copy of the line: a reader that builds a bufio.Reader,
// a strings.Reader and a line copy for every row needs about 13 allocations
// per row on this document, against about 8.
func TestReadCSVLenientAllocsPerRow(t *testing.T) {
	const rows = 2000
	var b strings.Builder
	b.WriteString("case,event\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "case-%d,event-%d\n", i/40, (i*7)%40)
	}
	doc := b.String()
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := ReadCSVWith(strings.NewReader(doc), "allocs", ReadOptions{Lenient: true}); err != nil {
			t.Fatal(err)
		}
	})
	if perRow := allocs / rows; perRow > 10 {
		t.Fatalf("lenient read allocates %.2f times per row, want at most 10", perRow)
	}
}
