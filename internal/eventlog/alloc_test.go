package eventlog

import (
	"fmt"
	"strings"
	"testing"
)

// TestReadCSVLenientAllocsPerRow guards the per-row cost of both row paths
// of the lenient CSV reader. A plain row (no quote, one comma) is split in
// place and looked up without a copy, so only a new case, a new event name
// and a trace's growth allocate: about 0.24 times per row here, and the
// bound of 1 fails a reader that gives plain rows a csv.Reader (about 8).
// A quoted row still gets a csv.Reader, the record and its fields, but no
// buffer and no copy of the line: about 8 per row, where a bufio.Reader, a
// strings.Reader and a line copy for every row would make about 13.
func TestReadCSVLenientAllocsPerRow(t *testing.T) {
	const rows = 2000
	for _, tc := range []struct {
		name, format string
		maxPerRow    float64
	}{
		{"plain", "case-%d,event-%d\n", 1},
		{"quoted", "\"case-%d\",\"event-%d\"\n", 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var b strings.Builder
			b.WriteString("case,event\n")
			for i := 0; i < rows; i++ {
				fmt.Fprintf(&b, tc.format, i/40, (i*7)%40)
			}
			doc := b.String()
			allocs := testing.AllocsPerRun(5, func() {
				if _, _, err := ReadCSVWith(strings.NewReader(doc), "allocs", ReadOptions{Lenient: true}); err != nil {
					t.Fatal(err)
				}
			})
			if perRow := allocs / rows; perRow > tc.maxPerRow {
				t.Fatalf("lenient read allocates %.2f times per row, want at most %g", perRow, tc.maxPerRow)
			}
		})
	}
}
