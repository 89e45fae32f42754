package label_test

import (
	"testing"

	"repro/internal/label"
)

// TestQGramCosineZeroAllocs lives in an external test package: callers in
// other packages inline QGramCosine and compile its closure themselves, so
// the stack buffers must stay on the stack there too.
func TestQGramCosineZeroAllocs(t *testing.T) {
	sim := label.QGramCosine(3)
	pairs := [][2]string{
		{"Check inventory step", "check_inventory"},
		{"#7d0c01c8", "ship goods v2"},
		{"pay\x1dcheck inventory\x1dship", "İnvoice ǅ"},
		{"", "x"},
	}
	for _, p := range pairs {
		if n := testing.AllocsPerRun(100, func() { sim(p[0], p[1]) }); n != 0 {
			t.Errorf("sim(%q,%q) allocates %v times per call", p[0], p[1], n)
		}
	}
}
