package label

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// oracleProfile and oracleCosine are the direct map-based definition of the
// q-gram cosine; the sorted-gram kernel must equal them bit for bit.

func oracleProfile(s string, q int) map[string]int {
	s = strings.ToLower(s)
	pad := strings.Repeat("\x00", q-1)
	r := []rune(pad + s + pad)
	prof := make(map[string]int)
	for i := 0; i+q <= len(r); i++ {
		prof[string(r[i:i+q])]++
	}
	return prof
}

func oracleCosine(a, b map[string]int) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	var dot, na, nb float64
	for g, ca := range a {
		if cb, ok := b[g]; ok {
			dot += float64(ca) * float64(cb)
		}
		na += float64(ca) * float64(ca)
	}
	for _, cb := range b {
		nb += float64(cb) * float64(cb)
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

func oracleQGram(a, b string, q int) float64 {
	return oracleCosine(oracleProfile(a, q), oracleProfile(b, q))
}

// qgramPieces are the fragments randomized names are built from: plain and
// opaque labels, upper-case non-ASCII whose lower case differs in width
// (İ, ǅ, Ü), ß, invalid UTF-8, the composite name separator and NUL (the
// padding rune itself).
var qgramPieces = []string{
	"a", "b", "ab", "ba", "check", "Check", "CHECK", " ", "_", "v2", " step",
	"inventory", "#7d0c01c8", "#9f3a1b", "İ", "i", "ǅ", "ǆ", "Ü", "ü", "ß",
	"SS", "\xff", "\xc3", "\x1d", "\x00", "é", "日本",
}

func randomName(rng *rand.Rand) string {
	switch rng.Intn(10) {
	case 0:
		return ""
	case 1:
		// Longer than the stack buffers: the heap path must agree too.
		return strings.Repeat(qgramPieces[rng.Intn(len(qgramPieces))], qgramStack+rng.Intn(40))
	}
	var sb strings.Builder
	for n := rng.Intn(8); n >= 0; n-- {
		sb.WriteString(qgramPieces[rng.Intn(len(qgramPieces))])
	}
	return sb.String()
}

func TestQGramCosineMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for q := 1; q <= 5; q++ {
		sim := QGramCosine(q)
		for it := 0; it < 3000; it++ {
			a, b := randomName(rng), randomName(rng)
			if rng.Intn(8) == 0 {
				b = a
			}
			if got, want := sim(a, b), oracleQGram(a, b, q); got != want {
				t.Fatalf("q=%d sim(%q,%q) = %v, oracle %v", q, a, b, got, want)
			}
		}
	}
}

var qgramSink float64

func BenchmarkQGramCosine(b *testing.B) {
	names := []string{
		"check inventory", "Check inventory step", "ship_goods", "ship goods v2",
		"#7d0c01c8", "#9f3a1b00", "#0a1b2c3d",
		"check inventory\x1dship goods", "#7d0c01c8\x1d#9f3a1b00\x1dpay invoice",
	}
	sim := QGramCosine(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range names {
			for _, y := range names {
				qgramSink += sim(x, y)
			}
		}
	}
}
