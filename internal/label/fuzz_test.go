package label

import "testing"

// Fuzz targets: every measure must stay in [0,1], be symmetric, and give 1
// on identical inputs — for arbitrary (including invalid-UTF-8) strings. A
// non-nil oracle must also agree with sim bit for bit.

func fuzzMeasure(f *testing.F, sim, oracle Similarity) {
	f.Add("check order", "chk order")
	f.Add("", "")
	f.Add("ü", "u")
	f.Fuzz(func(t *testing.T, a, b string) {
		v := sim(a, b)
		if oracle != nil {
			if want := oracle(a, b); v != want {
				t.Fatalf("sim(%q,%q) = %v, oracle %v", a, b, v, want)
			}
		}
		if v < 0 || v > 1+1e-9 {
			t.Fatalf("sim(%q,%q) = %g out of range", a, b, v)
		}
		w := sim(b, a)
		if d := v - w; d > 1e-9 || d < -1e-9 {
			t.Fatalf("asymmetric: %g vs %g", v, w)
		}
		if s := sim(a, a); s < 1-1e-9 {
			t.Fatalf("self similarity %g != 1 for %q", s, a)
		}
	})
}

func FuzzLevenshtein(f *testing.F)  { fuzzMeasure(f, Levenshtein, nil) }
func FuzzJaroWinkler(f *testing.F)  { fuzzMeasure(f, JaroWinkler, nil) }
func FuzzJaccardWords(f *testing.F) { fuzzMeasure(f, JaccardWords, nil) }

// FuzzQGramCosine also requires bit-for-bit agreement with the map-based
// oracle.
func FuzzQGramCosine(f *testing.F) {
	f.Add("İ\x1d#7d0c01c8", "\xffß")
	fuzzMeasure(f, QGramCosine(3), func(a, b string) float64 { return oracleQGram(a, b, 3) })
}
