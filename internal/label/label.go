// Package label implements typographic (label) similarity measures between
// event names: cosine similarity over q-gram profiles (the measure the paper
// uses, following Gravano et al., WWW 2003), normalized Levenshtein edit
// similarity, and Jaccard word similarity. All measures return values in
// [0,1] where 1 means identical.
package label

import (
	"math"
	"slices"
	"strings"
	"unicode"
)

// Similarity computes a label similarity in [0,1] between two event names.
type Similarity func(a, b string) float64

// QGramCosine returns the cosine-similarity measure over q-gram frequency
// vectors. Names are lower-cased and padded with q-1 boundary markers so
// that prefixes and suffixes contribute. q must be >= 1; q = 3 reproduces
// the paper's setting.
//
// Each name's grams are the start positions of its q-rune windows, sorted
// by window; one merge over the two sorted lists yields the integer dot
// product and squared norms. Names of up to qgramStack padded runes are
// scored without heap allocation.
func QGramCosine(q int) Similarity {
	if q < 1 {
		q = 1
	}
	return func(a, b string) float64 {
		var runesA, runesB [qgramStack]rune
		var posA, posB [qgramStack]int32
		ra, ga := grams(a, q, runesA[:0], posA[:0])
		rb, gb := grams(b, q, runesB[:0], posB[:0])
		if len(ga) == 0 || len(gb) == 0 {
			if len(ga) == len(gb) {
				return 1
			}
			return 0
		}
		dot := 0
		for i, j := 0, 0; i < len(ga) && j < len(gb); {
			switch c := compareRunes(window(ra, ga[i], q), window(rb, gb[j], q)); {
			case c < 0:
				i++
			case c > 0:
				j++
			default:
				ca, cb := gramRun(ra, ga[i:], q), gramRun(rb, gb[j:], q)
				dot += ca * cb
				i, j = i+ca, j+cb
			}
		}
		na, nb := sumSquares(ra, ga, q), sumSquares(rb, gb, q)
		return float64(dot) / (math.Sqrt(float64(na)) * math.Sqrt(float64(nb)))
	}
}

// qgramStack is the padded rune length up to which QGramCosine works in
// fixed stack buffers; longer names spill to the heap.
const qgramStack = 128

// grams appends s, lower-cased rune by rune and padded with q-1 NUL runes at
// both ends, to runes, and the start positions of its q-rune windows, sorted
// by window, to pos. Per-rune unicode.ToLower is what strings.ToLower
// applies, and ranging over invalid UTF-8 yields one U+FFFD per bad byte as
// []rune does, so the grams are those of the map-based profile.
func grams(s string, q int, runes []rune, pos []int32) ([]rune, []int32) {
	for i := 1; i < q; i++ {
		runes = append(runes, 0)
	}
	for _, r := range s {
		runes = append(runes, unicode.ToLower(r))
	}
	for i := 1; i < q; i++ {
		runes = append(runes, 0)
	}
	for p := 0; p+q <= len(runes); p++ {
		pos = append(pos, int32(p))
	}
	slices.SortFunc(pos, func(x, y int32) int { return compareRunes(window(runes, x, q), window(runes, y, q)) })
	return runes, pos
}

// window is the q-rune gram starting at position p.
func window(runes []rune, p int32, q int) []rune { return runes[p : int(p)+q] }

// compareRunes orders two equal-length rune windows. It is not generic
// slices.Compare, whose instantiation in an inlining caller's package
// would make the buffers escape.
func compareRunes(x, y []rune) int {
	for k := range x {
		if x[k] != y[k] {
			if x[k] < y[k] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// gramRun counts the leading positions of g whose window equals g[0]'s.
func gramRun(runes []rune, g []int32, q int) int {
	first := window(runes, g[0], q)
	n := 1
	for n < len(g) && compareRunes(window(runes, g[n], q), first) == 0 {
		n++
	}
	return n
}

// sumSquares returns the squared norm of the gram frequency vector.
func sumSquares(runes []rune, g []int32, q int) int {
	sum := 0
	for i := 0; i < len(g); {
		c := gramRun(runes, g[i:], q)
		sum += c * c
		i += c
	}
	return sum
}

// Levenshtein returns the normalized edit similarity
// 1 - dist(a,b)/max(len(a),len(b)), computed over runes.
func Levenshtein(a, b string) float64 {
	ra, rb := []rune(strings.ToLower(a)), []rune(strings.ToLower(b))
	if len(ra) == 0 && len(rb) == 0 {
		return 1
	}
	d := editDistance(ra, rb)
	return 1 - float64(d)/float64(max(len(ra), len(rb)))
}

func editDistance(a, b []rune) int {
	if len(a) < len(b) {
		a, b = b, a
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// JaccardWords returns the Jaccard similarity between the word sets of the
// two names, where words are maximal alphanumeric runs, lower-cased.
func JaccardWords(a, b string) float64 {
	wa, wb := wordSet(a), wordSet(b)
	if len(wa) == 0 && len(wb) == 0 {
		return 1
	}
	inter := 0
	for w := range wa {
		if wb[w] {
			inter++
		}
	}
	union := len(wa) + len(wb) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

func wordSet(s string) map[string]bool {
	out := make(map[string]bool)
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			out[strings.ToLower(cur.String())] = true
			cur.Reset()
		}
	}
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			cur.WriteRune(r)
		} else {
			flush()
		}
	}
	flush()
	return out
}

// Zero is the similarity that is 0 for every pair; it is used when labels
// are opaque and must be ignored (equivalently alpha = 1).
func Zero(a, b string) float64 { return 0 }

// Matrix evaluates the similarity for every pair of the two name slices and
// returns a dense row-major matrix m[i*len(b)+j] = sim(a[i], b[j]).
func Matrix(sim Similarity, a, b []string) []float64 {
	m := make([]float64, len(a)*len(b))
	for i, x := range a {
		for j, y := range b {
			m[i*len(b)+j] = sim(x, y)
		}
	}
	return m
}
