package server

import (
	"bufio"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateSurface = flag.Bool("update", false, "rewrite the observable-surface goldens from the current server")

// TestObservableSurfaceGolden pins what operators and dashboards depend on:
// the key set of GET /v1/stats and every /metrics family's name, type and
// help text. A renamed key or a reworded help line is a breaking change for
// scrapers, so it has to show up as a golden diff. Regenerate with
// `go test ./internal/server -run ObservableSurface -update` and review.
func TestObservableSurfaceGolden(t *testing.T) {
	_, ts := newTestServer(t, quietConfig(Config{Workers: 1}))
	view, code := postJob(t, ts, paperRequest(t))
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	pollJob(t, ts, view.ID)

	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]json.RawMessage
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(stats))
	for k := range stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	checkSurfaceGolden(t, "stats_keys.golden", strings.Join(keys, "\n")+"\n")

	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Families keep their HELP and TYPE lines together; sorting by family
	// name makes the golden independent of registration order.
	families := map[string][]string{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		for _, prefix := range []string{"# HELP ", "# TYPE "} {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				name, _, _ := strings.Cut(rest, " ")
				families[name] = append(families[name], line)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(families))
	for n := range families {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		for _, l := range families[n] {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	checkSurfaceGolden(t, "metrics_families.golden", b.String())
}

func checkSurfaceGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateSurface {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create it): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the golden:\n--- got\n%s--- want\n%s", name, got, want)
	}
}
