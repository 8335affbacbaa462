package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// writeRuns writes three runs of serve_http whose knn_p50_ms are the
// given values and whose other metrics are constant.
func writeRuns(t *testing.T, name string, fnv string, p50 ...float64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	sp, _ := findSpec("serve_http")
	for _, v := range p50 {
		r := newResult(sp, 42, 0)
		r.Attempted = 100
		r.AnswersFNV = fnv
		r.set("knn_p50_ms", v, 100)
		r.set("qps", 100, 100)
		r.set("failed_frac", 0, 100)
		r.set("transport.share", 0.7, 100)
		if err := appendResult(path, r); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

func TestCompareVerdicts(t *testing.T) {
	old := writeRuns(t, "old", "aa", 10, 10.1, 9.9)
	for _, c := range []struct {
		name    string
		new     string
		code    int
		verdict string
	}{
		{"within", writeRuns(t, "new", "aa", 10.5, 10.4, 10.6), 0, "within"},
		{"worse", writeRuns(t, "new", "aa", 13, 13.1, 12.9), 1, "worse"},
		{"better", writeRuns(t, "new", "aa", 7, 7.1, 6.9), 0, "better"},
		{"unresolved", writeRuns(t, "new", "aa", 8, 12, 16), 0, "unresolved"},
		{"answers changed", writeRuns(t, "new", "bb", 10, 10.1, 9.9), 1, "within"},
	} {
		var out bytes.Buffer
		if code := compareFiles(old, c.new, &out); code != c.code {
			t.Errorf("%s: exit code %d, want %d\n%s", c.name, code, c.code, out.String())
		}
		var row string
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, " knn_p50_ms ") {
				row = line
			}
		}
		if !strings.HasSuffix(row, c.verdict) {
			t.Errorf("%s: knn_p50_ms row %q, want verdict %s", c.name, row, c.verdict)
		}
		if !strings.Contains(out.String(), "transport.share") || !strings.Contains(out.String(), "info") {
			t.Errorf("%s: per-layer row missing:\n%s", c.name, out.String())
		}
	}
}

// A metric whose old median is exactly 0 (failed_frac on a healthy
// run) is worse at any growth.
func TestCompareExactZero(t *testing.T) {
	d := metricDef{"failed_frac", "ratio", "lower", 0}
	if v := verdict(d, true, []float64{0, 0, 0}, []float64{0.01, 0.01, 0.01}); v != "worse" {
		t.Errorf("failed_frac 0 -> 0.01 is %s, want worse", v)
	}
	if v := verdict(d, true, []float64{0, 0, 0}, []float64{0, 0, 0}); v != "within" {
		t.Errorf("failed_frac 0 -> 0 is %s, want within", v)
	}
}
