package data

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"emdsearch/internal/emd"
)

func TestReadVectors(t *testing.T) {
	input := `# comment
0.5 0.25 0.25
a: 1 0 0

b: 0 0.5 0.5
`
	vecs, labels, err := ReadVectors(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(vecs) != 3 {
		t.Fatalf("got %d vectors, want 3", len(vecs))
	}
	if labels[0] != "" || labels[1] != "a" || labels[2] != "b" {
		t.Errorf("labels = %v", labels)
	}
	if vecs[1][0] != 1 || vecs[2][2] != 0.5 {
		t.Errorf("vectors = %v", vecs)
	}
}

func TestReadVectorsErrors(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"empty", ""},
		{"only comments", "# nothing\n"},
		{"ragged", "1 2 3\n1 2\n"},
		{"not numeric", "1 abc 3\n"},
		{"label only", "x:\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := ReadVectors(strings.NewReader(tc.input)); err == nil {
				t.Fatalf("accepted %q", tc.input)
			}
		})
	}
}

func TestLoadDataset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "hists.txt")
	content := "a: 2 2 4\nb: 1 0 1\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := LoadDataset(path, "external", emd.LinearCost(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Dim != 3 || len(ds.Items) != 2 {
		t.Fatalf("dim %d items %d", ds.Dim, len(ds.Items))
	}
	// Histograms normalized on load.
	if ds.Items[0].Vector[2] != 0.5 {
		t.Errorf("normalization wrong: %v", ds.Items[0].Vector)
	}
	if ds.Items[1].Label != "b" {
		t.Errorf("label = %q", ds.Items[1].Label)
	}
	// Usable end to end: every vector is a valid EMD operand.
	for i, item := range ds.Items {
		if err := emd.Validate(item.Vector); err != nil {
			t.Errorf("item %d: %v", i, err)
		}
	}
}

func TestLoadDatasetErrors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(path, []byte("1 2 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDataset(path, "x", emd.LinearCost(5), nil); err == nil {
		t.Error("accepted mismatched cost dimensionality")
	}
	if _, err := LoadDataset(filepath.Join(dir, "missing.txt"), "x", emd.LinearCost(3), nil); err == nil {
		t.Error("accepted missing file")
	}
	neg := filepath.Join(dir, "neg.txt")
	if err := os.WriteFile(neg, []byte("1 -2 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDataset(neg, "x", emd.LinearCost(3), nil); err == nil {
		t.Error("accepted negative entries")
	}
}
