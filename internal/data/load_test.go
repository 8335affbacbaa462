package data

import (
	"strings"
	"testing"
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
