package db

import (
	"testing"

	"emdsearch/internal/emd"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("accepted dimensionality 0")
	}
	d, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	if d.Dim() != 4 || d.Len() != 0 {
		t.Errorf("fresh database: dim %d len %d", d.Dim(), d.Len())
	}
}

func TestAddValidation(t *testing.T) {
	d, _ := New(3)
	if _, err := d.Add("a", emd.Histogram{0.5, 0.5}); err == nil {
		t.Error("accepted wrong dimensionality")
	}
	if _, err := d.Add("a", emd.Histogram{0.5, 0.5, 0.5}); err == nil {
		t.Error("accepted unnormalized histogram")
	}
	if _, err := d.Add("a", emd.Histogram{-0.5, 1.0, 0.5}); err == nil {
		t.Error("accepted negative entry")
	}
	id, err := d.Add("classA", emd.Histogram{0.2, 0.3, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if id != 0 || d.Len() != 1 {
		t.Errorf("id %d len %d, want 0 and 1", id, d.Len())
	}
	if item := d.Item(0); item.Label != "classA" || item.ID != 0 {
		t.Errorf("item = %+v", item)
	}
}

func TestVectors(t *testing.T) {
	d, _ := New(2)
	d.Add("a", emd.Histogram{1, 0})
	d.Add("b", emd.Histogram{0, 1})
	vecs := d.Vectors()
	if len(vecs) != 2 || vecs[0][0] != 1 || vecs[1][1] != 1 {
		t.Errorf("Vectors = %v", vecs)
	}
	if v := d.Vector(1); v[1] != 1 {
		t.Errorf("Vector(1) = %v", v)
	}
}
