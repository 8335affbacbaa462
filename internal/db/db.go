// Package db provides the in-memory histogram store behind the engine:
// validated original feature vectors with their labels. The reduced
// database vectors the paper's Figure 10 setup computes offline live in
// the engine's columnar filter layout, not here.
package db

import (
	"fmt"

	"emdsearch/internal/emd"
)

// Item is one database object: a feature histogram plus an optional
// application label (the synthetic generators store the class here).
type Item struct {
	ID     int
	Label  string
	Vector emd.Histogram
}

// Database stores validated items of one fixed dimensionality.
type Database struct {
	dim   int
	items []Item
}

// New creates an empty database for dim-dimensional histograms.
func New(dim int) (*Database, error) {
	if dim < 1 {
		return nil, fmt.Errorf("db: dimensionality %d, want >= 1", dim)
	}
	return &Database{dim: dim}, nil
}

// Check validates a histogram against the database's dimensionality
// and the EMD operand requirements without inserting it. It is the
// exact admission test Add applies, exposed so that a caller can
// verify an item before committing it to a write-ahead log.
func (d *Database) Check(h emd.Histogram) error {
	if len(h) != d.dim {
		return fmt.Errorf("db: histogram has %d dimensions, database stores %d", len(h), d.dim)
	}
	return emd.Validate(h)
}

// Add validates and appends a histogram, returning its index.
func (d *Database) Add(label string, h emd.Histogram) (int, error) {
	if err := d.Check(h); err != nil {
		return 0, err
	}
	id := len(d.items)
	d.items = append(d.items, Item{ID: id, Label: label, Vector: h})
	return id, nil
}

// Len returns the number of stored items.
func (d *Database) Len() int { return len(d.items) }

// Dim returns the histogram dimensionality.
func (d *Database) Dim() int { return d.dim }

// Item returns the i-th item.
func (d *Database) Item(i int) Item { return d.items[i] }

// Vector returns the i-th original histogram.
func (d *Database) Vector(i int) emd.Histogram { return d.items[i].Vector }

// Vectors returns all original histograms (shared, not copied).
func (d *Database) Vectors() []emd.Histogram {
	out := make([]emd.Histogram, len(d.items))
	for i := range d.items {
		out[i] = d.items[i].Vector
	}
	return out
}
