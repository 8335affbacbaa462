package colscan

import (
	"fmt"

	"emdsearch/internal/emd"
	"emdsearch/internal/lb"
)

// IMScanner evaluates the Red-IM bound (lb.IM) over a Columns layout
// in block-sized batches. Its results are bit-identical to calling
// im.Distance(q, item) per item: the kernel performs the very same
// floating-point operations in the very same order — same sorted cost
// walks, same zero skips, same sequential cap subtraction, one
// accumulator per direction — it only restages the data. Each block is
// transposed into an L1-resident row-major scratch buffer (the column
// reads are linear, which is the whole point of the layout), the query
// is compiled once per scan instead of re-inspected per item, and the
// backward walk runs over per-column tables with the query's zero bins
// already dropped.
type IMScanner struct {
	cols     *Columns
	cost     [][]float64
	rowOrder [][]int32
	colOrder [][]int32
	// rowCost[i][t] = cost[i][rowOrder[i][t]]: the forward walk's cost
	// sequence, precomputed contiguous (query-independent).
	rowCost [][]float64
}

// NewIMScanner compiles the scanner for one bound/layout pair. The
// bound's cost matrix must be square with dimensionality equal to the
// columns' (the reduced cost of the coarsest filter level).
func NewIMScanner(im *lb.IM, cols *Columns) (*IMScanner, error) {
	rows, cs := im.Dims()
	if rows != cs {
		return nil, fmt.Errorf("colscan: IM cost is %dx%d, want square", rows, cs)
	}
	if rows != cols.Dims() {
		return nil, fmt.Errorf("colscan: IM dimensionality %d != columns %d", rows, cols.Dims())
	}
	s := &IMScanner{
		cols:     cols,
		cost:     im.Cost(),
		rowOrder: im.RowOrders(),
		colOrder: im.ColOrders(),
		rowCost:  make([][]float64, rows),
	}
	for i, order := range s.rowOrder {
		rc := make([]float64, len(order))
		for t, j := range order {
			rc[t] = s.cost[i][j]
		}
		s.rowCost[i] = rc
	}
	return s, nil
}

// qbin is one nonzero query bin compiled for a scan: its mass and the
// forward walk's target order and cost sequence.
type qbin struct {
	mass  float64
	order []int32
	cost  []float64
}

// compileQuery drops the query's zero bins once per scan — the scalar
// loop re-checks them for every item — and bundles each surviving
// bin's walk data.
func compileQuery(x emd.Histogram, rowOrder [][]int32, rowCost [][]float64) []qbin {
	bins := make([]qbin, 0, len(x))
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		bins = append(bins, qbin{mass: xi, order: rowOrder[i], cost: rowCost[i]})
	}
	return bins
}

// bwdEntry is one step of a backward walk compacted for a fixed
// query: the query-side capacity and the cost of routing to it. The
// zero-capacity skips of the scalar walk are applied once per query
// when the table is built, not once per item.
type bwdEntry struct {
	cap, cost float64
}

// compileBwd builds the per-column backward walk tables for query x.
// Entry order and values match the scalar backward loop exactly, so
// walking a table reproduces its arithmetic bit-for-bit.
func compileBwd(x emd.Histogram, cost [][]float64, colOrder [][]int32, tabs [][]bwdEntry) {
	for j := range tabs {
		tab := tabs[j][:0]
		for _, i := range colOrder[j] {
			if x[i] == 0 {
				continue
			}
			tab = append(tab, bwdEntry{cap: x[i], cost: cost[i][j]})
		}
		tabs[j] = tab
	}
}

// makeBwdTabs allocates the per-column table headers over one backing
// array (dims entries suffice per column: one per query bin).
func makeBwdTabs(dims int) [][]bwdEntry {
	tabs := make([][]bwdEntry, dims)
	store := make([]bwdEntry, dims*dims)
	for j := range tabs {
		tabs[j] = store[j*dims : j*dims : (j+1)*dims]
	}
	return tabs
}

// ScanAll computes the Red-IM bound of query x (already reduced)
// against every item, writing the bound of item i to out[i], and
// returns the number of items evaluated (always Len: the bound is
// computed per item, blocks only batch the memory traffic).
func (s *IMScanner) ScanAll(x emd.Histogram, out []float64) int {
	c := s.cols
	if len(x) != c.dims {
		panic(fmt.Sprintf("colscan: query has %d dims, columns %d", len(x), c.dims))
	}
	if len(out) < c.n {
		panic(fmt.Sprintf("colscan: out has %d slots for %d items", len(out), c.n))
	}
	bins := compileQuery(x, s.rowOrder, s.rowCost)
	tabs := makeBwdTabs(c.dims)
	compileBwd(x, s.cost, s.colOrder, tabs)
	rows := make([]float64, c.block*c.dims)
	dims := c.dims
	for b := 0; b < c.Blocks(); b++ {
		lo, hi := c.BlockBounds(b)
		m := hi - lo
		// Stage the block row-major: linear reads down each column,
		// writes confined to an L1-resident scratch buffer.
		for j, col := range c.cols {
			seg := col[lo:hi]
			for k, v := range seg {
				rows[k*dims+j] = v
			}
		}
		outb := out[lo:hi]
		for k := 0; k < m; k++ {
			row := rows[k*dims : k*dims+dims]
			var fwd float64
			for bi := range bins {
				qb := &bins[bi]
				remaining := qb.mass
				for t, j := range qb.order {
					cap := row[j]
					if cap == 0 {
						continue
					}
					if cap >= remaining {
						fwd += remaining * qb.cost[t]
						break
					}
					fwd += cap * qb.cost[t]
					remaining -= cap
				}
			}
			var bwd float64
			for j, yj := range row {
				if yj == 0 {
					continue
				}
				remaining := yj
				for _, e := range tabs[j] {
					if e.cap >= remaining {
						bwd += remaining * e.cost
						break
					}
					bwd += e.cap * e.cost
					remaining -= e.cap
				}
			}
			if bwd > fwd {
				outb[k] = bwd
			} else {
				outb[k] = fwd
			}
		}
	}
	return c.n
}
