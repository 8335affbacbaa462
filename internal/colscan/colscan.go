// Package colscan holds the struct-of-arrays filter storage and the
// batched scan kernels of the first pipeline stage.
//
// The engine's snapshot used to keep the reduced database as a
// []Histogram — n small heap slices, one pointer chase per candidate
// per stage. At production scale the O(n) Red-IM scan over that layout
// is the query bottleneck: the work per item is tiny (a few dozen
// flops at d' = 8), so memory layout and loop overhead dominate.
//
// Columns stores the same data transposed: one flat []float64 per
// reduced dimension, so a scan reads each column linearly. The layout
// is logically partitioned into fixed-size blocks; kernels process one
// block at a time so their scratch state (per-item remaining mass,
// partial bounds) stays L1-resident, and per-block metadata (the
// quantization scale and error margin of the int16 filter) attaches
// naturally. The arrays are immutable after Build — they belong to an
// engine snapshot and are shared by concurrent queries without
// synchronization — and the flat layout is exactly what an mmap-able
// or sharded index needs later.
package colscan

import "fmt"

// DefaultBlock is the block length used when a caller passes a
// non-positive block size: 256 items keep a block's float64 column
// slice at 2 KiB (Int16 at 512 B) and the kernels' whole working set
// comfortably inside L1.
const DefaultBlock = 256

// Columns is the immutable struct-of-arrays form of n reduced
// database vectors of dims dimensions: cols[j][i] is dimension j of
// item i. Built once per engine snapshot; never mutated afterwards.
type Columns struct {
	n     int
	dims  int
	block int
	cols  [][]float64
}

// Build constructs the columnar layout for n items of dims reduced
// dimensions. fill must write item i's reduced vector into its
// dst argument (len dims); Build transposes into the columns. block
// <= 0 selects DefaultBlock.
func Build(n, dims, block int, fill func(i int, dst []float64)) (*Columns, error) {
	if n < 0 {
		return nil, fmt.Errorf("colscan: negative item count %d", n)
	}
	if dims < 1 {
		return nil, fmt.Errorf("colscan: dims %d, want >= 1", dims)
	}
	if block <= 0 {
		block = DefaultBlock
	}
	c := &Columns{n: n, dims: dims, block: block, cols: make([][]float64, dims)}
	// One backing allocation for all columns: the layout stays one
	// contiguous region (dims stripes of length n), not dims scattered
	// heap objects.
	backing := make([]float64, n*dims)
	for j := range c.cols {
		c.cols[j] = backing[j*n : (j+1)*n : (j+1)*n]
	}
	tmp := make([]float64, dims)
	for i := 0; i < n; i++ {
		fill(i, tmp)
		for j, v := range tmp {
			c.cols[j][i] = v
		}
	}
	return c, nil
}

// Len returns the number of items.
func (c *Columns) Len() int { return c.n }

// Dims returns the number of reduced dimensions.
func (c *Columns) Dims() int { return c.dims }

// BlockSize returns the block partition length.
func (c *Columns) BlockSize() int { return c.block }

// Blocks returns the number of blocks covering all items.
func (c *Columns) Blocks() int {
	if c.n == 0 {
		return 0
	}
	return (c.n + c.block - 1) / c.block
}

// BlockBounds returns the half-open item range [lo, hi) of block b.
func (c *Columns) BlockBounds(b int) (lo, hi int) {
	lo = b * c.block
	hi = lo + c.block
	if hi > c.n {
		hi = c.n
	}
	return lo, hi
}

// Gather reconstructs item i's reduced vector into dst (which must
// have length dims) and returns it. The values are the ones Build
// stored, bit-for-bit.
func (c *Columns) Gather(i int, dst []float64) []float64 {
	for j, col := range c.cols {
		dst[j] = col[i]
	}
	return dst
}

// ScanGather evaluates eval for every item against a gathered copy of
// its reduced vector, writing eval's result to out[i] and returning
// the number of items evaluated (always Len). It transposes one block
// at a time into a scratch buffer — linear column reads, L1-resident
// writes — so per-item evaluators that need the row form (the reduced
// EMD) still scan cache-friendly. The row slice handed to eval is
// reused across calls; eval must not retain it.
func (c *Columns) ScanGather(out []float64, eval func(i int, row []float64) float64) int {
	scratch := make([]float64, c.block*c.dims)
	for b := 0; b < c.Blocks(); b++ {
		lo, hi := c.BlockBounds(b)
		m := hi - lo
		for j, col := range c.cols {
			seg := col[lo:hi]
			for k, v := range seg {
				scratch[k*c.dims+j] = v
			}
		}
		for k := 0; k < m; k++ {
			row := scratch[k*c.dims : (k+1)*c.dims]
			out[lo+k] = eval(lo+k, row)
		}
	}
	return c.n
}
