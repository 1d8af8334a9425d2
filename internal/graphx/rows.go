package graphx

import (
	"sync"
	"sync/atomic"
)

// Rows is an all-pairs distance table whose rows are built on first
// touch. Row(src) runs the same single-source routine the CSR's
// AllPairs* builder runs for that row (DijkstraInto or HopsInto), so
// every row is bit-identical to the matching row of the eager table;
// a caller that reads k rows pays for k single-source searches and k·n
// floats instead of n of each.
//
// Each row fills under its own sync.Once, so concurrent readers are
// race-free and a row is built exactly once. A Rows is safe to share
// across goroutines; the returned rows are shared and must not be
// written.
type Rows struct {
	csr    *CSR
	hops   bool // BFS hop counts instead of weighted Dijkstra
	rows   []lazyRow
	filled atomic.Int32
}

type lazyRow struct {
	once sync.Once
	row  []float64
}

// DijkstraRows returns the lazily built weighted distance table: row
// src equals AllPairsDijkstra()[src] bit for bit.
func (c *CSR) DijkstraRows() *Rows {
	return &Rows{csr: c, rows: make([]lazyRow, c.n)}
}

// HopRows returns the lazily built hop-count table: row src equals
// AllPairsHops()[src].
func (c *CSR) HopRows() *Rows {
	return &Rows{csr: c, hops: true, rows: make([]lazyRow, c.n)}
}

// Row returns the distances from src to every node, building the row on
// its first request.
func (r *Rows) Row(src int) []float64 {
	lr := &r.rows[src]
	lr.once.Do(func() { r.fill(src) })
	return lr.row
}

// fill builds row src; it runs once per row, under that row's Once.
func (r *Rows) fill(src int) {
	row := make([]float64, r.csr.n)
	if r.hops {
		queue := make([]int32, 0, r.csr.n)
		r.csr.HopsInto(src, row, &queue)
	} else {
		h := make([]pqItem, 0, r.csr.n)
		r.csr.DijkstraInto(src, row, make([]bool, r.csr.n), &h)
	}
	r.rows[src].row = row
	r.filled.Add(1)
}

// Filled reports how many rows have been built so far.
func (r *Rows) Filled() int { return int(r.filled.Load()) }
