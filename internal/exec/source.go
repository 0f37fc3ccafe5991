package exec

import (
	"context"

	"ppqtraj/internal/geo"
	"ppqtraj/internal/index"
	"ppqtraj/internal/traj"
)

// SegmentScan is the index source: it pulls decoded cell batches from
// an index.RangeCursor, classifying each candidate cell against the
// margin before its postings are decoded — full-reject cells are pruned
// via the cursor's visit hook (no decode, counted CellsSkipped),
// full-accept cells flow out as Sure batches that skip downstream
// verification.
type SegmentScan struct {
	ctx  context.Context
	cur  *index.RangeCursor
	cls  Classifier
	sure bool // classification of the cell the cursor is decoding
	err  error
	out  Batch
	// visitFn is s.visit bound once, so pooled re-inits allocate no
	// closure.
	visitFn func(cell geo.Rect) bool
}

// NewSegmentScan opens a scan of [from, to] against idx. Stats
// accumulate into st as the cursor's accounting (margin-rejected cells
// count as CellsSkipped).
func NewSegmentScan(ctx context.Context, idx *index.TPI, cls Classifier, from, to int, st *index.ScanStats) *SegmentScan {
	s := &SegmentScan{}
	s.init(ctx, new(index.RangeCursor), idx, cls, from, to, st)
	return s
}

// init aims the scan at [from, to] of idx through cur, keeping any
// scratch both already hold — the pooled-pipeline path.
func (s *SegmentScan) init(ctx context.Context, cur *index.RangeCursor, idx *index.TPI, cls Classifier, from, to int, st *index.ScanStats) {
	s.ctx, s.cur, s.cls = ctx, cur, cls
	s.sure, s.err = false, nil
	if s.visitFn == nil {
		s.visitFn = s.visit
	}
	cur.Reset(idx, cls.Area(), from, to, st, s.visitFn)
}

func (s *SegmentScan) visit(cell geo.Rect) bool {
	switch s.cls.Classify(cell) {
	case Reject:
		return false
	case Accept:
		s.sure = true
	default:
		s.sure = false
	}
	return true
}

// Next pulls the next non-empty cell batch.
func (s *SegmentScan) Next() (*Batch, bool) {
	if s.err != nil {
		return nil, false
	}
	if s.err = s.ctx.Err(); s.err != nil {
		return nil, false
	}
	cs, ok := s.cur.Next()
	if !ok {
		return nil, false
	}
	s.out = Batch{Ticks: cs.Ticks, IDs: cs.IDs, Sure: s.sure}
	return &s.out, true
}

func (s *SegmentScan) Err() error { return s.err }

// HotScan is the hot-tail source: per-tick columns snapshotted from the
// unsealed tail flow out one Sure batch per tick (the tail stores raw
// positions, so residency is exact — no margin check applies).
type HotScan struct {
	ctx  context.Context
	cols []Column
	i    int
	err  error
	out  Batch
	tick [1]int
	ids  [1][]traj.ID
}

// NewHotScan wraps already-snapshotted hot-tail columns as a source.
func NewHotScan(ctx context.Context, cols []Column) *HotScan {
	return &HotScan{ctx: ctx, cols: cols}
}

// Next emits the next non-empty column as a single-tick Sure batch.
func (h *HotScan) Next() (*Batch, bool) {
	if h.err != nil {
		return nil, false
	}
	for h.i < len(h.cols) {
		if h.err = h.ctx.Err(); h.err != nil {
			return nil, false
		}
		c := h.cols[h.i]
		h.i++
		if len(c.IDs) == 0 {
			continue
		}
		h.tick[0] = c.Tick
		h.ids[0] = c.IDs
		h.out = Batch{Ticks: h.tick[:], IDs: h.ids[:], Sure: true}
		return &h.out, true
	}
	return nil, false
}

func (h *HotScan) Err() error { return h.err }
