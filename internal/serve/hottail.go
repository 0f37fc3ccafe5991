package serve

import (
	"fmt"
	"sort"
	"sync"

	"ppqtraj/internal/geo"
	"ppqtraj/internal/obs"
	"ppqtraj/internal/traj"
)

// hotCol is one tick's ingested points, parallel slices sorted by ID —
// the mutable mirror of traj.Column.
type hotCol struct {
	ids []traj.ID
	pts []geo.Point
}

// find returns the slot of id in the (ID-sorted) column, or (-1, false).
func (c *hotCol) find(id traj.ID) (int, bool) {
	i := sort.Search(len(c.ids), func(i int) bool { return c.ids[i] >= id })
	if i < len(c.ids) && c.ids[i] == id {
		return i, true
	}
	return -1, false
}

// hotTail is the repository's mutable tier: freshly ingested points kept
// raw (exact, no quantization) and directly queryable, until the
// compactor drains them into a sealed segment. Ingest, freeze, and trim
// take the write lock; the *Locked query methods run under a read lock
// the caller holds (Repository.pin), everything else locks itself.
//
// Lock order: mu before Repository.mu, never the reverse. A read that
// reaches above the sealed watermark holds mu.RLock while it takes the
// routing view (Repository.view, under Repository.mu.RLock), so the
// watermark it routes by and the columns it scans belong to one instant.
// The order is deadlock-free because no path holds Repository.mu while
// acquiring mu: the compactor publishes a segment and its watermark
// under Repository.mu, releases it, and only then trims here, and
// ingest, freeze, and snapshot take mu alone.
type hotTail struct {
	mu       sync.RWMutex
	cols     map[int]*hotCol
	lastSeen map[traj.ID]int // last ingested tick per trajectory
	points   int
	floor    int // sealed/frozen watermark: ingest must land strictly above
}

func newHotTail() *hotTail {
	return &hotTail{
		cols:     make(map[int]*hotCol),
		lastSeen: make(map[traj.ID]int),
		floor:    -1,
	}
}

// freeze raises the ingest floor to bound: once it returns, no future
// ingest can land at tick ≤ bound, so a snapshot(bound) taken afterwards
// is complete forever — the compactor's correctness invariant.
func (h *hotTail) freeze(bound int) {
	h.mu.Lock()
	if bound > h.floor {
		h.floor = bound
	}
	h.mu.Unlock()
}

// ingest merges one tick of points. Every point must land strictly above
// the sealed/frozen watermark, and a trajectory already live above the
// watermark must continue contiguously (gaps would corrupt the
// per-trajectory entry indexing of the segment the compactor later
// builds). Validation runs before any mutation, so a rejected column
// leaves the tail untouched.
//
// logged, when non-nil, runs after validation and before any mutation —
// the repository's write-ahead hook. Running it under the tail's lock
// pins the WAL's append order to the tail's application order, which is
// what lets a crash replay reproduce this exact state; a logged error
// aborts the ingest with the tail untouched.
//
// tr (nil-safe) receives the validate and apply stage laps; the logged
// hook laps its own wal_append in between, so the three stages partition
// the tail's critical section.
func (h *hotTail) ingest(tick int, ids []traj.ID, pts []geo.Point, logged func() error, tr *obs.Trace) error {
	if len(ids) != len(pts) {
		return fmt.Errorf("serve: ingest tick %d: %d ids vs %d points", tick, len(ids), len(pts))
	}
	if len(ids) == 0 {
		return nil // a pointless empty batch must not register the tick
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	floor := h.floor
	if tick <= floor {
		return fmt.Errorf("serve: ingest tick %d at or below sealed watermark %d", tick, floor)
	}
	var inBatch map[traj.ID]struct{}
	if len(ids) > 1 {
		inBatch = make(map[traj.ID]struct{}, len(ids))
	}
	for i, id := range ids {
		if !pts[i].IsFinite() {
			return fmt.Errorf("serve: non-finite position %v for trajectory %d at tick %d", pts[i], id, tick)
		}
		if last, ok := h.lastSeen[id]; ok && last > floor {
			if tick <= last {
				return fmt.Errorf("serve: trajectory %d already has a point at tick %d (last %d)", id, tick, last)
			}
			if tick != last+1 {
				return fmt.Errorf("serve: trajectory %d skips ticks %d..%d (sampling must be contiguous)", id, last+1, tick-1)
			}
		}
		if inBatch != nil {
			if _, dup := inBatch[id]; dup {
				return fmt.Errorf("serve: trajectory %d appears twice in the tick-%d batch", id, tick)
			}
			inBatch[id] = struct{}{}
		}
	}
	tr.Lap("validate")
	if logged != nil {
		if err := logged(); err != nil {
			return err
		}
	}
	col := h.cols[tick]
	if col == nil {
		col = &hotCol{}
		h.cols[tick] = col
	}
	// Append the whole batch, then restore ID order with one sort: IDs are
	// unique per (tick) by the checks above, and a single O(n log n) pass
	// beats per-point sorted inserts for arbitrary HTTP payloads. The sort
	// is skipped when the column is already ordered (the common case:
	// ID-sorted columns arriving one batch per tick).
	wasSorted := sort.SliceIsSorted(ids, func(a, b int) bool { return ids[a] < ids[b] })
	prevLen := len(col.ids)
	col.ids = append(col.ids, ids...)
	col.pts = append(col.pts, pts...)
	if !wasSorted || (prevLen > 0 && col.ids[prevLen-1] >= col.ids[prevLen]) {
		sort.Sort((*hotColSort)(col))
	}
	for _, id := range ids {
		h.lastSeen[id] = tick
	}
	h.points += len(ids)
	tr.Lap("apply")
	return nil
}

// hotColSort sorts a column's parallel slices by ID.
type hotColSort hotCol

func (c *hotColSort) Len() int           { return len(c.ids) }
func (c *hotColSort) Less(i, j int) bool { return c.ids[i] < c.ids[j] }
func (c *hotColSort) Swap(i, j int) {
	c.ids[i], c.ids[j] = c.ids[j], c.ids[i]
	c.pts[i], c.pts[j] = c.pts[j], c.pts[i]
}

// numPoints returns the live point count.
func (h *hotTail) numPoints() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.points
}

// tickSpan returns the min/max resident tick (ok=false when empty).
func (h *hotTail) tickSpan() (lo, hi int, ok bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.tickSpanLocked()
}

func (h *hotTail) tickSpanLocked() (lo, hi int, ok bool) {
	for t := range h.cols {
		if !ok {
			lo, hi, ok = t, t, true
			continue
		}
		if t < lo {
			lo = t
		}
		if t > hi {
			hi = t
		}
	}
	return lo, hi, ok
}

// snapshot copies every column with tick ≤ bound, ascending — the
// compactor's input. The copies are private, so the builder can run
// without holding any hot-tail lock while the original columns stay
// queryable until trim.
func (h *hotTail) snapshot(bound int) []*traj.Column {
	h.mu.RLock()
	defer h.mu.RUnlock()
	ticks := make([]int, 0, len(h.cols))
	for t := range h.cols {
		if t <= bound {
			ticks = append(ticks, t)
		}
	}
	sort.Ints(ticks)
	out := make([]*traj.Column, 0, len(ticks))
	for _, t := range ticks {
		c := h.cols[t]
		out = append(out, &traj.Column{
			Tick:   t,
			IDs:    append([]traj.ID(nil), c.ids...),
			Points: append([]geo.Point(nil), c.pts...),
		})
	}
	return out
}

// trim drops every column with tick ≤ bound (they are now served by a
// sealed segment), along with the lastSeen entries that can no longer
// influence admission — the contiguity check only consults entries above
// the floor, so keeping older ones would just leak memory as the ID
// population rotates.
func (h *hotTail) trim(bound int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for t, c := range h.cols {
		if t <= bound {
			h.points -= len(c.ids)
			delete(h.cols, t)
		}
	}
	for id, last := range h.lastSeen {
		if last <= h.floor {
			delete(h.lastSeen, id)
		}
	}
}

// strqRectLocked answers the exact rectangle query over raw hot points:
// IDs whose ingested position at tick lies inside rect. Hot data is
// unquantized, so approximate and exact mode coincide and both have
// precision and recall 1. The caller holds h.mu.RLock.
func (h *hotTail) strqRectLocked(rect geo.Rect, tick int) (ids []traj.ID, covered bool) {
	col := h.cols[tick]
	if col == nil {
		return nil, false
	}
	for i, id := range col.ids {
		if rect.Contains(col.pts[i]) {
			ids = append(ids, id)
		}
	}
	return ids, true
}

// hotScanCol is one tick's hot-tail answer inside a range scan.
type hotScanCol struct {
	tick int
	ids  []traj.ID
}

// scanRangeLocked answers the exact rectangle query for every resident
// tick of [from, to] — the hot half of the repository's window query.
// It returns the non-empty per-tick matches (IDs ascending, fresh
// slices, so they outlive the lock), the number of resident ticks probed
// (the Covered count a per-tick loop would have seen), and whether the
// span overlapped the tail's resident tick range at all (the planner's
// "sources" accounting, which counts overlap, not residency). The caller
// holds h.mu.RLock.
func (h *hotTail) scanRangeLocked(rect geo.Rect, from, to int) (cols []hotScanCol, covered int, overlaps bool) {
	lo, hi, ok := h.tickSpanLocked()
	if !ok {
		return nil, 0, false
	}
	from, to = max(from, lo), min(to, hi)
	overlaps = from <= to
	for t := from; t <= to; t++ {
		col := h.cols[t]
		if col == nil {
			continue
		}
		covered++
		var ids []traj.ID
		for i, id := range col.ids {
			if rect.Contains(col.pts[i]) {
				ids = append(ids, id)
			}
		}
		if len(ids) > 0 {
			cols = append(cols, hotScanCol{tick: t, ids: ids})
		}
	}
	return cols, covered, overlaps
}

// pathLocked collects id's raw positions over ticks [from, from+l), in
// tick order, stopping at the first tick where the trajectory is absent
// after having been present (positions are contiguous by the ingest
// contract). The caller holds h.mu.RLock.
func (h *hotTail) pathLocked(id traj.ID, from, l int) (pts []geo.Point, start int) {
	start = from
	for t := from; t < from+l; t++ {
		col := h.cols[t]
		var p geo.Point
		ok := false
		if col != nil {
			var i int
			if i, ok = col.find(id); ok {
				p = col.pts[i]
			}
		}
		if !ok {
			if len(pts) > 0 {
				break
			}
			start = t + 1
			continue
		}
		pts = append(pts, p)
	}
	return pts, start
}
