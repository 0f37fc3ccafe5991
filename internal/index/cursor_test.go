package index

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ppqtraj/internal/geo"
	"ppqtraj/internal/traj"
)

// collectCursor drains a RangeCursor into sorted, deduplicated per-tick
// ID sets, plus its scan accounting and the per-cell batch count.
func collectCursor(tpi *TPI, area geo.Rect, from, to int, visit func(geo.Rect) bool) (map[int][]traj.ID, ScanStats, int) {
	var st ScanStats
	got := make(map[int][]traj.ID)
	cur := tpi.RangeCursor(area, from, to, &st, visit)
	cells := 0
	for {
		cs, ok := cur.Next()
		if !ok {
			break
		}
		cells++
		if len(cs.Ticks) != len(cs.IDs) {
			panic("cursor batch shape mismatch")
		}
		for i, tick := range cs.Ticks {
			got[tick] = append(got[tick], cs.IDs[i]...)
		}
	}
	for tick, ids := range got {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		got[tick] = traj.DedupSorted(ids)
	}
	return got, st, cells
}

// bruteScanStats counts by brute force the cells a scan of area over
// [from, to] must walk and skip: every populated cell of every region
// intersecting area, in the region's cell range of area, per period
// overlapping the span — scanned when its first..last posting ticks meet
// the period-clipped span, skipped otherwise. It enumerates the regions'
// cell maps directly, independent of the sealed directory's band walk.
func bruteScanStats(tpi *TPI, area geo.Rect, from, to int) (scanned, skipped int) {
	for _, p := range tpi.Periods {
		lo, hi := max(from, p.Start), min(to, p.End)
		if lo > hi {
			continue
		}
		for _, r := range p.PI.Regions {
			if !r.Rect.Intersects(area) {
				continue
			}
			x0, y0, x1, y1 := r.cellRange(area)
			for k, ci := range r.cells {
				if k.X < x0 || k.X > x1 || k.Y < y0 || k.Y > y1 {
					continue
				}
				if p.PI.cellMayOverlap(r.cellPtr(ci), lo, hi) {
					scanned++
				} else {
					skipped++
				}
			}
		}
	}
	return scanned, skipped
}

// TestRangeCursorMatchesScanRange checks the drained cursor's cell
// accounting against a brute-force scan of the range's populated cells
// on raw, sealed, and cached indexes across random areas/spans, and that
// a repeated cached scan touches the same chunks, all hits.
func TestRangeCursorMatchesScanRange(t *testing.T) {
	for _, cfg := range []struct {
		name            string
		withCache, seal bool
	}{{"raw", false, false}, {"sealed", false, true}, {"sealed+cache", true, true}} {
		t.Run(cfg.name, func(t *testing.T) {
			tpi := scanTestTPI(t, cfg.withCache, cfg.seal)
			rng := rand.New(rand.NewSource(31))
			for trial := 0; trial < 200; trial++ {
				cx, cy := rng.Float64()*12-1, rng.Float64()*12-1
				w := 0.3 + rng.Float64()*3
				area := geo.Rect{MinX: cx, MinY: cy, MaxX: cx + w, MaxY: cy + w}
				from := rng.Intn(45) - 2
				to := from + rng.Intn(45)
				got, st, cells := collectCursor(tpi, area, from, to, nil)
				scanned, skipped := bruteScanStats(tpi, area, from, to)
				if st.CellsScanned != scanned || st.CellsSkipped != skipped {
					t.Fatalf("area %v span %d..%d: scanned/skipped %d/%d, brute force %d/%d",
						area, from, to, st.CellsScanned, st.CellsSkipped, scanned, skipped)
				}
				if cells > st.CellsScanned {
					t.Fatalf("%d batches from %d scanned cells", cells, st.CellsScanned)
				}
				if !cfg.withCache {
					continue
				}
				again, st2, _ := collectCursor(tpi, area, from, to, nil)
				if !reflect.DeepEqual(again, got) || st2.CacheMisses != 0 ||
					st2.CacheHits != st.CacheHits+st.CacheMisses {
					t.Fatalf("warm rescan: stats %+v after cold %+v", st2, st)
				}
			}
		})
	}
}

// TestRangeCursorVisitVeto checks a vetoing visit callback skips every
// cell before any decode.
func TestRangeCursorVisitVeto(t *testing.T) {
	tpi := scanTestTPI(t, false, true)
	area := geo.Rect{MinX: -5, MinY: -5, MaxX: 15, MaxY: 15}
	got, st, cells := collectCursor(tpi, area, 0, 50, func(geo.Rect) bool { return false })
	if len(got) != 0 || cells != 0 || st.CellsScanned != 0 || st.CellsSkipped == 0 {
		t.Fatalf("vetoing visit still scanned: batches=%d stats=%+v", cells, st)
	}
}

// TestRangeCursorAbandon checks laziness: stopping after the first pull
// must leave the remaining cells undecoded (stats stop accumulating).
func TestRangeCursorAbandon(t *testing.T) {
	tpi := scanTestTPI(t, false, true)
	area := geo.Rect{MinX: -5, MinY: -5, MaxX: 15, MaxY: 15}
	_, full, _ := collectCursor(tpi, area, 0, 50, nil)
	if full.CellsScanned < 2 {
		t.Skipf("need ≥2 scanned cells for the laziness check, got %+v", full)
	}
	var st ScanStats
	cur := tpi.RangeCursor(area, 0, 50, &st, nil)
	if _, ok := cur.Next(); !ok {
		t.Fatal("first pull returned nothing")
	}
	if st.CellsScanned >= full.CellsScanned {
		t.Fatalf("one pull scanned all %d cells — cursor is not lazy", st.CellsScanned)
	}
}

// TestRangeCursorTicksAscend checks the per-batch contract: ticks within
// one cell batch ascend and fall inside the requested span.
func TestRangeCursorTicksAscend(t *testing.T) {
	for _, withCache := range []bool{false, true} {
		tpi := scanTestTPI(t, withCache, true)
		var st ScanStats
		cur := tpi.RangeCursor(geo.Rect{MinX: -5, MinY: -5, MaxX: 15, MaxY: 15}, 5, 30, &st, nil)
		for {
			cs, ok := cur.Next()
			if !ok {
				break
			}
			if len(cs.Ticks) == 0 {
				t.Fatal("empty batch emitted")
			}
			for i, tick := range cs.Ticks {
				if tick < 5 || tick > 30 {
					t.Fatalf("tick %d outside span", tick)
				}
				if i > 0 && cs.Ticks[i-1] >= tick {
					t.Fatalf("ticks not ascending: %v", cs.Ticks)
				}
				if len(cs.IDs[i]) == 0 {
					t.Fatalf("empty posting emitted at tick %d", tick)
				}
			}
		}
	}
}
