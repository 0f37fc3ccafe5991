package index

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ppqtraj/internal/cache"
	"ppqtraj/internal/geo"
	"ppqtraj/internal/traj"
)

// scanTestTPI builds a TPI over a few dozen ticks of drifting clusters —
// enough to span multiple periods, cache chunks, and sparse cells.
func scanTestTPI(t *testing.T, withCache bool, seal bool) *TPI {
	t.Helper()
	tpi := NewTPI(Options{EpsS: 2, GC: 0.25, EpsC: 0.5, EpsD: 0.5, Seed: 9})
	rng := rand.New(rand.NewSource(4))
	for tick := 3; tick < 40; tick++ {
		if tick%7 == 0 {
			continue // leave holes in the tick axis
		}
		drift := float64(tick) * 0.05
		pts := clusterPoints(rng, []geo.Point{geo.Pt(drift, 0), geo.Pt(10-drift, 10)}, 20, 0.4)
		tpi.Append(idsSeq(len(pts)), pts, tick)
	}
	if seal {
		if err := tpi.Seal(); err != nil {
			t.Fatal(err)
		}
		if withCache {
			tpi.SetCache(cache.New(4<<20), 1)
		}
	}
	return tpi
}

// TestScanRangeMatchesPerTickLookupArea checks the range scan (a
// drained RangeCursor) against its per-tick reference: the postings it
// emits for every tick of the span equal LookupArea's at that tick, on
// raw, sealed, and cached indexes across random areas and spans.
func TestScanRangeMatchesPerTickLookupArea(t *testing.T) {
	for _, cfg := range []struct {
		name            string
		withCache, seal bool
	}{{"raw", false, false}, {"sealed", false, true}, {"sealed+cache", true, true}} {
		t.Run(cfg.name, func(t *testing.T) {
			tpi := scanTestTPI(t, cfg.withCache, cfg.seal)
			rng := rand.New(rand.NewSource(12))
			for trial := 0; trial < 30; trial++ {
				cx, cy := rng.Float64()*12-1, rng.Float64()*12-1
				w := 0.3 + rng.Float64()*3
				area := geo.Rect{MinX: cx, MinY: cy, MaxX: cx + w, MaxY: cy + w}
				from := rng.Intn(45) - 2
				to := from + rng.Intn(45)
				got, _, _ := collectCursor(tpi, area, from, to, nil)
				want := make(map[int][]traj.ID)
				for tick := from; tick <= to; tick++ {
					if ids := tpi.LookupArea(area, tick, nil); len(ids) > 0 {
						want[tick] = ids
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("area %v span %d..%d:\nscan    %v\npertick %v", area, from, to, got, want)
				}
			}
		})
	}
}

// TestScanRangeTickRangePruning checks the cell-level zone map: cells
// whose posting tick range misses the span are skipped before decode.
func TestScanRangeTickRangePruning(t *testing.T) {
	tpi := scanTestTPI(t, false, true)
	// A span with no data at all: every populated cell is pruned by its
	// tick range, nothing is scanned.
	got, st, _ := collectCursor(tpi, geo.Rect{MinX: -5, MinY: -5, MaxX: 15, MaxY: 15}, 100, 140, nil)
	if len(got) != 0 {
		t.Fatalf("scan past the data returned %v", got)
	}
	if st.CellsScanned != 0 {
		t.Fatalf("expected zero cells scanned, got %+v", st)
	}
	// The early ticks live in the early periods only; scanning them must
	// not walk cells populated exclusively later. (Cells are per period,
	// so the late periods' regions contribute skips or nothing.)
	_, st, _ = collectCursor(tpi, geo.Rect{MinX: -5, MinY: -5, MaxX: 15, MaxY: 15}, 3, 4, nil)
	if st.CellsScanned == 0 {
		t.Fatalf("expected some cells scanned over populated ticks, got %+v", st)
	}
}

// TestScanRangeVisitVeto checks the visit hook's per-cell granularity:
// vetoing the cells on either side of a line partitions the scan — each
// half emits only its own cells, the halves' rows add up to the full
// scan's, and each vetoed cell moves from scanned to skipped.
func TestScanRangeVisitVeto(t *testing.T) {
	tpi := scanTestTPI(t, false, true)
	area := geo.Rect{MinX: -5, MinY: -5, MaxX: 15, MaxY: 15}
	scan := func(keep func(cell geo.Rect) bool) (rows int, st ScanStats) {
		cur := tpi.RangeCursor(area, 0, 50, &st, keep)
		for {
			cs, ok := cur.Next()
			if !ok {
				return rows, st
			}
			if keep != nil && !keep(cs.Cell) {
				t.Fatalf("vetoed cell %v emitted", cs.Cell)
			}
			for _, ids := range cs.IDs {
				rows += len(ids)
			}
		}
	}
	const line = 4.0
	allRows, all := scan(nil)
	eastRows, east := scan(func(c geo.Rect) bool { return c.MaxX > line })
	westRows, west := scan(func(c geo.Rect) bool { return c.MaxX <= line })
	if eastRows == 0 || westRows == 0 || eastRows+westRows != allRows {
		t.Fatalf("rows: east %d + west %d vs all %d", eastRows, westRows, allRows)
	}
	if east.CellsScanned+west.CellsScanned != all.CellsScanned ||
		east.CellsSkipped != all.CellsSkipped+west.CellsScanned {
		t.Fatalf("stats: east %+v west %+v all %+v", east, west, all)
	}
	none, st := scan(func(geo.Rect) bool { return false })
	if none != 0 || st.CellsScanned != 0 || st.CellsSkipped != all.CellsScanned+all.CellsSkipped {
		t.Fatalf("vetoing visit still scanned: rows=%d stats=%+v", none, st)
	}
}

// TestScanRangeAbort checks a scan abandoned mid-walk leaves the cursor
// reusable: Reset re-aims it (the pooled-pipeline path after an early
// Close or a spent Limit) and the next drain is the full answer.
func TestScanRangeAbort(t *testing.T) {
	tpi := scanTestTPI(t, false, true)
	area := geo.Rect{MinX: -5, MinY: -5, MaxX: 15, MaxY: 15}
	want, wantSt, _ := collectCursor(tpi, area, 0, 50, nil)
	var st ScanStats
	cur := tpi.RangeCursor(area, 0, 50, &st, nil)
	for i := 0; i < 3; i++ {
		if _, ok := cur.Next(); !ok {
			t.Fatal("scan ended before the abort point")
		}
	}
	st = ScanStats{}
	cur.Reset(tpi, area, 0, 50, &st, nil)
	got := make(map[int][]traj.ID)
	for {
		cs, ok := cur.Next()
		if !ok {
			break
		}
		for i, tick := range cs.Ticks {
			got[tick] = append(got[tick], cs.IDs[i]...)
		}
	}
	for tick, ids := range got {
		slices.Sort(ids)
		got[tick] = traj.DedupSorted(ids)
	}
	if !reflect.DeepEqual(got, want) || st.CellsScanned != wantSt.CellsScanned || st.CellsSkipped != wantSt.CellsSkipped {
		t.Fatalf("reset after abort: stats %+v vs %+v, postings equal=%v", st, wantSt, reflect.DeepEqual(got, want))
	}
}

func TestAppendLookupAreaReusesBuffer(t *testing.T) {
	tpi := scanTestTPI(t, false, true)
	area := geo.Rect{MinX: -1, MinY: -1, MaxX: 1, MaxY: 1}
	fresh := tpi.LookupArea(area, 3, nil)
	buf := make([]traj.ID, 0, 1024)
	buf = append(buf, 7777) // pre-existing content must survive
	out := tpi.AppendLookupArea(buf, area, 3, nil)
	if out[0] != 7777 {
		t.Fatalf("prefix clobbered: %v", out[:1])
	}
	if !reflect.DeepEqual(out[1:], fresh) {
		t.Fatalf("append form differs: %v vs %v", out[1:], fresh)
	}
	if &out[0] != &buf[0] {
		t.Fatal("append form reallocated despite sufficient capacity")
	}
}

func TestCoveredTicks(t *testing.T) {
	tpi := scanTestTPI(t, false, true)
	for _, sp := range [][2]int{{0, 50}, {3, 3}, {6, 8}, {41, 60}, {-5, 2}} {
		want := 0
		for tick := sp[0]; tick <= sp[1]; tick++ {
			if tpi.PeriodOf(tick) != nil {
				want++
			}
		}
		if got := tpi.CoveredTicks(sp[0], sp[1]); got != want {
			t.Fatalf("CoveredTicks(%d, %d) = %d, want %d", sp[0], sp[1], got, want)
		}
	}
}

func TestPopulatedCellsCoverData(t *testing.T) {
	tpi := scanTestTPI(t, false, true)
	var cells []geo.Rect
	lo, hi := 1<<30, -(1 << 30)
	tpi.PopulatedCells(func(cell geo.Rect, tickLo, tickHi int) {
		cells = append(cells, cell)
		if tickLo < lo {
			lo = tickLo
		}
		if tickHi > hi {
			hi = tickHi
		}
	})
	if len(cells) == 0 {
		t.Fatal("no populated cells emitted")
	}
	if lo != 3 || hi != 39 {
		t.Fatalf("tick range %d..%d, want 3..39", lo, hi)
	}
	// Every indexed position must fall inside some emitted cell: probe a
	// few lookups and check their cell rect appears.
	ids, cellRect, ok := tpi.Lookup(geo.Pt(0.15+0.05*3, 0), 3)
	_ = ids
	if ok {
		found := false
		for _, c := range cells {
			if c == cellRect || c.Intersects(cellRect) {
				found = true
				break
			}
		}
		if !found && !cellRect.Empty() {
			t.Fatalf("lookup cell %v not among populated cells", cellRect)
		}
	}
}
