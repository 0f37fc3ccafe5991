package exec

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ppqtraj/internal/cache"
	"ppqtraj/internal/geo"
	"ppqtraj/internal/index"
	"ppqtraj/internal/obs"
	"ppqtraj/internal/traj"
)

// testWorld is a dataset plus a TPI over its *exact* points, so the
// "reconstruction" is the raw position and brute-force answers are
// computable with plain geometry.
type testWorld struct {
	ds  *traj.Dataset
	idx *index.TPI
}

func (w *testWorld) ReconstructedPoint(id traj.ID, tick int) (geo.Point, bool) {
	tr, ok := w.ds.Lookup(id)
	if !ok {
		return geo.Point{}, false
	}
	return tr.At(tick)
}

func buildWorld(t *testing.T, withCache bool) *testWorld {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var trajs []*traj.Trajectory
	for i := 0; i < 60; i++ {
		start := rng.Intn(10)
		n := 20 + rng.Intn(25)
		p := geo.Pt(rng.Float64()*8, rng.Float64()*8)
		pts := make([]geo.Point, 0, n)
		for k := 0; k < n; k++ {
			p = p.Add(geo.Pt(rng.Float64()*0.3-0.15, rng.Float64()*0.3-0.15))
			pts = append(pts, p)
		}
		trajs = append(trajs, &traj.Trajectory{Start: start, Points: pts})
	}
	ds := traj.NewDataset(trajs)
	idx := index.NewTPI(index.Options{EpsS: 2, GC: 0.25, EpsC: 0.5, EpsD: 0.5, Seed: 3})
	for tick := 0; tick < ds.MaxTick(); tick++ {
		var ids []traj.ID
		var pts []geo.Point
		for _, tr := range ds.All() {
			if p, ok := tr.At(tick); ok {
				ids = append(ids, tr.ID)
				pts = append(pts, p)
			}
		}
		if len(ids) > 0 {
			idx.Append(ids, pts, tick)
		}
	}
	if err := idx.Seal(); err != nil {
		t.Fatal(err)
	}
	if withCache {
		idx.SetCache(cache.New(4<<20), 1)
	}
	return &testWorld{ds: ds, idx: idx}
}

// bruteCols computes the ground-truth per-tick columns directly from
// raw points: approximate mode keeps dist(p, rect) ≤ m+1e-12, exact
// mode keeps rect.Contains(p).
func bruteCols(ds *traj.Dataset, rect geo.Rect, m float64, from, to int, exact bool) []Column {
	var cols []Column
	for tick := from; tick <= to; tick++ {
		var ids []traj.ID
		for _, tr := range ds.All() {
			p, ok := tr.At(tick)
			if !ok {
				continue
			}
			if exact {
				if rect.Contains(p) {
					ids = append(ids, tr.ID)
				}
			} else if p.DistToRect(rect) <= m+1e-12 {
				ids = append(ids, tr.ID)
			}
		}
		if len(ids) > 0 {
			slices.Sort(ids)
			cols = append(cols, Column{Tick: tick, IDs: ids})
		}
	}
	return cols
}

func TestPipelineMatchesBruteForce(t *testing.T) {
	for _, withCache := range []bool{false, true} {
		w := buildWorld(t, withCache)
		rng := rand.New(rand.NewSource(99))
		ctx := context.Background()
		for trial := 0; trial < 25; trial++ {
			cx, cy := rng.Float64()*8, rng.Float64()*8
			s := 0.2 + rng.Float64()*1.5
			rect := geo.Rect{MinX: cx, MinY: cy, MaxX: cx + s, MaxY: cy + s}
			m := rng.Float64() * 0.4
			from := rng.Intn(40) - 2
			to := from + rng.Intn(45)
			cls := Classifier{Rect: rect, Margin: m}

			var st index.ScanStats
			it := Verify(ctx, NewSegmentScan(ctx, w.idx, cls, from, to, &st), w, cls)
			got, err := Collect(it, from, to)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteCols(w.ds, rect, m, from, to, false)
			if !reflect.DeepEqual(got.Cols, want) {
				t.Fatalf("approx rect %v m %.3f span %d..%d:\ngot  %v\nwant %v", rect, m, from, to, got.Cols, want)
			}

			var st2 index.ScanStats
			it2 := Verify(ctx, NewSegmentScan(ctx, w.idx, cls, from, to, &st2), w, cls)
			gotX, err := ExactVerify(ctx, it2, w.ds, rect, from, to, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantX := bruteCols(w.ds, rect, m, from, to, true)
			if !reflect.DeepEqual(gotX.Cols, wantX) {
				t.Fatalf("exact rect %v span %d..%d:\ngot  %v\nwant %v", rect, from, to, gotX.Cols, wantX)
			}
			if gotX.Candidates != got.Candidates {
				t.Fatalf("exact candidates %d != approx candidates %d", gotX.Candidates, got.Candidates)
			}
			// Visited must be the distinct-candidate count, not per tick.
			distinct := map[traj.ID]bool{}
			for _, c := range got.Cols {
				for _, id := range c.IDs {
					distinct[id] = true
				}
			}
			if gotX.Visited != len(distinct) {
				t.Fatalf("Visited = %d, want %d distinct candidates", gotX.Visited, len(distinct))
			}
		}
	}
}

func TestHotScan(t *testing.T) {
	ctx := context.Background()
	cols := []Column{
		{Tick: 5, IDs: []traj.ID{3, 7}},
		{Tick: 6, IDs: nil}, // empty columns are dropped
		{Tick: 7, IDs: []traj.ID{1}},
	}
	got, err := Collect(NewHotScan(ctx, cols), 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := []Column{{Tick: 5, IDs: []traj.ID{3, 7}}, {Tick: 7, IDs: []traj.ID{1}}}
	if !reflect.DeepEqual(got.Cols, want) {
		t.Fatalf("hot scan: %v", got.Cols)
	}
}

func TestCancelledContextStopsPipeline(t *testing.T) {
	w := buildWorld(t, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cls := Classifier{Rect: geo.Rect{MinX: 0, MinY: 0, MaxX: 8, MaxY: 8}, Margin: 0.2}
	var st index.ScanStats
	it := Verify(ctx, NewSegmentScan(ctx, w.idx, cls, 0, 50, &st), w, cls)
	if _, err := Collect(it, 0, 50); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestInstrument(t *testing.T) {
	ctx := context.Background()
	cols := []Column{{Tick: 1, IDs: []traj.ID{1, 2}}, {Tick: 2, IDs: []traj.ID{3}}}

	// nil trace: the wrapper must vanish.
	src := NewHotScan(ctx, cols)
	if it := Instrument(ctx, src, nil, "op_hot"); it != Iterator(src) {
		t.Fatal("nil trace did not pass the iterator through")
	}

	tr := obs.NewTrace()
	it := Instrument(ctx, NewHotScan(ctx, cols), tr, "op_hot")
	got, err := Collect(it, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cols) != 2 {
		t.Fatalf("cols: %v", got.Cols)
	}
	rep := tr.Report()
	if rep.Facts["op_hot_rows"] != 3 {
		t.Fatalf("facts: %v", rep.Facts)
	}
	if _, ok := tr.Stages()["op_hot"]; !ok {
		t.Fatalf("stages: %v", tr.Stages())
	}
}

func TestSplitSpan(t *testing.T) {
	ranges := []TickRange{{0, 9}, {10, 19}, {20, 29}, {40, 49}}
	var got [][3]int
	SplitSpan(5, 44, len(ranges), func(i int) TickRange { return ranges[i] },
		func(i int, r TickRange) { got = append(got, [3]int{i, r.Lo, r.Hi}) })
	want := [][3]int{{0, 5, 9}, {1, 10, 19}, {2, 20, 29}, {3, 40, 44}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("splits: %v", got)
	}
	got = nil
	SplitSpan(10, 5, len(ranges), func(i int) TickRange { return ranges[i] },
		func(i int, r TickRange) { got = append(got, [3]int{i, r.Lo, r.Hi}) })
	if got != nil {
		t.Fatalf("empty span still split: %v", got)
	}
}

func TestPlanOrdersAndPrunes(t *testing.T) {
	ordered, pruned := Plan([]Scan{
		{ID: 0, Span: TickRange{0, 9}, Score: 0.2},
		{ID: 1, Span: TickRange{10, 19}, Score: 0}, // zone-disjoint
		{ID: 2, Span: TickRange{20, 29}, Score: 0.9},
		{ID: 3, Span: TickRange{30, 29}, Score: 0.5}, // empty span
		{ID: 4, Span: TickRange{40, 49}, Score: 0.2}, // ties with 0 → ID order
	})
	var prunedIDs []int
	for _, s := range pruned {
		prunedIDs = append(prunedIDs, s.ID)
	}
	if !reflect.DeepEqual(prunedIDs, []int{1, 3}) {
		t.Fatalf("pruned: %v", pruned)
	}
	var ids []int
	for _, s := range ordered {
		ids = append(ids, s.ID)
	}
	if !reflect.DeepEqual(ids, []int{2, 0, 4}) {
		t.Fatalf("order: %v", ids)
	}
}
