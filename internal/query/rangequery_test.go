package query

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"ppqtraj/internal/cache"
	"ppqtraj/internal/core"
	"ppqtraj/internal/exec"
	"ppqtraj/internal/gen"
	"ppqtraj/internal/geo"
	"ppqtraj/internal/index"
	"ppqtraj/internal/partition"
	"ppqtraj/internal/traj"
)

// rangeTestEngine builds an engine over a staggered synthetic workload
// whose ticks span several index periods and cache chunks.
func rangeTestEngine(t testing.TB, withCache bool) (*Engine, *traj.Dataset) {
	t.Helper()
	d := gen.Porto(gen.Config{NumTrajectories: 70, MinLen: 30, MaxLen: 60, Horizon: 40, Seed: 5})
	opts := core.DefaultOptions(partition.Spatial, 0.1)
	opts.Seed = 3
	sum := core.Build(d, opts)
	e, err := BuildEngine(sum, index.Options{
		EpsS: 0.1, GC: geo.MetersToDegrees(100), EpsC: 0.5, EpsD: 0.5, Seed: 3,
	}, d)
	if err != nil {
		t.Fatal(err)
	}
	if withCache {
		e.Idx.SetCache(cache.New(8<<20), 1)
	}
	return e, d
}

// perTickIDs answers [from, to] with per-tick STRQRect probes — the
// reference the range pipeline must match point for point.
func perTickIDs(t *testing.T, e *Engine, rect geo.Rect, from, to int, exact bool) map[int][]traj.ID {
	t.Helper()
	out := make(map[int][]traj.ID)
	for tick := from; tick <= to; tick++ {
		res, err := e.STRQRect(context.Background(), rect, tick, exact, nil)
		if err != nil {
			t.Fatalf("STRQRect tick %d: %v", tick, err)
		}
		if len(res.IDs) > 0 {
			out[tick] = res.IDs
		}
	}
	return out
}

// rangeCols answers [from, to] over the engine with the window plan's
// per-segment pipeline (exec.OpenScanPipe drained by exec.Collect, or by
// exec.ExactVerify in exact mode) — the range form of STRQRect, keyed by
// tick like perTickIDs.
func rangeCols(ctx context.Context, e *Engine, rect geo.Rect, from, to int, exact bool) (map[int][]traj.ID, *exec.CollectResult, error) {
	var st index.ScanStats
	var rows int64
	pipe := exec.OpenScanPipe(ctx, e.Idx, e.Sum, exec.Classifier{Rect: rect, Margin: e.Margin()}, from, to, &st, &rows, nil)
	defer pipe.Close()
	var (
		res *exec.CollectResult
		err error
	)
	switch {
	case !exact:
		res, err = exec.Collect(pipe.Iterator(), from, to)
	case e.Raw == nil:
		res, err = exec.ExactVerify(ctx, pipe.Iterator(), nil, rect, from, to, &e.RawAccesses)
	default:
		res, err = exec.ExactVerify(ctx, pipe.Iterator(), e.Raw, rect, from, to, &e.RawAccesses)
	}
	if err != nil {
		return nil, nil, err
	}
	out := make(map[int][]traj.ID)
	for _, col := range res.Cols {
		out[col.Tick] = col.IDs
	}
	return out, res, nil
}

// TestSTRQRangeMatchesPerTick checks a multi-tick STRQ answered by one
// range pipeline over a quantized engine against per-tick STRQRect
// point for point, with and without the decoded-cell cache, in both
// modes; exact answers are also ground truth.
func TestSTRQRangeMatchesPerTick(t *testing.T) {
	for _, withCache := range []bool{false, true} {
		e, d := rangeTestEngine(t, withCache)
		rng := rand.New(rand.NewSource(99))
		gc := geo.MetersToDegrees(100)
		ticks := e.Sum.SortedTicks()
		for trial := 0; trial < 40; trial++ {
			// Rects anchored on data positions so probes hit populated
			// cells; size sweeps from sub-cell to several cells.
			tr := d.Get(traj.ID(rng.Intn(d.Len())))
			p := tr.Points[rng.Intn(len(tr.Points))]
			w := gc * (0.5 + 3*rng.Float64())
			rect := geo.Rect{MinX: p.X - w/2, MinY: p.Y - w/2, MaxX: p.X + w/2, MaxY: p.Y + w/2}
			from := ticks[rng.Intn(len(ticks))] - 3 + rng.Intn(6)
			to := from + rng.Intn(40)
			for _, exact := range []bool{false, true} {
				got, _, err := rangeCols(context.Background(), e, rect, from, to, exact)
				if err != nil {
					t.Fatalf("range(%v, %d..%d, exact=%v): %v", rect, from, to, exact, err)
				}
				if want := perTickIDs(t, e, rect, from, to, exact); !reflect.DeepEqual(got, want) {
					t.Fatalf("cache=%v exact=%v rect %v span %d..%d:\nrange   %v\npertick %v",
						withCache, exact, rect, from, to, got, want)
				}
				if !exact {
					continue
				}
				for tick := from; tick <= to; tick++ {
					if truth := GroundTruth(d, rect, tick); (len(truth) > 0 || len(got[tick]) > 0) && !reflect.DeepEqual(got[tick], truth) {
						t.Fatalf("tick %d: exact range %v vs ground truth %v", tick, got[tick], truth)
					}
				}
			}
		}
	}
}

// TestSTRQRangeCoveredTicksAndEmptySpans checks the span edges: a span
// past the data covers nothing and finds nothing, CoveredTicks agrees
// with the per-tick Covered flags, and an inverted span is a no-op.
func TestSTRQRangeCoveredTicksAndEmptySpans(t *testing.T) {
	e, _ := rangeTestEngine(t, false)
	ctx := context.Background()
	rect := geo.Rect{MinX: -9, MinY: 41, MaxX: -8, MaxY: 42}
	ticks := e.Sum.SortedTicks()
	last := ticks[len(ticks)-1]
	if got, _, err := rangeCols(ctx, e, rect, last+10, last+20, false); err != nil || len(got) != 0 || e.Idx.CoveredTicks(last+10, last+20) != 0 {
		t.Fatalf("past-the-end span: %v %v covered %d", got, err, e.Idx.CoveredTicks(last+10, last+20))
	}
	from, to := ticks[0]-5, last+5
	covered := 0
	for tick := from; tick <= to; tick++ {
		r, err := e.STRQRect(ctx, rect, tick, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.Covered {
			covered++
		}
	}
	if got := e.Idx.CoveredTicks(from, to); got != covered {
		t.Fatalf("CoveredTicks %d, per-tick Covered count %d", got, covered)
	}
	if got, _, err := rangeCols(ctx, e, rect, 10, 5, false); err != nil || len(got) != 0 {
		t.Fatalf("inverted span: %v %v", got, err)
	}
}

// TestSTRQRangeNoRaw checks exact range verification without raw storage
// fails with ErrNoRaw, and that with raw attached a span with no covered
// ticks never touches it.
func TestSTRQRangeNoRaw(t *testing.T) {
	e, _ := rangeTestEngine(t, false)
	ctx := context.Background()
	rect := geo.Rect{MinX: -9, MinY: 41, MaxX: -8, MaxY: 42}
	ticks := e.Sum.SortedTicks()
	last := ticks[len(ticks)-1]
	before := e.RawAccesses.Load()
	if _, res, err := rangeCols(ctx, e, rect, last+5, last+9, true); err != nil || res.Visited != 0 || e.RawAccesses.Load() != before {
		t.Fatalf("uncovered exact span: %+v %v, raw accesses %d -> %d", res, err, before, e.RawAccesses.Load())
	}
	e.Raw = nil
	if _, _, err := rangeCols(ctx, e, rect, ticks[0], ticks[0]+5, true); !errors.Is(err, exec.ErrNoRaw) {
		t.Fatalf("exact without raw: err = %v, want ErrNoRaw", err)
	}
}

// TestSTRQRangeCancellation checks a cancelled context aborts the range
// pipeline with the context error.
func TestSTRQRangeCancellation(t *testing.T) {
	e, _ := rangeTestEngine(t, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ticks := e.Sum.SortedTicks()
	if _, _, err := rangeCols(ctx, e, geo.Rect{MinX: -9, MinY: 41, MaxX: -8, MaxY: 42}, ticks[0], ticks[0]+30, false); err != context.Canceled {
		t.Fatalf("cancelled range scan: err = %v, want context.Canceled", err)
	}
}
