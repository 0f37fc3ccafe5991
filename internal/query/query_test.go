package query

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"ppqtraj/internal/core"
	"ppqtraj/internal/gen"
	"ppqtraj/internal/geo"
	"ppqtraj/internal/index"
	"ppqtraj/internal/partition"
	"ppqtraj/internal/store"
	"ppqtraj/internal/traj"
)

// testEngine builds a small end-to-end engine over synthetic Porto data.
func testEngine(t testing.TB, useCQC bool) (*Engine, *traj.Dataset) {
	t.Helper()
	d := gen.Porto(gen.Config{NumTrajectories: 40, MinLen: 40, MaxLen: 70, Seed: 5})
	opts := core.DefaultOptions(partition.Spatial, 0.1)
	opts.UseCQC = useCQC
	sum := core.Build(d, opts)
	eng, err := BuildEngine(sum, index.Options{
		EpsS: 0.1,
		GC:   geo.MetersToDegrees(100),
		EpsC: 0.5,
		EpsD: 0.5,
		Seed: 6,
	}, d)
	if err != nil {
		t.Fatal(err)
	}
	return eng, d
}

func TestSTRQRecallIsOne(t *testing.T) {
	// The local-search guarantee (§5.2): every trajectory truly in the
	// query cell appears in the candidate list.
	eng, d := testEngine(t, true)
	rng := rand.New(rand.NewSource(1))
	queries := 0
	for queries < 300 {
		tr := d.Get(traj.ID(rng.Intn(d.Len())))
		tick := tr.Start + rng.Intn(tr.Len())
		qp, _ := tr.At(tick)
		res, _ := eng.STRQ(context.Background(), qp, tick, false, nil)
		if !res.Covered {
			continue
		}
		queries++
		want := GroundTruth(d, res.Cell, tick)
		_, recall := PrecisionRecall(res.IDs, want)
		if recall < 1 {
			t.Fatalf("recall %v < 1 at tick %d cell %v", recall, tick, res.Cell)
		}
	}
}

func TestSTRQExactPrecisionAndRecallOne(t *testing.T) {
	eng, d := testEngine(t, true)
	rng := rand.New(rand.NewSource(2))
	for q := 0; q < 200; q++ {
		tr := d.Get(traj.ID(rng.Intn(d.Len())))
		tick := tr.Start + rng.Intn(tr.Len())
		qp, _ := tr.At(tick)
		res, _ := eng.STRQ(context.Background(), qp, tick, true, nil)
		if !res.Covered {
			continue
		}
		want := GroundTruth(d, res.Cell, tick)
		p, r := PrecisionRecall(res.IDs, want)
		if p != 1 || r != 1 {
			t.Fatalf("exact mode: precision %v recall %v", p, r)
		}
		if res.Visited != res.Candidates {
			t.Fatalf("exact mode should visit every candidate: %d vs %d",
				res.Visited, res.Candidates)
		}
	}
	if eng.RawAccesses.Load() == 0 {
		t.Fatal("exact queries must access raw data")
	}
}

func TestSTRQCandidateListSmall(t *testing.T) {
	// The point of the index: candidates ≪ active trajectories.
	eng, d := testEngine(t, true)
	rng := rand.New(rand.NewSource(3))
	var cands, active int
	for q := 0; q < 100; q++ {
		tr := d.Get(traj.ID(rng.Intn(d.Len())))
		tick := tr.Start + rng.Intn(tr.Len())
		qp, _ := tr.At(tick)
		res, _ := eng.STRQ(context.Background(), qp, tick, false, nil)
		if !res.Covered {
			continue
		}
		cands += res.Candidates
		active += len(d.SortedIDs(tick))
	}
	if active == 0 {
		t.Fatal("no queries landed")
	}
	ratio := float64(cands) / float64(active)
	if ratio > 0.5 {
		t.Fatalf("candidate ratio %v too large — index not pruning", ratio)
	}
}

func TestSTRQUncoveredPoint(t *testing.T) {
	eng, _ := testEngine(t, true)
	res, _ := eng.STRQ(context.Background(), geo.Pt(0, 0), 10, false, nil) // far outside Porto
	if res.Covered || len(res.IDs) != 0 {
		t.Fatalf("uncovered query should be empty: %+v", res)
	}
}

func TestSTRQExactWithoutRawReturnsError(t *testing.T) {
	eng, d := testEngine(t, true)
	eng.Raw = nil
	tr := d.Get(0)
	qp, _ := tr.At(tr.Start)
	if _, err := eng.STRQ(context.Background(), qp, tr.Start, true, nil); !errors.Is(err, ErrNoRaw) {
		t.Fatalf("want ErrNoRaw, got %v", err)
	}
	if _, err := eng.TPQ(context.Background(), qp, tr.Start, 5, true, nil); !errors.Is(err, ErrNoRaw) {
		t.Fatalf("TPQ: want ErrNoRaw, got %v", err)
	}
}

func TestMarginSelection(t *testing.T) {
	withCQC, _ := testEngine(t, true)
	noCQC, _ := testEngine(t, false)
	// CQC margin is the Lemma 3 bound, far tighter than ε₁.
	if withCQC.Margin() >= noCQC.Margin() {
		t.Fatalf("CQC margin %v should be tighter than ε₁ margin %v",
			withCQC.Margin(), noCQC.Margin())
	}
	if noCQC.Margin() != 0.001 {
		t.Fatalf("non-CQC margin should be ε₁, got %v", noCQC.Margin())
	}
}

func TestTPQPathsBoundedDeviation(t *testing.T) {
	eng, d := testEngine(t, true)
	rng := rand.New(rand.NewSource(4))
	bound := eng.Sum.MaxDeviation() + 1e-12
	found := 0
	for q := 0; q < 100 && found < 30; q++ {
		tr := d.Get(traj.ID(rng.Intn(d.Len())))
		tick := tr.Start + rng.Intn(tr.Len()/2)
		qp, _ := tr.At(tick)
		res, _ := eng.TPQ(context.Background(), qp, tick, 10, false, nil)
		for id, path := range res.Paths {
			found++
			rtr := d.Get(id)
			lo := tick
			if lo < rtr.Start {
				lo = rtr.Start
			}
			for i, rp := range path {
				if op, ok := rtr.At(lo + i); ok {
					if rp.Dist(op) > bound {
						t.Fatalf("TPQ path deviation %v > bound", rp.Dist(op))
					}
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("no TPQ paths returned")
	}
}

func TestPathMAEMonotoneInLength(t *testing.T) {
	// Longer TPQ paths accumulate at-least-equal error on average
	// (Table 3's rising rows). Weak monotonicity checked on aggregate.
	eng, d := testEngine(t, false) // no CQC: visible error growth
	rng := rand.New(rand.NewSource(5))
	maeAt := func(l int) float64 {
		var sum float64
		n := 0
		for q := 0; q < 200; q++ {
			id := traj.ID(rng.Intn(d.Len()))
			tr := d.Get(id)
			if tr.Len() < l+5 {
				continue
			}
			tick := tr.Start + rng.Intn(tr.Len()-l-1)
			if mae, ok := eng.PathMAE(id, tick, l); ok {
				sum += mae
				n++
			}
		}
		if n == 0 {
			t.Fatal("no paths sampled")
		}
		return sum / float64(n)
	}
	short, long := maeAt(5), maeAt(40)
	if long < short*0.5 {
		t.Fatalf("long-path MAE %v should not be far below short-path %v", long, short)
	}
}

func TestPathMAEUnknownRange(t *testing.T) {
	eng, d := testEngine(t, true)
	tr := d.Get(0)
	if _, ok := eng.PathMAE(0, tr.End()+100, 10); ok {
		t.Fatal("out-of-range path should report !ok")
	}
}

func TestPrecisionRecallEdgeCases(t *testing.T) {
	p, r := PrecisionRecall(nil, nil)
	if p != 1 || r != 1 {
		t.Fatalf("empty/empty should be 1/1, got %v/%v", p, r)
	}
	p, r = PrecisionRecall([]traj.ID{1}, nil)
	if p != 0 || r != 1 {
		t.Fatalf("spurious-only: %v/%v", p, r)
	}
	p, r = PrecisionRecall(nil, []traj.ID{1})
	if p != 1 || r != 0 {
		t.Fatalf("missed-only: %v/%v", p, r)
	}
	p, r = PrecisionRecall([]traj.ID{1, 2}, []traj.ID{2, 3})
	if p != 0.5 || r != 0.5 {
		t.Fatalf("half/half: %v/%v", p, r)
	}
}

func TestGroundTruth(t *testing.T) {
	d := traj.NewDataset([]*traj.Trajectory{
		{Start: 0, Points: []geo.Point{geo.Pt(0.5, 0.5)}},
		{Start: 0, Points: []geo.Point{geo.Pt(5, 5)}},
		{Start: 1, Points: []geo.Point{geo.Pt(0.5, 0.5)}},
	})
	got := GroundTruth(d, geo.NewRect(0, 0, 1, 1), 0)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("GroundTruth = %v", got)
	}
}

func TestDiskModeChargesIOs(t *testing.T) {
	eng, d := testEngine(t, true)
	ps := store.New(4096)
	eng.Idx.AssignPages(ps)
	ps.ResetCounters()
	rng := rand.New(rand.NewSource(7))
	asked := 0
	for q := 0; q < 50; q++ {
		tr := d.Get(traj.ID(rng.Intn(d.Len())))
		tick := tr.Start + rng.Intn(tr.Len())
		qp, _ := tr.At(tick)
		rt := ps.BeginRead()
		res, _ := eng.STRQ(context.Background(), qp, tick, false, rt)
		if res.Covered {
			asked++
			if rt.PagesTouched() == 0 {
				t.Fatal("covered disk query should touch pages")
			}
		}
	}
	if asked == 0 {
		t.Fatal("no covered queries")
	}
	if ps.Reads() == 0 {
		t.Fatal("no reads recorded")
	}
}

func TestDistToRect(t *testing.T) {
	r := geo.NewRect(0, 0, 1, 1)
	if d := distToRect(geo.Pt(0.5, 0.5), r); d != 0 {
		t.Fatalf("inside dist = %v", d)
	}
	if d := distToRect(geo.Pt(2, 0.5), r); d != 1 {
		t.Fatalf("side dist = %v", d)
	}
	if d := distToRect(geo.Pt(4, 5), r); d != 5 {
		t.Fatalf("corner dist = %v", d)
	}
}

func TestEngineConcurrentSTRQTPQ(t *testing.T) {
	// The engine contract: safe for concurrent readers (run with -race).
	// Eight goroutines mix approximate STRQ, exact STRQ, and TPQ against
	// one shared engine and cross-check recall on the fly.
	eng, d := testEngine(t, true)
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for wk := 0; wk < 8; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(40 + wk)))
			for q := 0; q < 150; q++ {
				tr := d.Get(traj.ID(rng.Intn(d.Len())))
				tick := tr.Start + rng.Intn(tr.Len())
				qp, _ := tr.At(tick)
				switch q % 3 {
				case 0:
					res, err := eng.STRQ(context.Background(), qp, tick, false, nil)
					if err != nil {
						errCh <- err
						return
					}
					if res.Covered {
						want := GroundTruth(d, res.Cell, tick)
						if _, recall := PrecisionRecall(res.IDs, want); recall < 1 {
							errCh <- fmt.Errorf("worker %d: recall %v < 1", wk, recall)
							return
						}
					}
				case 1:
					res, err := eng.STRQ(context.Background(), qp, tick, true, nil)
					if err != nil {
						errCh <- err
						return
					}
					if res.Covered {
						want := GroundTruth(d, res.Cell, tick)
						if p, r := PrecisionRecall(res.IDs, want); p != 1 || r != 1 {
							errCh <- fmt.Errorf("worker %d: exact %v/%v", wk, p, r)
							return
						}
					}
				default:
					if _, err := eng.TPQ(context.Background(), qp, tick, 8, false, nil); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(wk)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if eng.RawAccesses.Load() == 0 {
		t.Fatal("exact workers should have accessed raw data")
	}
}

func TestSTRQRectMatchesGroundTruthExact(t *testing.T) {
	// STRQRect is the engine-independent query primitive the serving
	// layer shards over: exact answers must equal ground truth for any
	// caller-supplied rectangle.
	eng, d := testEngine(t, true)
	rng := rand.New(rand.NewSource(17))
	gc := geo.MetersToDegrees(100)
	checked := 0
	for q := 0; q < 200; q++ {
		tr := d.Get(traj.ID(rng.Intn(d.Len())))
		tick := tr.Start + rng.Intn(tr.Len())
		qp, _ := tr.At(tick)
		rect := geo.Rect{
			MinX: math.Floor(qp.X/gc) * gc, MinY: math.Floor(qp.Y/gc) * gc,
			MaxX: math.Floor(qp.X/gc)*gc + gc, MaxY: math.Floor(qp.Y/gc)*gc + gc,
		}
		res, err := eng.STRQRect(context.Background(), rect, tick, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Covered {
			continue
		}
		checked++
		want := GroundTruth(d, rect, tick)
		if p, r := PrecisionRecall(res.IDs, want); p != 1 || r != 1 {
			t.Fatalf("rect %v tick %d: precision %v recall %v", rect, tick, p, r)
		}
	}
	if checked == 0 {
		t.Fatal("no covered rect queries")
	}
}

// TestQueryContextCancellation checks the engine primitives observe their
// context: a cancelled context aborts STRQ/STRQRect/TPQ with the context
// error, and context.Background() answers normally.
func TestQueryContextCancellation(t *testing.T) {
	eng, d := testEngine(t, true)
	tr := d.Get(0)
	qp, _ := tr.At(tr.Start)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.STRQ(ctx, qp, tr.Start, false, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("STRQ on cancelled ctx: want context.Canceled, got %v", err)
	}
	if _, err := eng.STRQRect(ctx, geo.NewRect(qp.X-0.01, qp.Y-0.01, qp.X+0.01, qp.Y+0.01), tr.Start, true, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("STRQRect on cancelled ctx: want context.Canceled, got %v", err)
	}
	if _, err := eng.TPQ(ctx, qp, tr.Start, 5, false, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("TPQ on cancelled ctx: want context.Canceled, got %v", err)
	}
	res, err := eng.STRQ(context.Background(), qp, tr.Start, false, nil)
	if err != nil || !res.Covered {
		t.Fatalf("background ctx should answer: %+v, %v", res, err)
	}
}

// BenchmarkSearchRectAllocs tracks the per-probe allocation count of the
// shared STRQ pipeline — the scratch pool keeps the steady state at the
// result copy plus the result struct instead of fresh candidate/kept
// slices per call.
func BenchmarkSearchRectAllocs(b *testing.B) {
	e, d := rangeTestEngine(b, false)
	tr := d.Get(0)
	p := tr.Points[0]
	tick := tr.Start
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.STRQ(ctx, p, tick, false, nil); err != nil {
			b.Fatal(err)
		}
	}
}
