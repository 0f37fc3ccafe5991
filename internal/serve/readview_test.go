package serve

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppqtraj/internal/geo"
)

// TestWindowAsOfTickIsLowerBound checks the staleness receipt under
// racing ingest and compaction. A window's as_of_tick is read under its
// pinned view, so an exact answer must contain every brute-force match
// at ticks ≤ as_of_tick: the receipt never claims a tick whose points
// the answer missed. Precision holds too: nothing outside the window's
// full ground truth. Windows always reach past the ingest frontier,
// which is where a late-read receipt would overclaim. Run with -race.
func TestWindowAsOfTickIsLowerBound(t *testing.T) {
	d, cols := testData(t)
	repo, err := Open(testOptions(d)) // fast CompactInterval: compactor races for real
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()

	// Small rects plus one covering all the data: under the big rect any
	// tick applied during the request has matches, so a receipt claiming
	// it while the answer missed it shows.
	var pts []geo.Point
	for _, col := range cols {
		pts = append(pts, col.Points...)
	}
	rects := append(windowRects(cols, 4, 71), geo.BoundingRect(pts, 0))
	lastTick := cols[len(cols)-1].Tick
	var done atomic.Bool
	var wg sync.WaitGroup
	var checked atomic.Int64
	errCh := make(chan error, 3)
	for wk := 0; wk < 3; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(70 + wk)))
			for !done.Load() {
				// Starting at or just past the frontier, the window's
				// matches come from ticks applied while it runs.
				from := int(repo.appliedTick.Load()) + 1 - rng.Intn(2)
				rect := rects[rng.Intn(len(rects))]
				res, err := repo.Window(context.Background(), rect, from, lastTick+5, true)
				if err != nil {
					errCh <- err
					return
				}
				if seen := bruteWindow(cols, rect, from, int(res.AsOfTick)); !containsAll(res.IDs, seen) {
					errCh <- fmt.Errorf("as_of_tick %d overclaims: %w", res.AsOfTick,
						errMismatch(rect, from, int(res.AsOfTick), res.IDs, seen))
					return
				}
				if all := bruteWindow(cols, rect, from, lastTick); !containsAll(all, res.IDs) {
					errCh <- fmt.Errorf("exact window returned IDs outside ground truth: %w",
						errMismatch(rect, from, lastTick, res.IDs, all))
					return
				}
				checked.Add(1)
			}
		}(wk)
	}
	for _, col := range cols {
		if err := repo.IngestColumn(col); err != nil {
			t.Fatal(err)
		}
		time.Sleep(100 * time.Microsecond) // let windows overlap ingest
	}
	if err := repo.Flush(); err != nil {
		t.Fatal(err)
	}
	done.Store(true)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if checked.Load() == 0 {
		t.Fatal("no window completed while ingest ran")
	}
}

// TestReadPathLockOrder hammers every read path that pins a view — STRQ
// with paths, Path, and Window — concurrently with ingest, background
// compaction, and explicit Flushes. Pinned reads take the hot tail's
// lock before the routing view's, so an inverted acquisition anywhere
// would deadlock: the test fails on a hang, dumping every goroutine,
// instead of waiting out the test binary's timeout. Every exact answer
// over fully ingested ticks must equal brute force, and every path over
// ticks already sealed when the request started must follow the raw
// trajectory within the summaries' deviation bound. Run with -race.
func TestReadPathLockOrder(t *testing.T) {
	d, cols := testData(t)
	repo, err := Open(testOptions(d))
	if err != nil {
		t.Fatal(err)
	}
	rects := windowRects(cols, 4, 91)
	trajs := d.All()
	ctx := context.Background()
	var ingested atomic.Int64 // index into cols of the last fully ingested column
	ingested.Store(-1)
	var done atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	fail := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}
	loop := func(seed int64, read func(rng *rand.Rand, hi int, sealed int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !done.Load() {
				hi := int(ingested.Load())
				if hi < 1 {
					runtime.Gosched()
					continue
				}
				_, sealed := repo.view()
				if err := read(rng, hi, sealed); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	loop(1, func(rng *rand.Rand, hi, _ int) error {
		col := cols[rng.Intn(hi+1)]
		p := col.Points[rng.Intn(col.Len())]
		ans, err := repo.STRQ(ctx, STRQRequest{P: p, Tick: col.Tick, Exact: true, PathLen: 6})
		if err != nil {
			return err
		}
		if want := bruteSTRQ(cols, repo.QueryCell(p), col.Tick); !sameIDs(ans.IDs, want) {
			return errMismatch(repo.QueryCell(p), col.Tick, col.Tick, ans.IDs, want)
		}
		return nil
	})
	loop(2, func(rng *rand.Rand, hi, _ int) error {
		to := cols[rng.Intn(hi+1)].Tick
		from := to - rng.Intn(24)
		rect := rects[rng.Intn(len(rects))]
		res, err := repo.Window(ctx, rect, from, to, true)
		if err != nil {
			return err
		}
		if want := bruteWindow(cols, rect, from, to); !sameIDs(res.IDs, want) {
			return errMismatch(rect, from, to, res.IDs, want)
		}
		return nil
	})
	loop(3, func(rng *rand.Rand, _, sealed int) error {
		tr := trajs[rng.Intn(len(trajs))]
		from := tr.Start - 2 + rng.Intn(tr.Len())
		end := from + 2 + rng.Intn(30)
		got := repo.Path(ctx, tr.ID, from, end-from)
		lo, hi := max(from, tr.Start), min(end, tr.End())
		if end-1 > sealed || lo >= hi {
			return nil // reaches unsealed ticks, or misses the trajectory
		}
		if got.Start != lo || len(got.Points) != hi-lo {
			return fmt.Errorf("Path(%d, %d, %d) = start %d len %d, want start %d len %d",
				tr.ID, from, end-from, got.Start, len(got.Points), lo, hi-lo)
		}
		bound := 1e-12
		for _, s := range repo.Segments() {
			bound = max(bound, s.Sum.MaxDeviation()+1e-12)
		}
		for i, p := range got.Points {
			if raw, _ := tr.At(lo + i); p.Dist(raw) > bound {
				return fmt.Errorf("Path(%d) tick %d: deviation %v exceeds bound %v", tr.ID, lo+i, p.Dist(raw), bound)
			}
		}
		return nil
	})

	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for i, col := range cols {
			if err := repo.IngestColumn(col); err != nil {
				fail(err)
				break
			}
			ingested.Store(int64(i))
			if i%9 == 0 {
				if err := repo.Flush(); err != nil {
					fail(err)
					break
				}
			}
		}
		if err := repo.Flush(); err != nil {
			fail(err)
		}
		done.Store(true)
		wg.Wait()
	}()
	select {
	case <-finished:
	case <-time.After(90 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("read path hung (lock-order inversion?); goroutines:\n%s", buf[:runtime.Stack(buf, true)])
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}
