package serve

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppqtraj/internal/traj"
)

// openWindowRepo builds the equivalence-suite repository: several sealed
// segments plus a live hot tail, compaction only via explicit Flush.
func openWindowRepo(t *testing.T) (*Repository, lastTickCols) {
	t.Helper()
	d, cols := testData(t)
	opts := testOptions(d)
	opts.CompactInterval = time.Hour
	repo, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repo.Close() })
	lastTick := cols[len(cols)-1].Tick
	for _, col := range cols {
		if err := repo.IngestColumn(col); err != nil {
			t.Fatal(err)
		}
		if col.Tick == lastTick-10 {
			if err := repo.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if repo.Stats().Segments < 2 {
		t.Fatalf("want ≥ 2 sealed segments, got %d", repo.Stats().Segments)
	}
	if repo.Stats().HotPoints == 0 {
		t.Fatal("want a non-empty hot tail")
	}
	return repo, lastTickCols{cols: cols, lastTick: lastTick}
}

type lastTickCols struct {
	cols     []*traj.Column
	lastTick int
}

// TestExecutorEquivalenceSuite is the window plan's acceptance suite
// against ground truth: on every span shape of the range-scan matrix
// (segment-boundary straddles, the sealed/hot frontier, the epoch, empty
// future ticks), an exact plan must equal brute force and an approximate
// one must contain it (recall 1); a repeated request must return the
// same IDs and the same ticks, sources and skip accounting whatever
// order the parallel segment scans finish in; a plan never skips more
// segments than the span overlaps, and the far-away rect is zone-pruned
// on every one of them. Run with -race.
func TestExecutorEquivalenceSuite(t *testing.T) {
	repo, w := openWindowRepo(t)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(17))
	lastTick := w.lastTick
	spans := [][2]int{
		{0, lastTick},                 // whole history: every segment + hot
		{lastTick - 12, lastTick + 5}, // straddles sealed/hot and runs past the data
		{-10, 3},                      // straddles the epoch
		{lastTick + 3, lastTick + 30}, // hot-only plus empty future ticks
	}
	for i := 0; i < 8; i++ {
		lo := rng.Intn(lastTick + 1)
		spans = append(spans, [2]int{lo, lo + rng.Intn(lastTick-lo+4)})
	}
	rects := windowRects(w.cols, 6, 29)
	far := rects[len(rects)-1]
	for _, rect := range rects {
		for _, sp := range spans {
			overlapping := 0
			for _, s := range repo.Segments() {
				if s.StartTick <= sp[1] && s.EndTick >= sp[0] {
					overlapping++
				}
			}
			truth := bruteWindow(w.cols, rect, sp[0], sp[1])
			for _, exact := range []bool{false, true} {
				got, err := repo.Window(ctx, rect, sp[0], sp[1], exact)
				if err != nil {
					t.Fatalf("Window(%v, %d..%d, exact=%v): %v", rect, sp[0], sp[1], exact, err)
				}
				if exact && !sameIDs(got.IDs, truth) || !exact && !containsAll(got.IDs, truth) {
					t.Fatalf("rect %v span %d..%d exact=%v: window %v vs ground truth %v",
						rect, sp[0], sp[1], exact, got.IDs, truth)
				}
				again, err := repo.Window(ctx, rect, sp[0], sp[1], exact)
				if err != nil {
					t.Fatal(err)
				}
				if !sameIDs(got.IDs, again.IDs) || got.Ticks != again.Ticks ||
					got.Sources != again.Sources || got.SegmentsSkipped != again.SegmentsSkipped {
					t.Fatalf("rect %v span %d..%d exact=%v: repeated window differs: %+v vs %+v",
						rect, sp[0], sp[1], exact, got, again)
				}
				if got.SegmentsSkipped > overlapping {
					t.Fatalf("rect %v span %d..%d: %d segments skipped, only %d overlap",
						rect, sp[0], sp[1], got.SegmentsSkipped, overlapping)
				}
				if rect == far && got.SegmentsSkipped != overlapping {
					t.Fatalf("far rect span %d..%d: %d of %d overlapping segments skipped",
						sp[0], sp[1], got.SegmentsSkipped, overlapping)
				}
			}
		}
	}
}

// TestExecutorRacingCompaction runs approximate windows concurrently
// with live ingestion and compaction: every answer over the fully
// ingested prefix must contain brute-force ground truth (recall 1), and
// an answer over ticks already sealed when the request started must
// equal the per-tick STRQRect reference point for point, IDs and ticks
// probed, no matter where the sealed watermark moves mid-request. Run
// with -race.
func TestExecutorRacingCompaction(t *testing.T) {
	d, cols := testData(t)
	opts := testOptions(d)
	repo, err := Open(opts) // fast CompactInterval: compactor races for real
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()

	rects := windowRects(cols, 4, 61)
	var ingested atomic.Int64
	ingested.Store(-1)
	var done atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for wk := 0; wk < 4; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(90 + wk)))
			for !done.Load() {
				hi := ingested.Load()
				if hi < 1 {
					continue
				}
				to := cols[rng.Intn(int(hi))].Tick
				from := to - rng.Intn(20)
				rect := rects[rng.Intn(len(rects))]
				_, sealed := repo.view()
				res, err := repo.Window(context.Background(), rect, from, to, false)
				if err != nil {
					errCh <- err
					return
				}
				if want := bruteWindow(cols, rect, from, to); !containsAll(res.IDs, want) {
					errCh <- errMismatch(rect, from, to, res.IDs, want)
					return
				}
				if to > sealed {
					continue
				}
				// Sealed ticks live in immutable segments, so the per-tick
				// reference sees exactly what the window saw.
				ref, err := perTickWindow(repo, rect, from, to, false)
				if err != nil {
					errCh <- err
					return
				}
				if !sameIDs(res.IDs, ref.IDs) || res.Ticks != ref.Ticks {
					errCh <- errMismatch(rect, from, to, res.IDs, ref.IDs)
					return
				}
			}
		}(wk)
	}
	ingestRacingCompaction(t, repo, cols, &ingested)
	done.Store(true)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

// TestExecutorPlanTelemetry checks the window plan accounting:
// zone-pruned segments are counted once per plan, and Plans and
// Operators land in the stats window section.
func TestExecutorPlanTelemetry(t *testing.T) {
	repo, w := openWindowRepo(t)
	ctx := context.Background()
	offData := windowRects(w.cols, 0, 1)[0] // only the far-away rect

	before := repo.Stats().Window
	res, err := repo.Window(ctx, offData, 0, w.lastTick, false)
	if err != nil {
		t.Fatal(err)
	}
	after := repo.Stats().Window
	if res.SegmentsSkipped == 0 {
		t.Fatalf("far-away rect not zone-pruned: %+v", res)
	}
	if got := after.Plans - before.Plans; got != 1 {
		t.Fatalf("one window = one plan, got %d", got)
	}
	if after.Operators <= before.Operators {
		t.Fatalf("plan recorded no operators: %+v -> %+v", before, after)
	}
	// Every overlapping segment is pruned or scanned exactly once per
	// plan: the per-request skip count must equal the counter delta.
	if got := after.SegmentsSkipped - before.SegmentsSkipped; got != int64(res.SegmentsSkipped) {
		t.Fatalf("skip counter moved %d for one plan reporting %d skips", got, res.SegmentsSkipped)
	}
	if scanned := after.SegmentsScanned - before.SegmentsScanned; scanned+int64(res.SegmentsSkipped) > int64(res.Sources) {
		t.Fatalf("segments counted more than once per plan: scanned %d + skipped %d > sources %d",
			scanned, res.SegmentsSkipped, res.Sources)
	}
}

// TestExecutorCancellation checks a cancelled context aborts a window
// plan with the context error, in both modes.
func TestExecutorCancellation(t *testing.T) {
	repo, w := openWindowRepo(t)
	for _, exact := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := repo.Window(ctx, windowRects(w.cols, 1, 5)[0], 0, w.lastTick, exact); err == nil {
			t.Fatalf("exact=%v: cancelled window returned no error", exact)
		}
	}
}

// BenchmarkWindow times warm whole-history windows on one flushed
// repository, for profiling the window plan.
func BenchmarkWindow(b *testing.B) {
	d, cols := testData(b)
	opts := testOptions(d)
	opts.CompactInterval = time.Hour
	repo, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer repo.Close()
	for _, col := range cols {
		if err := repo.IngestColumn(col); err != nil {
			b.Fatal(err)
		}
	}
	if err := repo.Flush(); err != nil {
		b.Fatal(err)
	}
	lastTick := cols[len(cols)-1].Tick
	rects := windowRects(cols, 8, 13)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rect := rects[i%len(rects)]
		if _, err := repo.Window(ctx, rect, 0, lastTick, false); err != nil {
			b.Fatal(err)
		}
	}
}
