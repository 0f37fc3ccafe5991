package serve

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ppqtraj/internal/geo"
	"ppqtraj/internal/traj"
)

// perTickSTRQ is STRQ's per-tick reference: with the hot tail's read
// lock held it takes the routing view, answers a tick above the sealed
// watermark by scanning the raw hot column, and any other tick with the
// covering segment's Engine.STRQRect probe. IDs come back in the order
// the answering tier produced them.
func perTickSTRQ(repo *Repository, cell geo.Rect, tick int, exact bool) (STRQAnswer, error) {
	ans := STRQAnswer{Tick: tick, Cell: cell, Source: "none"}
	repo.hot.mu.RLock()
	defer repo.hot.mu.RUnlock()
	segs, sealed := repo.view()
	if tick > sealed {
		col := repo.hot.cols[tick]
		if col == nil {
			return ans, nil
		}
		ans.Covered, ans.Source = true, "hot"
		for i, id := range col.ids {
			if cell.Contains(col.pts[i]) {
				ans.IDs = append(ans.IDs, id)
			}
		}
		ans.Candidates = len(ans.IDs)
		return ans, nil
	}
	seg := findSegment(segs, tick)
	if seg == nil {
		return ans, nil
	}
	res, err := seg.Eng.STRQRect(context.Background(), cell, tick, exact, nil)
	if err != nil {
		return ans, err
	}
	ans.Covered, ans.IDs, ans.Candidates, ans.Visited = res.Covered, res.IDs, res.Candidates, res.Visited
	ans.Source = fmt.Sprintf("segment:%d", seg.ID)
	return ans, nil
}

// findSegment returns the segment covering tick, or nil. Segments are
// ascending and disjoint.
func findSegment(segs []*Segment, tick int) *Segment {
	i := sort.Search(len(segs), func(i int) bool { return segs[i].EndTick >= tick })
	if i < len(segs) && segs[i].Covers(tick) {
		return segs[i]
	}
	return nil
}

// TestSTRQEquivalenceSuite is the probe acceptance suite: on ticks at
// segment boundaries, on both sides of the sealed/hot frontier, before
// the epoch and past the data, and at points on and off the data,
// Repository.STRQ (a one-tick window plan) must equal the per-tick
// reference field for field — IDs as a set, Covered, Candidates, Visited
// and Source — in both modes, return IDs ascending, charge RawAccesses
// once per visit, and equal brute force in exact mode. Run with -race.
func TestSTRQEquivalenceSuite(t *testing.T) {
	repo, w := openWindowRepo(t)
	ctx := context.Background()
	_, sealed := repo.view()
	ticks := []int{-3, -1, 0, sealed - 1, sealed, sealed + 1, sealed + 2, w.lastTick, w.lastTick + 1, w.lastTick + 9}
	for _, s := range repo.Segments() {
		ticks = append(ticks, s.StartTick-1, s.StartTick, s.StartTick+1, s.EndTick-1, s.EndTick, s.EndTick+1)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 24; i++ {
		ticks = append(ticks, rng.Intn(w.lastTick+1))
	}
	byTick := make(map[int]*traj.Column, len(w.cols))
	for _, col := range w.cols {
		byTick[col.Tick] = col
	}
	far := geo.Pt(10.5, 10.5) // nowhere near Porto: zone-pruned on every segment
	var pruned, hot, segment int
	for _, tick := range ticks {
		pts := []geo.Point{far, {X: -8.61, Y: 41.15}}
		if col := byTick[tick]; col != nil {
			for k := 0; k < 4; k++ {
				pts = append(pts, col.Points[rng.Intn(col.Len())])
			}
		}
		for _, p := range pts {
			cell := repo.QueryCell(p)
			for _, exact := range []bool{false, true} {
				before := repo.Stats().RawAccesses
				got, err := repo.STRQ(ctx, STRQRequest{P: p, Tick: tick, Exact: exact})
				if err != nil {
					t.Fatalf("STRQ(%v, tick %d, exact=%v): %v", p, tick, exact, err)
				}
				mid := repo.Stats().RawAccesses
				want, err := perTickSTRQ(repo, cell, tick, exact)
				if err != nil {
					t.Fatalf("perTickSTRQ(%v, tick %d, exact=%v): %v", cell, tick, exact, err)
				}
				after := repo.Stats().RawAccesses
				tag := fmt.Sprintf("point %v tick %d exact=%v", p, tick, exact)
				if !slices.IsSorted(got.IDs) {
					t.Fatalf("%s: IDs not ascending: %v", tag, got.IDs)
				}
				if !sameIDs(got.IDs, sortedIDs(want.IDs)) {
					t.Fatalf("%s:\nplan    %v\npertick %v", tag, got.IDs, want.IDs)
				}
				if got.Covered != want.Covered || got.Candidates != want.Candidates ||
					got.Visited != want.Visited || got.Source != want.Source {
					t.Fatalf("%s: covered/candidates/visited/source %v/%d/%d/%q, per-tick %v/%d/%d/%q",
						tag, got.Covered, got.Candidates, got.Visited, got.Source,
						want.Covered, want.Candidates, want.Visited, want.Source)
				}
				if mid-before != int64(got.Visited) || after-mid != int64(want.Visited) {
					t.Fatalf("%s: raw accesses %d (plan) and %d (per-tick) for %d visits",
						tag, mid-before, after-mid, got.Visited)
				}
				if exact {
					if truth := bruteWindow(w.cols, cell, tick, tick); !sameIDs(got.IDs, truth) {
						t.Fatalf("%s: exact %v vs ground truth %v", tag, got.IDs, truth)
					}
				}
				switch {
				case got.Source == "hot":
					hot++
				case strings.HasPrefix(got.Source, "segment:"):
					segment++
					if p == far && got.Covered {
						pruned++
					}
				}
			}
		}
	}
	if hot == 0 || segment == 0 || pruned == 0 {
		t.Fatalf("suite missed a route: %d hot, %d segment, %d zone-pruned probes", hot, segment, pruned)
	}
}

// TestSTRQRacingCompaction fires approximate and exact probes at fully
// ingested ticks while ingestion and compaction move the sealed
// watermark under them: every answer must contain brute-force ground
// truth (recall 1), equal it in exact mode, and come back ascending.
// Run with -race.
func TestSTRQRacingCompaction(t *testing.T) {
	d, cols := testData(t)
	repo, err := Open(testOptions(d)) // fast CompactInterval: compactor races for real
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()

	var ingested atomic.Int64
	ingested.Store(-1)
	var done atomic.Bool
	var checked atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for wk := 0; wk < 4; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(130 + wk)))
			for !done.Load() {
				hi := ingested.Load()
				if hi < 0 {
					continue
				}
				col := cols[rng.Intn(int(hi)+1)]
				p := col.Points[rng.Intn(col.Len())]
				exact := wk%2 == 1
				ans, err := repo.STRQ(context.Background(), STRQRequest{P: p, Tick: col.Tick, Exact: exact})
				if err != nil {
					errCh <- err
					return
				}
				truth := bruteWindow(cols, ans.Cell, col.Tick, col.Tick)
				if !slices.IsSorted(ans.IDs) || !containsAll(ans.IDs, truth) || exact && !sameIDs(ans.IDs, truth) {
					errCh <- fmt.Errorf("tick %d cell %v exact=%v (source %s): got %v, ground truth %v",
						col.Tick, ans.Cell, exact, ans.Source, ans.IDs, truth)
					return
				}
				checked.Add(1)
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
	if checked.Load() == 0 {
		t.Fatal("no probe ran against the moving watermark")
	}
}
