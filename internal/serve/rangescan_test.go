package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppqtraj/internal/geo"
	"ppqtraj/internal/traj"
)

// windowRects samples query rectangles anchored on ingested positions
// (so probes hit populated space) at sizes from sub-cell to several
// cells, plus one far-away rect that exercises the zone-map planner.
func windowRects(cols []*traj.Column, n int, seed int64) []geo.Rect {
	rng := rand.New(rand.NewSource(seed))
	gc := geo.MetersToDegrees(100)
	rects := make([]geo.Rect, 0, n+1)
	for i := 0; i < n; i++ {
		col := cols[rng.Intn(len(cols))]
		p := col.Points[rng.Intn(col.Len())]
		w := gc * (0.5 + 3*rng.Float64())
		rects = append(rects, geo.Rect{MinX: p.X - w/2, MinY: p.Y - w/2, MaxX: p.X + w/2, MaxY: p.Y + w/2})
	}
	rects = append(rects, geo.Rect{MinX: 10, MinY: 10, MaxX: 11, MaxY: 11}) // nowhere near Porto
	return rects
}

// perTickWindow is Window's slow reference: one STRQRect probe per tick
// through strqTick's routing, unioned, plus the ticks-probed and sources
// accounting Window must reproduce. Sources assumes a quiescent
// repository; the IDs and ticks of a span at or below the sealed
// watermark are stable even under racing ingest and compaction.
func perTickWindow(repo *Repository, rect geo.Rect, from, to int, exact bool) (*WindowResult, error) {
	segs, sealed := repo.view()
	res := &WindowResult{From: from, To: to}
	for _, s := range segs {
		if s.StartTick <= to && s.EndTick >= from {
			res.Sources++
		}
	}
	if lo, hi, ok := repo.hot.tickSpan(); ok && max(from, sealed+1, lo) <= min(to, hi) {
		res.Sources++
	}
	var ids []traj.ID
	for tick := from; tick <= to; tick++ {
		ans, err := repo.strqTick(context.Background(), rect, tick, exact)
		if err != nil {
			return nil, err
		}
		if ans.Covered {
			res.Ticks++
		}
		ids = append(ids, ans.IDs...)
	}
	slices.Sort(ids)
	if len(ids) > 0 { // nil, like Window's empty answer
		res.IDs = traj.DedupSorted(ids)
	}
	return res, nil
}

// containsAll reports whether sorted ids holds every ID of sorted want.
func containsAll(ids, want []traj.ID) bool {
	i := 0
	for _, id := range want {
		for i < len(ids) && ids[i] < id {
			i++
		}
		if i == len(ids) || ids[i] != id {
			return false
		}
	}
	return true
}

// TestWindowEquivalenceSuite is the window acceptance suite: on spans
// straddling segment boundaries, the sealed/hot frontier, the epoch,
// empty future ticks, and rects entirely off the data, Window must match
// the per-tick STRQRect reference point for point — IDs, ticks probed,
// and sources — in both modes, and brute-force ground truth in exact
// mode. Run with -race.
func TestWindowEquivalenceSuite(t *testing.T) {
	repo, w := openWindowRepo(t)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	lastTick := w.lastTick
	spans := [][2]int{
		{0, lastTick},                 // whole history: every segment + hot
		{lastTick - 12, lastTick + 5}, // straddles sealed/hot and runs past the data
		{-10, 3},                      // straddles the epoch
		{lastTick + 3, lastTick + 30}, // hot-only plus empty future ticks
	}
	for i := 0; i < 12; i++ {
		lo := rng.Intn(lastTick + 1)
		spans = append(spans, [2]int{lo, lo + rng.Intn(lastTick-lo+4)})
	}
	for _, rect := range windowRects(w.cols, 6, 21) {
		for _, sp := range spans {
			for _, exact := range []bool{false, true} {
				got, err := repo.Window(ctx, rect, sp[0], sp[1], exact)
				if err != nil {
					t.Fatalf("Window(%v, %d..%d, exact=%v): %v", rect, sp[0], sp[1], exact, err)
				}
				want, err := perTickWindow(repo, rect, sp[0], sp[1], exact)
				if err != nil {
					t.Fatalf("perTickWindow(%v, %d..%d, exact=%v): %v", rect, sp[0], sp[1], exact, err)
				}
				if !sameIDs(got.IDs, want.IDs) {
					t.Fatalf("rect %v span %d..%d exact=%v:\nwindow  %v\npertick %v",
						rect, sp[0], sp[1], exact, got.IDs, want.IDs)
				}
				if got.Ticks != want.Ticks || got.Sources != want.Sources {
					t.Fatalf("rect %v span %d..%d exact=%v: ticks probed %d vs %d, sources %d vs %d",
						rect, sp[0], sp[1], exact, got.Ticks, want.Ticks, got.Sources, want.Sources)
				}
				if exact {
					if truth := bruteWindow(w.cols, rect, sp[0], sp[1]); !sameIDs(got.IDs, truth) {
						t.Fatalf("rect %v span %d..%d: exact window %v vs ground truth %v",
							rect, sp[0], sp[1], got.IDs, truth)
					}
				}
			}
		}
	}

	st := repo.Stats()
	if st.Window.Queries == 0 || st.Window.SegmentsScanned == 0 {
		t.Fatalf("window stats not populated: %+v", st.Window)
	}
	if st.Window.SegmentsSkipped == 0 {
		t.Fatalf("the far-away rect should have been zone-map pruned: %+v", st.Window)
	}
}

// TestWindowRacingCompaction runs exact windows concurrently with live
// ingestion and compaction, so the sealed watermark moves under
// requests: every answer over the fully ingested prefix must equal
// brute-force ground truth no matter where the watermark lands
// mid-request. This is the regression test for the per-request pinned
// read view. Run with -race.
func TestWindowRacingCompaction(t *testing.T) {
	d, cols := testData(t)
	opts := testOptions(d)
	repo, err := Open(opts) // fast CompactInterval: compactor races for real
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()

	rects := windowRects(cols, 4, 33)
	var ingested atomic.Int64
	ingested.Store(-1)
	var done atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for wk := 0; wk < 4; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(50 + wk)))
			for !done.Load() {
				hi := ingested.Load()
				if hi < 1 {
					continue
				}
				// Only ticks fully ingested before the query starts have a
				// fixed ground truth.
				to := cols[rng.Intn(int(hi))].Tick
				from := to - rng.Intn(20)
				rect := rects[rng.Intn(len(rects))]
				res, err := repo.Window(context.Background(), rect, from, to, true)
				if err != nil {
					errCh <- err
					return
				}
				if want := bruteWindow(cols, rect, from, to); !sameIDs(res.IDs, want) {
					errCh <- errMismatch(rect, from, to, res.IDs, want)
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

// ingestRacingCompaction streams cols into repo with short pauses so the
// background compactor overlaps concurrent queries, publishing each
// fully ingested column's index in ingested, then flushes.
func ingestRacingCompaction(t *testing.T, repo *Repository, cols []*traj.Column, ingested *atomic.Int64) {
	t.Helper()
	for i, col := range cols {
		if err := repo.IngestColumn(col); err != nil {
			t.Fatal(err)
		}
		ingested.Store(int64(i))
		if i%7 == 0 {
			time.Sleep(time.Millisecond) // let the compactor overlap queries
		}
	}
	if err := repo.Flush(); err != nil {
		t.Fatal(err)
	}
}

type windowMismatch struct {
	rect      geo.Rect
	from, to  int
	got, want []traj.ID
}

func errMismatch(rect geo.Rect, from, to int, got, want []traj.ID) error {
	return &windowMismatch{rect: rect, from: from, to: to, got: got, want: want}
}

func (m *windowMismatch) Error() string {
	return fmt.Sprintf("window mismatch %v span %d..%d:\ngot  %v\nwant %v", m.rect, m.from, m.to, m.got, m.want)
}

// TestZoneMapPersistenceAndRebuild checks the sidecar lifecycle: zone
// maps are written next to segments, reload from disk, are rebuilt (and
// re-persisted) when deleted — the old-manifest upgrade path — and prune
// identically either way.
func TestZoneMapPersistenceAndRebuild(t *testing.T) {
	d, cols := testData(t)
	opts := testOptions(d)
	opts.Dir = t.TempDir()
	opts.CompactInterval = time.Hour
	repo, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range cols {
		if err := repo.IngestColumn(col); err != nil {
			t.Fatal(err)
		}
	}
	if err := repo.Flush(); err != nil {
		t.Fatal(err)
	}
	segs := repo.Segments()
	if len(segs) < 2 {
		t.Fatalf("want ≥ 2 segments, got %d", len(segs))
	}
	farRect := geo.Rect{MinX: 10, MinY: 10, MaxX: 11, MaxY: 11}
	res, err := repo.Window(context.Background(), farRect, 0, cols[len(cols)-1].Tick, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 0 || res.SegmentsSkipped != len(segs) {
		t.Fatalf("far rect: ids %v, skipped %d of %d segments", res.IDs, res.SegmentsSkipped, len(segs))
	}
	zones := make(map[uint64]*ZoneMap, len(segs))
	for _, s := range segs {
		if s.Zone == nil {
			t.Fatalf("segment %d has no zone map", s.ID)
		}
		zones[s.ID] = s.Zone
		if _, err := os.Stat(filepath.Join(opts.Dir, zoneFileName(s.ID))); err != nil {
			t.Fatalf("segment %d zone sidecar: %v", s.ID, err)
		}
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}

	// Reload from the persisted sidecars.
	repo2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range repo2.Segments() {
		want := zones[s.ID]
		if s.Zone == nil || s.Zone.Bounds != want.Bounds || s.Zone.TickLo != want.TickLo ||
			s.Zone.TickHi != want.TickHi || s.Zone.W != want.W || s.Zone.H != want.H {
			t.Fatalf("segment %d zone map changed across reload: %+v vs %+v", s.ID, s.Zone, want)
		}
	}
	if err := repo2.Close(); err != nil {
		t.Fatal(err)
	}

	// Delete the sidecars (an old-format directory) and reopen: the zone
	// maps must be rebuilt from the engines and re-persisted.
	for id := range zones {
		if err := os.Remove(filepath.Join(opts.Dir, zoneFileName(id))); err != nil {
			t.Fatal(err)
		}
	}
	repo3, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer repo3.Close()
	for _, s := range repo3.Segments() {
		want := zones[s.ID]
		if s.Zone == nil || s.Zone.Bounds != want.Bounds || s.Zone.TickLo != want.TickLo ||
			s.Zone.TickHi != want.TickHi {
			t.Fatalf("segment %d zone map not rebuilt faithfully: %+v vs %+v", s.ID, s.Zone, want)
		}
		if _, err := os.Stat(filepath.Join(opts.Dir, zoneFileName(s.ID))); err != nil {
			t.Fatalf("segment %d zone sidecar not re-persisted: %v", s.ID, err)
		}
	}
	res, err = repo3.Window(context.Background(), farRect, 0, cols[len(cols)-1].Tick, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 0 || res.SegmentsSkipped != len(zones) {
		t.Fatalf("far rect after rebuild: ids %v, skipped %d of %d", res.IDs, res.SegmentsSkipped, len(zones))
	}
}

// TestZoneMapRejectsCorruptSidecar checks loadZoneMap refuses malformed
// frames instead of trusting them: a negative-dimension bitmap would
// make MayIntersect silently prune its segment forever.
func TestZoneMapRejectsCorruptSidecar(t *testing.T) {
	dir := t.TempDir()
	gc := geo.MetersToDegrees(100)
	// ZoneMap holds an atomic counter, so each trial builds a fresh value
	// instead of copying one.
	good := func() *ZoneMap {
		return &ZoneMap{Version: zoneMapVersion, GC: gc, TickLo: 0, TickHi: 9,
			Bounds: geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, X0: 0, Y0: 0, W: 2, H: 2, Bits: []byte{0xf}}
	}
	for name, mutate := range map[string]func(z *ZoneMap){
		"negative-w":    func(z *ZoneMap) { z.W, z.H = -4, -2 },
		"short-bits":    func(z *ZoneMap) { z.W, z.H, z.Bits = 100, 100, []byte{1} },
		"wrong-version": func(z *ZoneMap) { z.Version = 99 },
		"wrong-gc":      func(z *ZoneMap) { z.GC = gc * 2 },
	} {
		z := good()
		mutate(z)
		blob, err := json.Marshal(z)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, zoneFileName(1)), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := loadZoneMap(dir, 1, gc); ok {
			t.Fatalf("%s: corrupt sidecar accepted", name)
		}
	}
	blob, err := json.Marshal(good())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, zoneFileName(1)), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := loadZoneMap(dir, 1, gc); !ok {
		t.Fatal("well-formed sidecar rejected")
	}
}

// TestZoneOrphanGC checks startup GC reclaims zone sidecars whose
// segment the manifest no longer references.
func TestZoneOrphanGC(t *testing.T) {
	d, cols := testData(t)
	opts := testOptions(d)
	opts.Dir = t.TempDir()
	opts.CompactInterval = time.Hour
	repo, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range cols[:20] {
		if err := repo.IngestColumn(col); err != nil {
			t.Fatal(err)
		}
	}
	if err := repo.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(opts.Dir, zoneFileName(987654))
	if err := os.WriteFile(orphan, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	repo2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer repo2.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan zone sidecar survived startup GC: %v", err)
	}
	if repo2.Stats().OrphansRemoved == 0 {
		t.Fatal("orphan removal not counted")
	}
}

// TestWindowDeadline checks the range executor still honors deadlines
// promptly (the per-shard scans check ctx between emits).
func TestWindowDeadline(t *testing.T) {
	d, cols := testData(t)
	opts := testOptions(d)
	opts.CompactInterval = time.Hour
	repo, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	for _, col := range cols {
		if err := repo.IngestColumn(col); err != nil {
			t.Fatal(err)
		}
	}
	if err := repo.Flush(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := repo.Window(ctx, geo.Rect{MinX: -9, MinY: 41, MaxX: -8, MaxY: 42}, 0, cols[len(cols)-1].Tick, false); err != context.Canceled {
		t.Fatalf("cancelled window: err = %v, want context.Canceled", err)
	}
}
