package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ppqtraj/internal/geo"
	"ppqtraj/internal/serve"
)

var bg = context.Background()

// workloads maps each workload name to the function that runs it. The
// comment on each records why it exists and which layers it should and
// should not move.
var workloads = map[string]func(*run) (*serve.Repository, error){
	"sealed-read": (*run).sealedRead,
	"live-mixed":  (*run).liveMixed,
}

// Sealed-read shape: a fixed pool of data-anchored probes read with Zipf
// skew, so the decoded working set (about 50 MB) fits the default 64 MiB
// cache and the warm cache serves almost every cell. zipfV flattens the
// head of the distribution: with v = 1 the ten hottest anchors would
// take half of all probes, and the run would measure those few places
// rather than the pool. The pool is as large and the head as flat as
// the cache allows: with 1,024 anchors and v = 16 about a hundred
// anchors took half the probes, and which hundred a seed drew moved the
// read medians by about 10% from seed to seed.
const (
	poolSize    = 3072
	zipfS       = 1.1
	zipfV       = 48
	warmChunk   = 2000  // requests between hit-ratio readings
	warmMax     = 20000 // requests after which warm-up stops regardless
	warmLevelEp = 0.002 // change in chunk hit ratio treated as level
)

// sealedRead: history analytics on sealed data with a warm cache.
//
// Data: the whole stream, sealed by an explicit Flush every 256 ticks
// (seven segments), raw storage attached, reopened from disk. Load: one
// closed-loop HTTP client, 50% /v1/query batches of 8 probes (one
// exact, half with path_len 8), 40% 16-tick 500 m windows (one in four
// exact), 10% 256-tick 2 km scans. Timing starts once the cache hit
// ratio has levelled off.
//
// Why: it loads HTTP+JSON, serve routing and planning, exec, query and
// the cache-hit path, with no ingest, WAL or compaction in the timed
// phase. A read-path gain (inline one-scan plans, fewer allocations)
// shows here; decode work mostly does not, because the cache absorbs
// it. Set-up (ingest, core build, index seal, segment write) is timed
// separately in setup_s, and each reopen of the set-up directory gives
// open_s (core.ReadSummary and query.BuildEngine, no WAL replay).
func (r *run) sealedRead() (*serve.Repository, error) {
	n := r.d.ticks()
	r.loadSamples = true
	dir, err := r.setup(func(_ int, dir string, repo *serve.Repository) error {
		return r.load(repo, dir, 0, n, n)
	})
	if err != nil {
		return nil, err
	}
	repo, err := r.reopenReps(dir, 0)
	if err != nil {
		return nil, err
	}
	st := repo.Stats()
	sealed := st.SealedThrough
	r.stampData(st)

	// The probe pool: data-anchored (point, tick) pairs over sealed ticks.
	prng := clientRand(r.seed, "pool", 0)
	type probe struct {
		p geo.Point
		t int
	}
	pool := make([]probe, poolSize)
	for i := range pool {
		pool[i].p, pool[i].t = r.d.anchor(prng, 0, sealed)
	}
	// One client: with two, both cores saturate, and on the shared
	// two-core reference machine the run-to-run spread of the read
	// medians grew several-fold (strq p50 quartile spread 0.25 of the
	// median over ten seeds, against 0.03 over six with one client).
	rng := clientRand(r.seed, "sealed-read", 0)
	z := rand.NewZipf(rng, zipfS, zipfV, poolSize-1)
	anchor := func() (geo.Point, int) {
		pr := pool[z.Uint64()]
		return pr.p, pr.t
	}
	gens := []func() readReq{func() readReq { return mixReq(rng, anchor, 0, sealed) }}

	// Warm-up, untraced. Every request of the mix reads inside the scan
	// footprint of its anchor, so one scan per pool anchor loads the
	// whole working set; the mix then runs until its hit ratio is level.
	r.tr.on.Store(false)
	var swept atomic.Int64
	sweep := func() readReq {
		pr := pool[int(swept.Add(1)-1)%poolSize]
		return windowReqAt(prng, pr.p, pr.t, 0, sealed, true)
	}
	r.closedLoop(repo, []func() readReq{sweep}, func(done int64) bool { return done >= poolSize }, false)
	prev, warm := -1.0, poolSize
	for warm < warmMax {
		before := repo.Stats().Cache
		r.closedLoop(repo, gens, func(done int64) bool { return done >= warmChunk }, false)
		warm += warmChunk
		after := repo.Stats().Cache
		hits, lookups := after.Hits-before.Hits, after.Hits-before.Hits+after.Misses-before.Misses
		ratio := float64(hits) / float64(max(lookups, 1))
		if prev >= 0 && math.Abs(ratio-prev) < warmLevelEp {
			prev = ratio
			break
		}
		prev = ratio
	}
	r.env["warmup_requests"] = warm
	r.env["warmup_hit_ratio"] = prev

	r.timedPhase(repo, func(deadline time.Time) {
		r.closedLoop(repo, gens, func(int64) bool { return time.Now().After(deadline) }, true)
	})
	return repo, nil
}

// Live-mixed shape.
const (
	preloadShare   = 0.35
	minUnsealed    = 0.10 // share of the preloaded points left in the WAL
	liveTicksPerS  = 44   // offered ingest rate, ticks per second (≈18k points/s)
	liveReadTicks  = 128  // reads target the newest this many ticks
	liveSampleStep = 50 * time.Millisecond
)

// liveMixed: a fleet restart followed by live ingest with concurrent
// reads of fresh data.
//
// Data: the first 35% of ticks are preloaded during set-up and sealed
// by explicit flushes every 256 ticks up to the last boundary that
// still leaves at least 10% of the preloaded points unsealed in the
// WAL. Each reopen of that directory (open_s) therefore replays the
// WAL tail as well as reading the summaries and rebuilding the index,
// and is verified against the state and answers from before the close.
// The served repository then opens with the serving defaults
// (background compaction at 64 hot ticks, interval WAL sync on the real
// disk). Load: the remaining ticks stream as one /v1/ingest request per
// tick on a fixed open-loop schedule from one goroutine, timed from each
// request's due time, while one closed-loop reader sends the read mix
// over the newest 128 ticks (scans over the newest 256).
//
// Rate: on the two-core reference machine the generator's p99 lateness
// was 29 ms at 46k points/s, 62 ms at 91k and 115 ms at 136k, where its
// median began to grow; at 182k the backlog grew without bound. The
// offered ≈18k points/s is well under the rate at which the p99 begins
// to climb, and the stream lasts 24 s at it.
//
// Why: the read code is the same as in sealed-read, but decodes are
// cold (reads land in the hot tail and in freshly sealed segments), and
// ingest, compaction (core build plus index seal) and the WAL compete
// for the CPU. A read-path gain that costs ingest or compaction shows
// here; so does a faster index cursor or decode, which sealed-read's
// warm cache hides. Open here includes WAL replay, so a persisted
// sealed index, a checksummed segment format or a faster replay moves
// open_s on both workloads, and the WAL part only here.
func (r *run) liveMixed() (*serve.Repository, error) {
	n := r.d.ticks()
	pre := int(preloadShare * float64(n))
	sealTo := 0
	for b := sealEvery; b < pre; b += sealEvery {
		if float64(r.d.pointsIn(b, pre)) >= minUnsealed*float64(r.d.pointsIn(0, pre)) {
			sealTo = b
		}
	}
	dir, err := r.setup(func(_ int, dir string, repo *serve.Repository) error {
		return r.load(repo, dir, 0, pre, sealTo)
	})
	if err != nil {
		return nil, err
	}
	// Bulk options while reopening, so no background compaction changes
	// the state between reopens.
	last, err := r.reopenReps(dir, bulkHotTicks)
	if err != nil {
		return nil, err
	}
	if err := r.close(last); err != nil {
		return nil, err
	}
	repo, _, err := r.open(dir, 0)
	if err != nil {
		return nil, err
	}
	r.stampData(r.ref.want)
	r.env["unsealed_points"] = r.ref.want.HotPoints
	r.env["offered_ticks_per_s"] = liveTicksPerS
	r.env["offered_points_per_s"] = float64(r.d.pointsIn(pre, n)) / float64(n-pre) * liveTicksPerS

	var newest atomic.Int64
	newest.Store(int64(pre - 1))
	rng := clientRand(r.seed, "live-mixed", 0)
	reader := func() readReq {
		hi := int(newest.Load())
		lo := max(0, hi-liveReadTicks+1)
		anchor := func() (geo.Point, int) { return r.d.anchor(rng, lo, hi) }
		return mixReq(rng, anchor, max(0, hi-scanTicks+1), hi)
	}

	var late samples
	r.timedPhase(repo, func(deadline time.Time) {
		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.closedLoop(repo, []func() readReq{reader}, func(int64) bool { return stop.Load() }, true)
		}()
		if r.traceRun {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.sampleSealLag(repo, &newest, &stop)
			}()
		}
		start := time.Now()
		for i, t := 0, pre; t < n; i, t = i+1, t+1 {
			due := start.Add(time.Duration(float64(i) / liveTicksPerS * float64(time.Second)))
			if due.After(deadline) {
				break
			}
			// The request is encoded before it is due, so the client's
			// JSON work is not charged to the server.
			col := &r.d.cols[t]
			body, err := ingestBody(col)
			if err != nil {
				r.op(err)
				break
			}
			time.Sleep(time.Until(due))
			late.add(float64(time.Since(due).Nanoseconds()) / 1e6)
			if len(col.IDs) == 0 {
				newest.Store(int64(t))
				continue
			}
			_, viaHTTP, err := r.ingestTick(repo, col, body)
			if err != nil {
				break
			}
			if viaHTTP && r.timing.Load() {
				r.ingest.add(float64(time.Since(due).Nanoseconds()) / 1e6)
			}
			newest.Store(int64(t))
		}
		stop.Store(true)
		wg.Wait()
	})
	r.lay.ingestSyncs = repo.Stats().WAL.Syncs - r.lay.before.WAL.Syncs
	r.lay.lateMS = late.quantile(0.99).Value
	r.env["generator_late_p99_ms"] = r.lay.lateMS
	r.env["live_last_tick"] = newest.Load()
	return repo, nil
}

// sampleSealLag samples the newest acknowledged tick minus the sealed
// watermark until stop.
func (r *run) sampleSealLag(repo *serve.Repository, newest *atomic.Int64, stop *atomic.Bool) {
	for !stop.Load() {
		lag := newest.Load() - int64(repo.Stats().SealedThrough)
		r.lay.sealLag.add(float64(lag))
		time.Sleep(liveSampleStep)
	}
}

// The fixed probe set every reopened repository must answer exactly as
// before the close.
const (
	refSTRQ    = 96
	refWindows = 96
	refScans   = 24
)

// reference is a repository's state and answers to the fixed probe set
// just before a close, which every reopen is held to.
type reference struct {
	want    serve.Stats
	probes  []readReq
	answers []readResult
}

// takeReference records repo's state and its answers to a fixed probe
// set anchored over ticks [0, hi], sealed and hot alike. The answers go
// through the oracle too.
func (r *run) takeReference(repo *serve.Repository, hi int) error {
	ref := &reference{want: repo.Stats()}
	rng := clientRand(r.seed, "reference", 0)
	anchor := func() (geo.Point, int) { return r.d.anchor(rng, 0, hi) }
	for i := 0; i < refSTRQ; i++ {
		ref.probes = append(ref.probes, strqReq(anchor))
	}
	for i := 0; i < refWindows+refScans; i++ {
		p, t := anchor()
		ref.probes = append(ref.probes, windowReqAt(rng, p, t, 0, hi, i >= refWindows))
	}
	defer r.untraced()()
	for _, q := range ref.probes {
		res, ok := r.read(repo, q, false)
		if !ok {
			return fmt.Errorf("reference probe failed before close")
		}
		ref.answers = append(ref.answers, res)
	}
	r.keptMu.Lock()
	r.kept = append(r.kept, ref.answers...)
	r.keptMu.Unlock()
	r.ref = ref
	return nil
}

// verifyReopen checks a reopened repository against the reference: the
// watermark, segment count and hot points, and the answers to the probe
// set, sent over HTTP. Every mismatch is a failed operation.
func (r *run) verifyReopen(repo *serve.Repository) {
	want := r.ref.want
	st := repo.Stats()
	if st.SealedThrough != want.SealedThrough || st.Segments != want.Segments || st.HotPoints != want.HotPoints {
		r.fail(fmt.Errorf("reopen: state sealed=%d segments=%d hot=%d, want %d/%d/%d",
			st.SealedThrough, st.Segments, st.HotPoints, want.SealedThrough, want.Segments, want.HotPoints))
	}
	defer r.untraced()()
	for i, q := range r.ref.probes {
		res, ok := r.read(repo, q, false)
		if ok && !sameAnswer(res, r.ref.answers[i]) {
			r.fail(fmt.Errorf("reopen: probe %d answered differently after reopen", i))
		}
	}
}

// sameAnswer compares the IDs (and paths) of two answers to one probe.
func sameAnswer(a, b readResult) bool {
	if a.req.kind != kindSTRQ {
		return slices.Equal(a.win.IDs, b.win.IDs)
	}
	for i := range a.answers {
		x, y := a.answers[i], b.answers[i]
		if !slices.Equal(x.IDs, y.IDs) || len(x.Paths) != len(y.Paths) {
			return false
		}
		for id, p := range x.Paths {
			q := y.Paths[id]
			if p.Start != q.Start || !slices.Equal(p.Points, q.Points) {
				return false
			}
		}
	}
	return true
}
