package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ppqtraj/internal/geo"
	"ppqtraj/internal/serve"
	"ppqtraj/internal/traj"
)

// setupReps is how many times each workload builds its repository from
// an empty directory (setup_s is the median); openReps is how many times
// it then reopens the last one (open_s is the median).
const (
	setupReps = 3
	openReps  = 5
)

// checkEvery: one answer in checkEvery per client is kept for the
// oracle, checked after the timed phase so checking does not compete
// with the server for the CPU.
const checkEvery = 8

// Read kinds.
const (
	kindSTRQ = iota
	kindWindow
	kindScan
)

type readReq struct {
	kind int
	strq []serve.STRQRequest
	win  serve.WindowRequest
}

type readResult struct {
	req     readReq
	answers []serve.STRQAnswer
	win     *serve.WindowResult
}

// run is one benchmark invocation: one workload, one seed.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	traceRun bool
	work     string // working directory inside the checkout

	d   *data
	srv *server
	tr  *tracer
	or  *oracle

	attempted, failed atomic.Int64
	errMu             sync.Mutex
	errs              []string

	// timing gates end-to-end read samples: on only inside the timed
	// phase. loadSamples makes the set-up loads the source of the ingest
	// samples (workloads whose timed phase does not ingest).
	timing      atomic.Bool
	loadSamples bool

	strq, window, scan, ingest samples // µs, µs, ms, ms
	readOps                    atomic.Int64
	readTime                   time.Duration

	setupS, openS []float64
	heapBase      uint64
	loadedThrough int        // newest tick the last load ingested
	ref           *reference // what every reopen must reproduce

	keptMu sync.Mutex
	kept   []readResult

	env map[string]any
	lay layerState
}

// op accounts one attempted operation.
func (r *run) op(err error) {
	r.attempted.Add(1)
	if err != nil {
		r.fail(err)
	}
}

func (r *run) fail(err error) {
	r.failed.Add(1)
	r.errMu.Lock()
	if len(r.errs) < 8 {
		r.errs = append(r.errs, err.Error())
	}
	r.errMu.Unlock()
}

func (r *run) repoDir(i int) string { return filepath.Join(r.work, fmt.Sprintf("repo-%d", i)) }

// gc collects garbage outside any timed section, so one setup's garbage
// is not charged to the next one's timings.
func gc() {
	runtime.GC()
	runtime.GC()
}

func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// open opens a repository and makes it the served one.
func (r *run) open(dir string, hotTicks int) (*serve.Repository, time.Duration, error) {
	var repo *serve.Repository
	d, err := r.tr.timed("serve.open", 0, 0, func() (err error) {
		repo, err = serve.Open(repoOptions(r.d, dir, hotTicks))
		return err
	})
	r.op(err)
	if err != nil {
		return nil, 0, fmt.Errorf("open %s: %w", dir, err)
	}
	r.srv.cur.Store(repo)
	return repo, d, nil
}

func (r *run) close(repo *serve.Repository) error {
	r.srv.cur.Store(nil)
	err := repo.Close()
	r.op(err)
	return err
}

// ingestTick sends one tick's points, encoded in body (ingestBody), over
// /v1/ingest; in the traced run odd ticks go through Repository.Ingest
// instead, so HTTP ingest self time is the difference of the two medians.
func (r *run) ingestTick(repo *serve.Repository, col *traj.Column, body []byte) (d time.Duration, viaHTTP bool, err error) {
	if r.tr.enabled() && col.Tick%2 == 1 {
		d, err = r.tr.timed("serve.ingest", r.tr.newReq(), int64(len(col.IDs)), func() error {
			return repo.Ingest(col.Tick, col.IDs, col.Points)
		})
	} else {
		viaHTTP = true
		var resp []byte
		d, err = r.tr.timed("http.ingest", r.tr.newReq(), int64(len(col.IDs)), func() (err error) {
			resp, err = r.srv.post(pathIngest, body)
			return err
		})
		if err == nil {
			err = checkIngest(resp, col)
		}
	}
	r.op(err)
	return d, viaHTTP, err
}

// load streams ticks [from, to) to repo, one tick per ingest, and seals
// ticks below sealTo with an explicit Flush after every sealEvery-th
// tick and after tick sealTo-1. Ingest latency samples land in r.ingest
// when r.loadSamples is set. The traced run copies the WAL before the
// last flush for the replay measurement.
func (r *run) load(repo *serve.Repository, dir string, from, to, sealTo int) error {
	for t := from; t < to; t++ {
		if col := &r.d.cols[t]; len(col.IDs) > 0 {
			body, err := ingestBody(col)
			if err != nil {
				return err
			}
			d, viaHTTP, err := r.ingestTick(repo, col, body)
			if err != nil {
				return fmt.Errorf("ingest tick %d: %w", t, err)
			}
			if viaHTTP && r.loadSamples {
				r.ingest.add(float64(d.Nanoseconds()) / 1e6)
			}
		}
		if t >= sealTo || (t+1)%sealEvery != 0 && t != sealTo-1 {
			continue
		}
		if t == sealTo-1 && r.traceRun {
			if err := r.copyWAL(dir); err != nil {
				return err
			}
		}
		pts := int64(repo.Stats().HotPoints)
		_, err := r.tr.timed("serve.flush", 0, pts, repo.Flush)
		r.op(err)
		if err != nil {
			return fmt.Errorf("flush at tick %d: %w", t, err)
		}
	}
	r.lay.ingestSyncs = repo.Stats().WAL.Syncs
	r.loadedThrough = to - 1
	return nil
}

// setup builds the workload's repository setupReps times from an empty
// directory with build and reports the median time; each
// repetition is closed, and all but the last directory are removed.
// Before the last close it takes the reference every reopen is checked
// against. It returns the last repetition's directory.
func (r *run) setup(build func(rep int, dir string, repo *serve.Repository) error) (string, error) {
	var dir string
	for i := 0; i < setupReps; i++ {
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return "", err
			}
		}
		dir = r.repoDir(i)
		gc()
		start := time.Now()
		repo, _, err := r.open(dir, bulkHotTicks)
		if err != nil {
			return "", err
		}
		if err := build(i, dir, repo); err != nil {
			repo.Close()
			return "", err
		}
		r.setupS = append(r.setupS, time.Since(start).Seconds())
		if i == setupReps-1 {
			if err := r.takeReference(repo, r.loadedThrough); err != nil {
				repo.Close()
				return "", err
			}
		}
		if err := r.close(repo); err != nil {
			return "", err
		}
	}
	return dir, nil
}

// reopen times one Open of the set-up directory and verifies the
// reopened repository against the reference.
func (r *run) reopen(dir string, hotTicks int) (*serve.Repository, error) {
	if r.traceRun && !r.lay.openParted {
		if err := r.openParts(dir); err != nil {
			return nil, err
		}
	}
	// The previous reopen's segments are garbage from here, so every
	// timed Open starts from the same collected heap.
	r.lay.openSegs = nil
	gc()
	repo, d, err := r.open(dir, hotTicks)
	if err != nil {
		return nil, err
	}
	r.openS = append(r.openS, d.Seconds())
	r.lay.openSegs = repo.Segments()
	r.lay.openReplayed = repo.Stats().WALReplayedPoints
	r.verifyReopen(repo)
	return repo, nil
}

// reopenReps reopens dir openReps times with hotTicks, closing all but
// the last, which it returns.
func (r *run) reopenReps(dir string, hotTicks int) (*serve.Repository, error) {
	for i := 0; ; i++ {
		repo, err := r.reopen(dir, hotTicks)
		if err != nil || i == openReps-1 {
			return repo, err
		}
		if err := r.close(repo); err != nil {
			return nil, err
		}
	}
}

// copyWAL snapshots dir's write-ahead log for the traced replay
// measurement.
func (r *run) copyWAL(dir string) error {
	dst := filepath.Join(r.work, "wal-copy")
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	src := filepath.Join(dir, "wal")
	ents, err := os.ReadDir(src)
	if err != nil {
		return fmt.Errorf("copy wal: %w", err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return fmt.Errorf("copy wal: %w", err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return fmt.Errorf("copy wal: %w", err)
		}
	}
	return nil
}

// stampData records the served repository's shape in the environment
// stamp.
func (r *run) stampData(st serve.Stats) {
	r.env["points"] = r.d.ds.NumPoints()
	r.env["ticks"] = r.d.ticks()
	r.env["trajectories"] = r.d.ds.Len()
	r.env["segments"] = st.Segments
	r.env["sealed_points"] = st.SegmentPoints
	r.env["sealed_through"] = st.SealedThrough
}

// closedLoop runs one goroutine per request generator, each sending its
// next read as soon as the previous one returns, until stop reports true
// (checked before every request with the number completed so far).
// With keep, every checkEvery-th answer per client goes to the oracle.
func (r *run) closedLoop(repo *serve.Repository, gens []func() readReq, stop func(done int64) bool, keep bool) {
	var done atomic.Int64
	var wg sync.WaitGroup
	for _, next := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop(done.Load()); i++ {
				r.read(repo, next(), keep && i%checkEvery == 0)
				done.Add(1)
			}
		}()
	}
	wg.Wait()
}

var speedSink uint64

// speedProbe times a fixed single-goroutine integer kernel (ms). Its
// value before and after the timed phase goes into the environment
// stamp as the machine's speed during the run: on a shared machine it
// tells a slow run from a slow program. No metric is scaled by it.
func speedProbe() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 50_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	speedSink += x
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// calibrateShare is the leading share of a traced run's timed phase
// that runs untraced: the baseline for trace.overhead_pct and the
// window for the runtime counters.
const calibrateShare = 0.3

// timedPhase runs body with end-to-end timing on for r.seconds. In the
// traced run the tracer switches on after the calibration share.
func (r *run) timedPhase(repo *serve.Repository, body func(deadline time.Time)) {
	probe := speedProbe()
	gc()
	if repo != nil {
		r.lay.before = repo.Stats()
	}
	start := time.Now()
	deadline := start.Add(r.seconds)
	r.timing.Store(true)
	r.tr.on.Store(false)
	done := make(chan struct{})
	var wg sync.WaitGroup
	if r.traceRun {
		r.lay.calibrating.Store(true)
		var ms0 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		ops0 := r.attempted.Load()
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case <-time.After(time.Duration(calibrateShare * float64(r.seconds))):
			case <-done:
			}
			var ms1 runtime.MemStats
			runtime.ReadMemStats(&ms1)
			ops := float64(max(r.attempted.Load()-ops0, 1))
			r.lay.allocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / ops
			r.lay.bytesPerOp = float64(ms1.TotalAlloc-ms0.TotalAlloc) / ops
			r.lay.gcPauseMS = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
			r.lay.calibrating.Store(false)
			r.lay.tracedFrom = float64(time.Since(r.tr.t0).Nanoseconds()) / 1e3
			r.tr.on.Store(true)
		}()
	}
	body(deadline)
	elapsed := time.Since(start)
	r.timing.Store(false)
	close(done)
	wg.Wait()
	if repo != nil {
		r.lay.after = repo.Stats()
	}
	r.readTime = elapsed
	r.env["speed_probe_ms"] = (probe + speedProbe()) / 2
}

// untraced switches the tracer off until the returned function restores
// it, so set-up reads stay out of the layer spans.
func (r *run) untraced() func() {
	on := r.tr.on.Swap(false)
	return func() { r.tr.on.Store(on) }
}

// read sends one read over HTTP, records its latency while timing is
// on, and in the traced run replays the same request through the Go API
// under the same request id. keep retains the answer for the oracle.
func (r *run) read(repo *serve.Repository, q readReq, keep bool) (readResult, bool) {
	req := r.tr.newReq()
	res := readResult{req: q}
	name, path := "http.strq", pathQuery
	var body []byte
	var err error
	switch q.kind {
	case kindSTRQ:
		body, err = queryBody(q.strq)
	default:
		name, path = "http.window", pathWindow
		if q.kind == kindScan {
			name = "http.scan"
		}
		body, err = windowBody(q.win)
	}
	var d time.Duration
	if err == nil {
		var resp []byte
		d, err = r.tr.timed(name, req, 0, func() (err error) {
			resp, err = r.srv.post(path, body)
			return err
		})
		switch {
		case err != nil:
		case q.kind == kindSTRQ:
			res.answers, err = decodeQuery(resp, len(q.strq))
		default:
			res.win, err = decodeWindow(resp)
		}
	}
	r.op(err)
	if err != nil {
		if isShed(err) {
			r.lay.shed.Add(1)
		}
		return res, false
	}
	if r.timing.Load() {
		r.readOps.Add(1)
		us := float64(d.Nanoseconds()) / 1e3
		switch q.kind {
		case kindSTRQ:
			r.strq.add(us)
		case kindWindow:
			r.window.add(us)
		default:
			r.scan.add(us / 1e3)
		}
	}
	if r.lay.calibrating.Load() && q.kind == kindSTRQ {
		r.lay.untracedSTRQ.add(float64(d.Nanoseconds()) / 1e3)
	}
	if r.tr.enabled() {
		r.replay(repo, req, q)
		r.keepForLayers(q)
	}
	if keep {
		r.keptMu.Lock()
		r.kept = append(r.kept, res)
		r.keptMu.Unlock()
	}
	return res, true
}

// keepForLayers retains (capped) the traced requests the layer pass
// replays against single layers.
func (r *run) keepForLayers(q readReq) {
	r.keptMu.Lock()
	defer r.keptMu.Unlock()
	switch {
	case q.kind == kindSTRQ && len(r.lay.probes) < layerProbes:
		r.lay.probes = append(r.lay.probes, q.strq...)
	case q.kind == kindWindow && len(r.lay.windows) < layerWindows:
		r.lay.windows = append(r.lay.windows, q.win)
	case q.kind == kindScan && len(r.lay.scans) < layerScans:
		r.lay.scans = append(r.lay.scans, q.win)
	}
}

// replay times the Go-API twin of an HTTP read (traced run only).
func (r *run) replay(repo *serve.Repository, req int64, q readReq) {
	var err error
	switch q.kind {
	case kindSTRQ:
		_, err = r.tr.timed("serve.batch", req, int64(len(q.strq)), func() error {
			for _, a := range repo.Batch(bg, q.strq) {
				if a.Err != "" {
					return fmt.Errorf("batch: %s", a.Err)
				}
			}
			return nil
		})
	case kindWindow, kindScan:
		name := "serve.window"
		if q.kind == kindScan {
			name = "serve.scan"
		}
		_, err = r.tr.timed(name, req, 0, func() error {
			_, err := repo.Window(bg, q.win.Rect, q.win.From, q.win.To, q.win.Exact)
			return err
		})
	}
	if err != nil {
		r.fail(fmt.Errorf("go-api replay: %w", err))
	}
}

// checkKept runs the oracle over every kept answer; each mismatch is a
// failed operation.
func (r *run) checkKept(repo *serve.Repository) {
	r.or.maxDev = maxDeviation(repo)
	r.keptMu.Lock()
	kept := r.kept
	r.kept = nil
	r.keptMu.Unlock()
	for _, k := range kept {
		var err error
		if k.req.kind == kindSTRQ {
			for i, q := range k.req.strq {
				if err = r.or.checkSTRQ(q, k.answers[i]); err != nil {
					break
				}
			}
		} else {
			err = r.or.checkWindow(k.req.win, k.win)
		}
		if err != nil {
			r.fail(fmt.Errorf("oracle: %w", err))
		}
	}
	r.env["oracle_checked"] = r.env["oracle_checked"].(int) + len(kept)
}

// maxDeviation is the largest deviation bound over the sealed segments.
func maxDeviation(repo *serve.Repository) float64 {
	m := 0.0
	for _, s := range repo.Segments() {
		m = max(m, s.Sum.MaxDeviation())
	}
	return m
}

// Request shapes shared by the workloads.
const (
	strqProbes   = 8   // probes per /v1/query request
	strqPathLen  = 8   // path_len on half of them
	windowTicks  = 16  // short window span
	windowSideM  = 500 // short window square side
	scanTicks    = 256 // long "scan" window span
	scanSideM    = 2000
	exactWindows = 4 // one window in exactWindows is exact
)

// strqReq builds one batch of probes from anchor: probe 0 is exact and
// the first half reconstruct paths.
func strqReq(anchor func() (geo.Point, int)) readReq {
	q := make([]serve.STRQRequest, strqProbes)
	for i := range q {
		p, t := anchor()
		q[i] = serve.STRQRequest{P: p, Tick: t, Exact: i == 0}
		if i < strqProbes/2 {
			q[i].PathLen = strqPathLen
		}
	}
	return readReq{kind: kindSTRQ, strq: q}
}

// windowReqAt builds a short window or a scan around an anchor, clipped
// to the readable ticks [lo, hi].
func windowReqAt(rng *rand.Rand, p geo.Point, t, lo, hi int, scan bool) readReq {
	span, side, kind := windowTicks, float64(windowSideM), kindWindow
	if scan {
		span, side, kind = scanTicks, scanSideM, kindScan
	}
	from := t - span/2
	from = max(lo, min(from, hi-span+1))
	to := min(hi, from+span-1)
	exact := !scan && rng.Intn(exactWindows) == 0
	return readReq{kind: kind, win: serve.WindowRequest{Rect: squareAround(p, side), From: from, To: to, Exact: exact}}
}

// mixReq draws from the read mix: 50% STRQ batches, 40% short windows,
// 10% scans.
func mixReq(rng *rand.Rand, anchor func() (geo.Point, int), lo, hi int) readReq {
	switch x := rng.Intn(10); {
	case x < 5:
		return strqReq(anchor)
	case x < 9:
		p, t := anchor()
		return windowReqAt(rng, p, t, lo, hi, false)
	default:
		p, t := anchor()
		return windowReqAt(rng, p, t, lo, hi, true)
	}
}

// clientRand is client c's request stream: the same seed replays the
// same requests.
func clientRand(seed int64, stream string, c int) *rand.Rand {
	h := int64(0)
	for _, b := range []byte(stream) {
		h = h*131 + int64(b)
	}
	return rand.New(rand.NewSource(seed*1_000_003 + h*7919 + int64(c)))
}
