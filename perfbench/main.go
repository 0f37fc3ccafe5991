// Command perfbench is ppqtraj's end-to-end benchmark. It serves an
// in-process serve.Repository through Repository.Handler on a loopback
// listener, drives one named workload from at most two client
// goroutines, checks a seeded sample of answers against brute force over
// the raw dataset, and prints one JSON result line:
//
//	go run . --workload sealed-read --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 replays the same
// seeded requests with spans recorded around each layer's public entry
// points and reports the per-layer metrics instead. Run it from the
// repository root (perfbench/run.sh does, with the Go caches kept in
// .bench_build); working data lives under .bench_build and is removed on
// exit.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"ppqtraj/internal/geo"
	"ppqtraj/internal/serve"
	"ppqtraj/internal/wal"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: sealed-read or live-mixed")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same data and requests")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if _, ok := workloads[*workload]; !ok || *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload sealed-read|live-mixed --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	work := filepath.Join(root, ".bench_build", fmt.Sprintf("perfbench-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		traceRun: *trace == 1,
		work:     work,
		env:      map[string]any{"oracle_checked": 0},
	}
	res, err := r.execute(root)
	if rmErr := os.RemoveAll(work); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, e := range r.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", e)
	}
	env, _ := json.Marshal(map[string]any{"env": r.env})
	fmt.Println(string(env))
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}

func (r *run) execute(root string) (*result, error) {
	r.tr = newTracer(r.traceRun)
	r.d = newData(r.seed)
	gcell := repoOptions(r.d, "", 0).Index.GC
	r.or = &oracle{d: r.d, cellOf: func(p geo.Point) geo.Rect {
		// The repository's query cell: the g_c cell of the global grid
		// anchored at the origin (serve.Repository.QueryCell).
		x, y := math.Floor(p.X/gcell)*gcell, math.Floor(p.Y/gcell)*gcell
		return geo.Rect{MinX: x, MinY: y, MaxX: x + gcell, MaxY: y + gcell}
	}}
	gc()
	r.heapBase = heapAlloc()
	srv, err := startServer()
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	r.srv = srv

	repo, err := workloads[r.workload](r)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			repo.Close()
		}
	}()

	r.checkKept(repo)
	mid := r.d.ticks() / 2
	if err := r.or.selfTest(r.d.cols[mid].Points[0], mid); err != nil {
		r.fail(err)
	}
	gc()
	heapMB := float64(int64(heapAlloc())-int64(r.heapBase)) / (1 << 20)
	q, err := r.quality(repo)
	if err != nil {
		return nil, err
	}
	r.lay.maxDevM = q.maxDevM
	r.stampEnv(root, q)

	m := map[string]metric{}
	pcts := map[string]pct{}
	pctOf := func(name string, s *samples, q float64) float64 {
		pcts[name] = s.quantile(q)
		return pcts[name].Value
	}
	// Tail percentiles ride with the per-layer metrics: on the shared
	// two-core reference machine their run-to-run spread is too wide for
	// a regression bound.
	tails := map[string]float64{
		"strq_p99_us":   pctOf("strq_p99_us", &r.strq, 0.99),
		"window_p99_us": pctOf("window_p99_us", &r.window, 0.99),
		"scan_p99_ms":   pctOf("scan_p99_ms", &r.scan, 0.99),
		"ingest_p99_ms": pctOf("ingest_p99_ms", &r.ingest, 0.99),
	}
	if r.traceRun {
		lm, err := r.layerPass(repo)
		if err != nil {
			return nil, err
		}
		for k, v := range tails {
			lm[k] = v
		}
		for _, pl := range perLayer {
			m[pl.name] = metric{Value: lm[pl.name], Unit: pl.unit}
		}
		dir := filepath.Join(root, ".bench_build", "traces")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed))
		if err := r.tr.write(path); err != nil {
			return nil, err
		}
		r.env["spans_file"] = path
	} else {
		e2e := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
		e2e("setup_s", "s", medianOf(r.setupS))
		e2e("read_ops_per_s", "1/s", ratio(float64(r.readOps.Load()), r.readTime.Seconds()))
		e2e("strq_p50_us", "us", pctOf("strq_p50_us", &r.strq, 0.50))
		e2e("window_p50_us", "us", pctOf("window_p50_us", &r.window, 0.50))
		e2e("scan_p50_ms", "ms", pctOf("scan_p50_ms", &r.scan, 0.50))
		e2e("ingest_p50_ms", "ms", pctOf("ingest_p50_ms", &r.ingest, 0.50))
		e2e("open_s", "s", medianOf(r.openS))
		e2e("bytes_per_point", "bytes", q.bytesPerPoint)
		e2e("mae_m", "m", q.maeM)
		e2e("approx_precision", "ratio", q.precision)
		e2e("heap_mb", "MiB", heapMB)
	}
	r.env["percentiles"] = pcts
	r.env["setup_samples"] = len(r.setupS)
	r.env["open_samples"] = len(r.openS)
	closed = true
	if err := r.close(repo); err != nil {
		return nil, err
	}
	return &result{
		Correct:   r.failed.Load() == 0,
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   m,
	}, nil
}

// stampEnv records the environment the numbers were measured in.
func (r *run) stampEnv(root string, q qualityResult) {
	r.env["workload"] = r.workload
	r.env["seed"] = r.seed
	r.env["trace"] = r.traceRun
	r.env["seconds"] = r.seconds.Seconds()
	r.env["gomaxprocs"] = runtime.GOMAXPROCS(0)
	r.env["nproc"] = runtime.NumCPU()
	r.env["go_version"] = runtime.Version()
	r.env["source_sha256"] = sourceHash(root)
	r.env["clients"] = maxClients
	r.env["cache_bytes"] = serve.DefaultCacheBytes
	r.env["wal_policy"] = string(wal.SyncEvery)
	r.env["wal_sync_interval_ms"] = 100
	r.env["max_dev_bound_m"] = q.boundM
	r.env["max_dev_observed_m"] = q.maxDevM
}

// sourceHash fingerprints the Go sources of the checkout (which is not
// a git repository when the benchmark runs), standing in for a commit.
func sourceHash(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error { //nolint:errcheck // best-effort stamp
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && p != root) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
