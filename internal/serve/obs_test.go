package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"ppqtraj/internal/geo"
	"ppqtraj/internal/obs"
)

// obsServer opens a memory-only repository with the given extra option
// tweaks and serves its handler.
func obsServer(t *testing.T, tweak func(*Options)) (*Repository, *httptest.Server) {
	t.Helper()
	opts := testOptions(nil)
	opts.HotTicks = 1 << 20 // keep ticks hot: no compaction noise unless a test flushes
	opts.CompactInterval = 0
	if tweak != nil {
		tweak(&opts)
	}
	repo, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repo.Close() })
	srv := httptest.NewServer(repo.Handler())
	t.Cleanup(srv.Close)
	return repo, srv
}

func obsPost(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, blob
}

func obsIngestBody(tick, base, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"ticks":[{"tick":%d,"points":[`, tick)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"id":%d,"x":%g,"y":%g}`, base+i, -8.6+float64(i)*1e-4, 41.1+float64(tick)*1e-4)
	}
	b.WriteString(`]}]}`)
	return b.String()
}

func obsQueryBody(tick, n int) string {
	var b strings.Builder
	b.WriteString(`{"queries":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"p":{"X":%g,"Y":41.1},"tick":%d}`, -8.6+float64(i)*1e-4, tick)
	}
	b.WriteString(`]}`)
	return b.String()
}

// TestMetricsExposition drives both hot paths and asserts /metrics
// serves well-formed Prometheus text covering the ingest, query, WAL,
// admission, and cache families the scrape contract promises.
func TestMetricsExposition(t *testing.T) {
	_, srv := obsServer(t, nil)
	for tick := 0; tick < 3; tick++ {
		if resp, blob := obsPost(t, srv.URL+"/v1/ingest", obsIngestBody(tick, 1, 50)); resp.StatusCode != 200 {
			t.Fatalf("ingest: %d %s", resp.StatusCode, blob)
		}
	}
	if resp, blob := obsPost(t, srv.URL+"/v1/query",
		`{"queries":[{"p":{"X":-8.6,"Y":41.1},"tick":1}]}`); resp.StatusCode != 200 {
		t.Fatalf("query: %d %s", resp.StatusCode, blob)
	}
	if resp, blob := obsPost(t, srv.URL+"/v1/window",
		`{"rect":{"MinX":-9,"MinY":41,"MaxX":-8,"MaxY":42},"from":0,"to":2}`); resp.StatusCode != 200 {
		t.Fatalf("window: %d %s", resp.StatusCode, blob)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	text := string(blob)

	// Every series the scrape contract names must be present.
	for _, name := range []string{
		"ppq_ingest_points_total", "ppq_ingest_batches_total", "ppq_ingest_errors_total",
		"ppq_ingest_batch_points", "ppq_queries_total", "ppq_query_errors_total",
		"ppq_window_queries_total", "ppq_window_segments_scanned_total",
		"ppq_window_cells_scanned_total", "ppq_window_cells_skipped_total",
		"ppq_wal_syncs_total", "ppq_wal_appends_total", "ppq_wal_failed",
		"ppq_admission_admitted_total", "ppq_admission_shed_total", "ppq_admission_wait_seconds",
		"ppq_cache_hits_total", "ppq_cache_misses_total", "ppq_cache_bytes",
		"ppq_request_seconds", "ppq_ingest_stage_seconds", "ppq_query_stage_seconds",
		"ppq_segments", "ppq_hot_points", "ppq_degraded", "ppq_goroutines", "ppq_heap_alloc_bytes",
	} {
		if !strings.Contains(text, "# TYPE "+name+" ") {
			t.Errorf("/metrics missing family %s", name)
		}
	}

	// Exposition shape: every non-comment line is `name{labels} value`.
	lineRe := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !lineRe.MatchString(line) {
			t.Fatalf("malformed exposition line: %q", line)
		}
	}

	// Spot-check values against the workload: 150 points over 3 batches.
	if !strings.Contains(text, "ppq_ingest_points_total 150") {
		t.Errorf("ingest points series wrong:\n%s", grepLines(text, "ppq_ingest_points_total"))
	}
	if !strings.Contains(text, "ppq_ingest_batches_total 3") {
		t.Errorf("ingest batches series wrong:\n%s", grepLines(text, "ppq_ingest_batches_total"))
	}
	// The per-endpoint request histogram must carry one count per request.
	if !strings.Contains(text, `ppq_request_seconds_count{endpoint="ingest"} 3`) {
		t.Errorf("request histogram wrong:\n%s", grepLines(text, "ppq_request_seconds_count"))
	}
	// Histogram buckets must be cumulative: the +Inf bucket equals _count.
	if !strings.Contains(text, `ppq_request_seconds_bucket{endpoint="ingest",le="+Inf"} 3`) {
		t.Errorf("+Inf bucket wrong:\n%s", grepLines(text, `le="\+Inf"`))
	}
}

func grepLines(text, substr string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestSlowQueryLog sets a zero-distance threshold so every request is
// "slow" and asserts each emits one JSON line whose stage durations
// account for at least 90% of wall time.
func TestSlowQueryLog(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	_, srv := obsServer(t, func(o *Options) {
		o.SlowQuery = 1 // 1ns: everything is slow
		// Error level drops routine chatter; Raw (the slow-query line)
		// bypasses the level filter by design.
		o.Log = obs.NewLogger(&syncWriter{mu: &mu, w: &buf}, obs.LevelError, obs.FormatJSON)
	})
	// Requests must be big enough that real stage work dominates the
	// fixed inter-lap overhead — the scale actual slow queries live at.
	if resp, blob := obsPost(t, srv.URL+"/v1/ingest", obsIngestBody(0, 1, 5000)); resp.StatusCode != 200 {
		t.Fatalf("ingest: %d %s", resp.StatusCode, blob)
	}
	if resp, blob := obsPost(t, srv.URL+"/v1/query", obsQueryBody(0, 500)); resp.StatusCode != 200 {
		t.Fatalf("query: %d %s", resp.StatusCode, blob)
	}

	mu.Lock()
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	mu.Unlock()
	if len(lines) != 2 {
		t.Fatalf("slow-query lines = %d, want 2: %q", len(lines), lines)
	}
	endpoints := map[string]bool{}
	for _, line := range lines {
		var rec struct {
			Msg      string  `json:"msg"`
			Endpoint string  `json:"endpoint"`
			WallMs   float64 `json:"wall_ms"`
			StagedMs float64 `json:"staged_ms"`
			Stages   []struct {
				Name string  `json:"name"`
				Ms   float64 `json:"ms"`
			} `json:"stages"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("slow-query line is not JSON: %v: %q", err, line)
		}
		if rec.Msg != "slow_query" {
			t.Fatalf("msg = %q", rec.Msg)
		}
		endpoints[rec.Endpoint] = true
		if rec.WallMs <= 0 || len(rec.Stages) == 0 {
			t.Fatalf("degenerate record: %q", line)
		}
		// The ≥90% accounting contract. Laps partition the request up to
		// the final write lap, which fires before finish() reads the
		// report, so the unaccounted residue is only dispatch overhead.
		if rec.StagedMs < 0.9*rec.WallMs {
			t.Errorf("%s: staged %.3fms < 90%% of wall %.3fms: %q",
				rec.Endpoint, rec.StagedMs, rec.WallMs, line)
		}
		var sum float64
		for _, s := range rec.Stages {
			sum += s.Ms
		}
		if diff := sum - rec.StagedMs; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("stage sum %.6f != staged_ms %.6f", sum, rec.StagedMs)
		}
	}
	if !endpoints["ingest"] || !endpoints["query"] {
		t.Fatalf("endpoints logged = %v, want ingest and query", endpoints)
	}
}

type syncWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// TestTraceInline asserts ?trace=1 returns the stage breakdown in the
// response and that the stages partition the measured wall time, for
// both the query and window endpoints (the window executor contributes
// its own plan/scan/merge laps plus planner facts).
func TestTraceInline(t *testing.T) {
	repo, srv := obsServer(t, nil)
	for tick := 0; tick < 20; tick++ {
		if resp, blob := obsPost(t, srv.URL+"/v1/ingest", obsIngestBody(tick, 1, 40)); resp.StatusCode != 200 {
			t.Fatalf("ingest: %d %s", resp.StatusCode, blob)
		}
	}
	if err := repo.Flush(); err != nil { // some sealed segments for the window scan
		t.Fatal(err)
	}

	checkTrace := func(tag string, tr *obs.TraceReport, wantStages ...string) {
		t.Helper()
		if tr == nil {
			t.Fatalf("%s: no trace in response", tag)
		}
		if tr.StagedMs < 0.9*tr.WallMs {
			t.Errorf("%s: staged %.3f < 90%% of wall %.3f (%+v)", tag, tr.StagedMs, tr.WallMs, tr.Stages)
		}
		have := map[string]bool{}
		for _, s := range tr.Stages {
			have[s.Name] = true
		}
		for _, want := range wantStages {
			if !have[want] {
				t.Errorf("%s: missing stage %q in %+v", tag, want, tr.Stages)
			}
		}
	}

	_, blob := obsPost(t, srv.URL+"/v1/query?trace=1", obsQueryBody(5, 500))
	var qr QueryResponse
	if err := json.Unmarshal(blob, &qr); err != nil {
		t.Fatal(err)
	}
	checkTrace("query", qr.Trace, "admission", "read_body", "validate", "execute")

	_, blob = obsPost(t, srv.URL+"/v1/window?trace=1",
		`{"rect":{"MinX":-9,"MinY":41,"MaxX":-8,"MaxY":42},"from":0,"to":19}`)
	var wr struct {
		WindowResult
		Trace *obs.TraceReport `json:"trace"`
	}
	if err := json.Unmarshal(blob, &wr); err != nil {
		t.Fatal(err)
	}
	checkTrace("window", wr.Trace, "admission", "read_body", "validate",
		"plan", "segment_scan", "hot_scan", "merge", "execute")
	if wr.Trace.Facts["segments_scanned"] == 0 {
		t.Errorf("window trace carries no planner facts: %+v", wr.Trace.Facts)
	}
	if got := wr.Trace.Facts["ticks_probed"]; got != int64(wr.Ticks) {
		t.Errorf("trace ticks_probed = %d, result says %d", got, wr.Ticks)
	}

	// An un-traced request must not carry the field.
	_, blob = obsPost(t, srv.URL+"/v1/query",
		`{"queries":[{"p":{"X":-8.6,"Y":41.1},"tick":5}]}`)
	if strings.Contains(string(blob), `"trace"`) {
		t.Fatalf("trace leaked into un-traced response: %s", blob)
	}
}

// TestSTRQLeavesWindowTelemetry checks that probes, though they run the
// window plan over one tick, are not counted as windows: a Batch over
// sealed and hot ticks leaves Stats().Window and every ppq_window_* and
// ppq_exec_* series unchanged, and a traced /v1/query carries none of
// the window plan's stage laps.
func TestSTRQLeavesWindowTelemetry(t *testing.T) {
	repo, srv := obsServer(t, nil)
	for tick := 0; tick < 25; tick++ {
		if resp, blob := obsPost(t, srv.URL+"/v1/ingest", obsIngestBody(tick, 1, 40)); resp.StatusCode != 200 {
			t.Fatalf("ingest: %d %s", resp.StatusCode, blob)
		}
		if tick == 19 {
			if err := repo.Flush(); err != nil { // sealed ticks 0..19, hot 20..24
				t.Fatal(err)
			}
		}
	}
	if _, blob := obsPost(t, srv.URL+"/v1/window",
		`{"rect":{"MinX":-9,"MinY":41,"MaxX":-8,"MaxY":42},"from":0,"to":24}`); !strings.Contains(string(blob), `"ids":[`) {
		t.Fatalf("window found nothing: %s", blob)
	}
	windowSeries := func() string {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		blob, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var out []string
		for _, line := range strings.Split(string(blob), "\n") {
			if strings.HasPrefix(line, "ppq_window_") || strings.HasPrefix(line, "ppq_exec_") {
				out = append(out, line)
			}
		}
		return strings.Join(out, "\n")
	}
	beforeStats, beforeSeries := repo.Stats().Window, windowSeries()

	var reqs []STRQRequest
	for _, tick := range []int{3, 19, 20, 24} {
		reqs = append(reqs, STRQRequest{P: obs0(tick), Tick: tick}, STRQRequest{P: obs0(tick), Tick: tick, PathLen: 2})
	}
	for i, ans := range repo.Batch(t.Context(), reqs) {
		if ans.Err != "" || len(ans.IDs) == 0 {
			t.Fatalf("probe %d (tick %d): %+v", i, reqs[i].Tick, ans)
		}
	}
	_, blob := obsPost(t, srv.URL+"/v1/query?trace=1", obsQueryBody(5, 8))
	var qr QueryResponse
	if err := json.Unmarshal(blob, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Trace == nil {
		t.Fatalf("no trace in %s", blob)
	}
	for _, s := range qr.Trace.Stages {
		switch s.Name {
		case "hot_scan", "plan", "segment_scan", "merge":
			t.Errorf("probe trace carries window stage %q: %+v", s.Name, qr.Trace.Stages)
		}
	}

	if after := repo.Stats().Window; after != beforeStats {
		t.Errorf("probes moved the window stats: %+v -> %+v", beforeStats, after)
	}
	if after := windowSeries(); after != beforeSeries {
		t.Errorf("probes moved the window/exec series:\n%s\n->\n%s", beforeSeries, after)
	}
}

// obs0 is the position obsIngestBody gives its first trajectory at tick.
func obs0(tick int) geo.Point { return geo.Pt(-8.6, 41.1+float64(tick)*1e-4) }

// TestStatsConsistentSnapshot asserts /v1/stats is one coherent view:
// the counters of a quiesced server reconcile with the workload exactly,
// and /metrics reports the very same numbers.
func TestStatsConsistentSnapshot(t *testing.T) {
	repo, srv := obsServer(t, nil)
	const batches, perBatch = 5, 30
	for tick := 0; tick < batches; tick++ {
		if resp, blob := obsPost(t, srv.URL+"/v1/ingest", obsIngestBody(tick, 1, perBatch)); resp.StatusCode != 200 {
			t.Fatalf("ingest: %d %s", resp.StatusCode, blob)
		}
	}
	// One rejected batch: non-contiguous tick for a live trajectory.
	if resp, _ := obsPost(t, srv.URL+"/v1/ingest", obsIngestBody(batches+5, 1, 1)); resp.StatusCode != 422 {
		t.Fatalf("gap ingest: status %d, want 422", resp.StatusCode)
	}
	const queries = 4
	for i := 0; i < queries; i++ {
		if resp, blob := obsPost(t, srv.URL+"/v1/query",
			`{"queries":[{"p":{"X":-8.6,"Y":41.1},"tick":1}]}`); resp.StatusCode != 200 {
			t.Fatalf("query: %d %s", resp.StatusCode, blob)
		}
	}

	st := repo.Stats()
	if st.IngestedPoints != batches*perBatch {
		t.Errorf("IngestedPoints = %d, want %d", st.IngestedPoints, batches*perBatch)
	}
	if st.Queries != queries {
		t.Errorf("Queries = %d, want %d", st.Queries, queries)
	}
	// Admission must reconcile with the HTTP traffic: every request above
	// was admitted, none shed.
	if got := st.Admission.Ingest.Admitted; got != batches+1 {
		t.Errorf("ingest admitted = %d, want %d", got, batches+1)
	}
	if got := st.Admission.Query.Admitted; got != queries {
		t.Errorf("query admitted = %d, want %d", got, queries)
	}
	if st.Admission.Ingest.Shed != 0 || st.Admission.Query.Shed != 0 {
		t.Errorf("unexpected shedding: %+v", st.Admission)
	}
	// Hot tail holds everything (no compaction): points in == points held.
	if st.HotPoints != batches*perBatch {
		t.Errorf("HotPoints = %d, want %d", st.HotPoints, batches*perBatch)
	}

	// /metrics must agree number for number with the stats snapshot.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		fmt.Sprintf("ppq_ingest_points_total %d", st.IngestedPoints),
		fmt.Sprintf("ppq_queries_total %d", st.Queries),
		fmt.Sprintf("ppq_ingest_errors_total %d", 1),
		fmt.Sprintf(`ppq_admission_admitted_total{class="ingest"} %d`, st.Admission.Ingest.Admitted),
		fmt.Sprintf("ppq_hot_points %d", st.HotPoints),
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %q:\n%s", want, grepLines(string(text), strings.Fields(want)[0]))
		}
	}
}

// TestReadyzLifecycle: /readyz mirrors serving fitness (degraded or
// draining → 503) while /healthz stays a pure liveness probe.
func TestReadyzLifecycle(t *testing.T) {
	repo, srv := obsServer(t, nil)
	get := func(path string) int {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz"); got != 200 {
		t.Fatalf("/healthz = %d", got)
	}
	if got := get("/readyz"); got != 200 {
		t.Fatalf("/readyz = %d", got)
	}
	repo.draining.Store(true)
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %d, want 503", got)
	}
	if got := get("/healthz"); got != 200 {
		t.Fatalf("/healthz while draining = %d (liveness must not flip)", got)
	}
	repo.draining.Store(false)
	if got := get("/readyz"); got != 200 {
		t.Fatalf("/readyz after drain cleared = %d", got)
	}
}

// TestRegistryConcurrentWorkload hammers the whole instrumented stack —
// concurrent ingest, query, window, stats, and metrics scrapes — and is
// the serve-level -race witness that one registry serving writers and
// snapshot readers at once is sound.
func TestRegistryConcurrentWorkload(t *testing.T) {
	repo, srv := obsServer(t, func(o *Options) { o.SlowQuery = 1 })
	const workers, iters = 4, 15
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := 1 + w*1000
			for i := 0; i < iters; i++ {
				obsPost(t, srv.URL+"/v1/ingest", obsIngestBody(i, base, 20))
				obsPost(t, srv.URL+"/v1/query?trace=1",
					fmt.Sprintf(`{"queries":[{"p":{"X":-8.6,"Y":41.1},"tick":%d}]}`, i))
				obsPost(t, srv.URL+"/v1/window",
					fmt.Sprintf(`{"rect":{"MinX":-9,"MinY":41,"MaxX":-8,"MaxY":42},"from":0,"to":%d}`, i))
				if resp, err := http.Get(srv.URL + "/metrics"); err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				repo.Stats()
			}
		}(w)
	}
	wg.Wait()
	st := repo.Stats()
	if want := int64(workers * iters * 20); st.IngestedPoints != want {
		t.Fatalf("IngestedPoints = %d, want %d", st.IngestedPoints, want)
	}
	if st.Queries == 0 || st.Window.Queries == 0 {
		t.Fatalf("query counters did not move: %+v", st)
	}
}
