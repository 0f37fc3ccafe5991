package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"ppqtraj/internal/core"
	"ppqtraj/internal/exec"
	"ppqtraj/internal/index"
	"ppqtraj/internal/query"
	"ppqtraj/internal/serve"
	"ppqtraj/internal/wal"
)

// layerState collects the traced run's per-layer observations that are
// not spans.
type layerState struct {
	shed         atomic.Int64
	calibrating  atomic.Bool
	untracedSTRQ samples // HTTP STRQ latency (µs) before the tracer switched on
	sealLag      samples // newest acknowledged tick − sealed watermark
	lateMS       float64 // generator lateness p99 (live-mixed)
	// before and after bracket the timed phase for the serve, cache and
	// WAL counters.
	before, after serve.Stats
	// Runtime counters over the untraced calibration window.
	allocsPerOp, bytesPerOp, gcPauseMS float64
	// ingestSyncs is the WAL fsync count of the repository that took the
	// workload's ingest, read when that ingest ended.
	ingestSyncs int64
	// openSegs are the segments of the set-up repository as reopened:
	// the files the open_s measurement loaded.
	openSegs     []*serve.Segment
	openReplayed int64 // WAL points the set-up reopen replayed
	// Open's core and query parts, timed once before the first reopen.
	openParted                   bool
	readSummaryMS, buildEngineMS float64
	maxDevM                      float64
	// tracedFrom is when the tracer switched on (µs on the tracer clock).
	tracedFrom float64
	// The run's own requests, kept (capped) for the layer replays.
	probes         []serve.STRQRequest
	windows, scans []serve.WindowRequest
}

// perLayer names every per-layer metric with its unit, in output order:
// the end-to-end tail percentiles first, then one group per layer, each
// measured around a public entry point the ROADMAP keeps.
var perLayer = []struct{ name, unit string }{
	{"strq_p99_us", "us"},
	{"window_p99_us", "us"},
	{"scan_p99_ms", "ms"},
	{"ingest_p99_ms", "ms"},
	{"http.strq_us", "us"},
	{"http.window_us", "us"},
	{"http.ingest_us", "us"},
	{"admit.shed", "count"},
	{"serve.batch_us", "us"},
	{"serve.window_us", "us"},
	{"serve.scan_ms", "ms"},
	{"serve.ingest_us", "us"},
	{"serve.flush_s_per_mpt", "s/Mpt"},
	{"serve.segments_skipped_ratio", "ratio"},
	{"serve.cells_scanned_per_window", "count"},
	{"serve.cells_skipped_ratio", "ratio"},
	{"serve.seal_lag_ticks", "ticks"},
	{"serve.compactions", "count"},
	{"serve.open_other_ms", "ms"},
	{"exec.scan_us_per_segment", "us"},
	{"index.cursor_cells_per_s", "1/s"},
	{"index.decode_ns_per_cell", "ns"},
	{"cache.hit_ratio", "ratio"},
	{"cache.evictions", "count"},
	{"cache.bytes", "bytes"},
	{"query.strq_us", "us"},
	{"query.build_engine_ms", "ms"},
	{"core.build_mpts_per_s", "Mpt/s"},
	{"core.write_ms", "ms"},
	{"core.read_summary_ms", "ms"},
	{"core.decode_mpts_per_s", "Mpt/s"},
	{"core.bits_per_point", "bits"},
	{"core.max_dev_m", "m"},
	{"wal.replay_mpts_per_s", "Mpt/s"},
	{"wal.syncs", "count"},
	{"wal.bytes_per_point", "bytes"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.gc_pause_ms", "ms"},
	{"load.late_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// Caps on the traced post-pass, so it stays a few seconds.
const (
	layerProbes  = 2000
	layerWindows = 400
	layerScans   = 32
)

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerPass measures the per-layer metrics after the timed phase of the
// traced run. Spans recorded during the run give the HTTP, serve and
// ingest layers; the rest come from replaying the run's own requests
// and segment files against single layers here.
func (r *run) layerPass(repo *serve.Repository) (map[string]float64, error) {
	tr := r.tr
	m := map[string]float64{}
	st, b := r.lay.after, r.lay.before

	// HTTP self time: the HTTP request minus its Go-API replay. Ingest
	// cannot be replayed, so it compares alternating ticks instead.
	m["http.strq_us"] = tr.selfMedian("http.strq", "serve.batch")
	m["http.window_us"] = tr.selfMedian("http.window", "serve.window")
	m["http.ingest_us"] = tr.medianDur("http.ingest") - tr.medianDur("serve.ingest")
	m["admit.shed"] = float64(r.lay.shed.Load() + st.Admission.Ingest.Shed + st.Admission.Query.Shed + st.Admission.QuotaRejected)

	m["serve.batch_us"] = tr.medianDur("serve.batch")
	m["serve.window_us"] = tr.medianDur("serve.window")
	m["serve.scan_ms"] = tr.medianDur("serve.scan") / 1e3
	m["serve.ingest_us"] = tr.medianDur("serve.ingest")
	flushUS, flushPts := tr.totals("serve.flush")
	m["serve.flush_s_per_mpt"] = ratio(flushUS/1e6, float64(flushPts)/1e6)
	w := st.Window
	segScan, segSkip := float64(w.SegmentsScanned-b.Window.SegmentsScanned), float64(w.SegmentsSkipped-b.Window.SegmentsSkipped)
	cellScan, cellSkip := float64(w.CellsScanned-b.Window.CellsScanned), float64(w.CellsSkipped-b.Window.CellsSkipped)
	m["serve.segments_skipped_ratio"] = ratio(segSkip, segScan+segSkip)
	m["serve.cells_scanned_per_window"] = ratio(cellScan, float64(w.Queries-b.Window.Queries))
	m["serve.cells_skipped_ratio"] = ratio(cellSkip, cellScan+cellSkip)
	if r.lay.sealLag.n() == 0 {
		// No ingest in the timed phase: every resident tick is acknowledged.
		newest := st.SealedThrough
		if st.HotPoints > 0 {
			newest = r.d.ticks() - 1
		}
		r.lay.sealLag.add(float64(newest - st.SealedThrough))
	}
	m["serve.seal_lag_ticks"] = r.lay.sealLag.median()
	m["serve.compactions"] = float64(st.Compactions - b.Compactions)

	c := st.Cache
	hits, misses := float64(c.Hits-b.Cache.Hits), float64(c.Misses-b.Cache.Misses)
	m["cache.hit_ratio"] = ratio(hits, hits+misses)
	m["cache.evictions"] = float64(c.Evictions - b.Cache.Evictions)
	m["cache.bytes"] = float64(c.Bytes)

	r.coreLayers(m)
	r.readLayers(m, repo)
	replayRate, err := r.walLayers(m)
	if err != nil {
		return nil, err
	}
	// Open's WAL share is modelled as the points it replayed at the
	// measured replay rate.
	replayMS := ratio(float64(r.lay.openReplayed), replayRate) * 1e3
	m["serve.open_other_ms"] = medianOf(r.openS)*1e3 - m["core.read_summary_ms"] - m["query.build_engine_ms"] - replayMS

	m["runtime.allocs_per_op"] = r.lay.allocsPerOp
	m["runtime.alloc_bytes_per_op"] = r.lay.bytesPerOp
	m["runtime.gc_pause_ms"] = r.lay.gcPauseMS
	m["load.late_ms"] = r.lay.lateMS
	m["core.max_dev_m"] = r.lay.maxDevM
	if base := r.lay.untracedSTRQ.median(); base > 0 {
		m["trace.overhead_pct"] = 100 * (tr.medianSince("http.strq", r.lay.tracedFrom)/base - 1)
	}
	return m, nil
}

// openParts times Open's core and query parts on dir's segment files,
// core.ReadSummary and query.BuildEngine, starting from the collected
// heap every timed Open starts from. The traced run does this once,
// before its first reopen.
func (r *run) openParts(dir string) error {
	files, err := filepath.Glob(filepath.Join(dir, "seg-*.ppqs"))
	if err != nil {
		return err
	}
	gc()
	var readD, buildD time.Duration
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("open parts: %w", err)
		}
		var sum *core.Summary
		d, err := r.tr.timed("core.read_summary", 0, 0, func() (err error) {
			sum, err = core.ReadSummary(f)
			return err
		})
		f.Close()
		if err != nil {
			return fmt.Errorf("open parts: read %s: %w", path, err)
		}
		readD += d
		d, err = r.tr.timed("query.build_engine", 0, int64(sum.NumPoints), func() error {
			_, err := query.BuildEngine(sum, repoOptions(r.d, "", 0).Index, nil)
			return err
		})
		if err != nil {
			return fmt.Errorf("open parts: build engine: %w", err)
		}
		buildD += d
	}
	r.lay.readSummaryMS, r.lay.buildEngineMS = ms(readD), ms(buildD)
	r.lay.openParted = true
	return nil
}

// coreLayers measures core on the set-up segments' summaries:
// Summary.WriteTo, Summary.Decode, and Builder.Append over the same
// tick ranges of raw columns.
func (r *run) coreLayers(m map[string]float64) {
	var writeD, decD, appendD time.Duration
	var bits, pts int64
	gc()
	for _, seg := range r.lay.openSegs {
		sum := seg.Sum
		d, err := r.tr.timed("core.write", 0, int64(seg.Points), func() error {
			_, err := sum.WriteTo(io.Discard)
			return err
		})
		if err != nil {
			r.fail(fmt.Errorf("layer pass: write: %w", err))
		}
		writeD += d
		d, err = r.tr.timed("core.decode", 0, int64(seg.Points), func() error {
			for _, id := range sum.TrajIDs() {
				if _, err := sum.Decode(id); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			r.fail(fmt.Errorf("layer pass: decode: %w", err))
		}
		decD += d
		bld := core.NewBuilder(repoOptions(r.d, "", 0).Build)
		d, _ = r.tr.timed("core.append", 0, int64(seg.Points), func() error {
			for t := seg.StartTick; t <= seg.EndTick; t++ {
				if len(r.d.cols[t].IDs) > 0 {
					bld.Append(&r.d.cols[t])
				}
			}
			return nil
		})
		appendD += d
		bits += int64(sum.SizeBytes()) * 8
		pts += int64(seg.Points)
	}
	m["core.read_summary_ms"] = r.lay.readSummaryMS
	m["query.build_engine_ms"] = r.lay.buildEngineMS
	m["core.write_ms"] = ms(writeD)
	m["core.bits_per_point"] = ratio(float64(bits), float64(pts))
	m["core.decode_mpts_per_s"] = ratio(float64(pts)/1e6, decD.Seconds())
	m["core.build_mpts_per_s"] = ratio(float64(pts)/1e6, appendD.Seconds())
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// readLayers replays the run's own reads against single layers:
// Engine.STRQ on sealed probes, exec.OpenScanPipe + exec.AppendIDs per
// segment of the scans, and TPI.RangeCursor drains of the short windows.
func (r *run) readLayers(m map[string]float64, repo *serve.Repository) {
	segs := repo.Segments()
	find := func(tick int) *serve.Segment {
		for _, s := range segs {
			if s.Covers(tick) {
				return s
			}
		}
		return nil
	}
	var strq samples
	for _, q := range r.lay.probes {
		s := find(q.Tick)
		if s == nil {
			continue
		}
		start := time.Now()
		_, err := s.Eng.STRQ(bg, q.P, q.Tick, false, nil)
		if err != nil {
			r.fail(fmt.Errorf("layer pass: engine strq: %w", err))
			continue
		}
		strq.add(float64(time.Since(start).Nanoseconds()) / 1e3)
	}
	m["query.strq_us"] = strq.median()

	var perSeg samples
	for _, w := range r.lay.scans {
		for _, s := range segs {
			lo, hi := max(w.From, s.StartTick), min(w.To, s.EndTick)
			if lo > hi {
				continue
			}
			var st index.ScanStats
			var rows int64
			cls := exec.Classifier{Rect: w.Rect, Margin: s.Eng.Margin()}
			start := time.Now()
			pipe := exec.OpenScanPipe(bg, s.Eng.Idx, s.Eng.Sum, cls, lo, hi, &st, &rows, nil)
			_, err := exec.AppendIDs(pipe.Iterator(), lo, hi, nil)
			pipe.Close()
			d := time.Since(start)
			r.tr.record("exec.scan_segment", 0, start, d, rows)
			if err != nil {
				r.fail(fmt.Errorf("layer pass: scan pipe: %w", err))
				continue
			}
			perSeg.add(float64(d.Nanoseconds()) / 1e3)
		}
	}
	m["exec.scan_us_per_segment"] = perSeg.median()

	// Uncached engines rebuilt from the summaries of the segments the
	// short windows touch, so every cursor pull decodes.
	uncached := map[uint64]*query.Engine{}
	var cells, scanned int64
	var cur time.Duration
	for _, w := range r.lay.windows {
		for _, s := range segs {
			lo, hi := max(w.From, s.StartTick), min(w.To, s.EndTick)
			if lo > hi {
				continue
			}
			eng := uncached[s.ID]
			if eng == nil {
				var err error
				if eng, err = query.BuildEngine(s.Sum, repoOptions(r.d, "", 0).Index, nil); err != nil {
					r.fail(fmt.Errorf("layer pass: rebuild engine: %w", err))
					return
				}
				uncached[s.ID] = eng
			}
			var st index.ScanStats
			area := w.Rect.Expand(eng.Margin())
			start := time.Now()
			c := eng.Idx.RangeCursor(area, lo, hi, &st, nil)
			for {
				if _, ok := c.Next(); !ok {
					break
				}
			}
			d := time.Since(start)
			r.tr.record("index.range_cursor", 0, start, d, int64(st.CellsScanned))
			cur += d
			cells += int64(st.CellsScanned + st.CellsSkipped)
			scanned += int64(st.CellsScanned)
		}
	}
	m["index.cursor_cells_per_s"] = ratio(float64(cells), cur.Seconds())
	m["index.decode_ns_per_cell"] = ratio(float64(cur.Nanoseconds()), float64(scanned))
}

// walLayers replays the copied write-ahead log through wal.Open,
// returning the replay rate (points/s), and measures the record encoding
// of the workload's ingest stream.
func (r *run) walLayers(m map[string]float64) (float64, error) {
	var pts int64
	dir := filepath.Join(r.work, "wal-copy")
	var d time.Duration
	d, err := r.tr.timed("wal.replay", 0, 0, func() error {
		l, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNever}, func(rec wal.Record) error {
			pts += int64(len(rec.IDs))
			return nil
		})
		if err != nil {
			return err
		}
		return l.Close()
	})
	if err != nil {
		return 0, fmt.Errorf("layer pass: wal replay: %w", err)
	}
	rate := ratio(float64(pts), d.Seconds())
	m["wal.replay_mpts_per_s"] = rate / 1e6
	m["wal.syncs"] = float64(r.lay.ingestSyncs)
	var frame []byte
	var bytes, n int64
	for t := range r.d.cols {
		c := &r.d.cols[t]
		if len(c.IDs) == 0 {
			continue
		}
		frame = wal.EncodeFrame(frame[:0], wal.Record{Tick: t, IDs: c.IDs, Points: c.Points})
		bytes += int64(len(frame))
		n += int64(len(c.IDs))
	}
	m["wal.bytes_per_point"] = ratio(float64(bytes), float64(n))
	return rate, nil
}
