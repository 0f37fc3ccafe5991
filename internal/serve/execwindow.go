package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"ppqtraj/internal/exec"
	"ppqtraj/internal/geo"
	"ppqtraj/internal/index"
	"ppqtraj/internal/obs"
	"ppqtraj/internal/par"
	"ppqtraj/internal/query"
	"ppqtraj/internal/traj"
)

// planWindow builds the window query's execution plan against one
// routing-view snapshot: the span is split at segment boundaries
// (exec.SplitSpan — the same helper the path stitcher uses), each
// sub-span is scored by its segment's zone-map selectivity, and
// exec.Plan prunes provably-empty scans and orders the rest
// largest-estimated-work first. Scan.ID indexes segs. Each overlapping
// segment appears exactly once in ordered+pruned, so skip accounting is
// once per plan by construction.
func planWindow(segs []*Segment, rect geo.Rect, from, to int) (ordered, pruned []exec.Scan) {
	// Segments are ascending and disjoint, so only segs[lo:hi] can
	// overlap the span: a one-tick probe plans in O(log segments).
	lo := sort.Search(len(segs), func(i int) bool { return segs[i].EndTick >= from })
	hi := lo + sort.Search(len(segs)-lo, func(i int) bool { return segs[lo+i].StartTick > to })
	scans := make([]exec.Scan, 0, hi-lo)
	exec.SplitSpan(from, to, hi-lo, func(i int) exec.TickRange {
		return exec.TickRange{Lo: segs[lo+i].StartTick, Hi: segs[lo+i].EndTick}
	}, func(i int, sp exec.TickRange) {
		s := segs[lo+i]
		// The scan's candidate cells all lie inside rect expanded by the
		// segment's local-search margin, so the zone map is consulted
		// against that area. The extra epsilon mirrors the candidate
		// filter's slop and absorbs any floating-point disagreement
		// between the zone map's global grid and the index's
		// region-anchored cell ranges. Score 0 means MayIntersect is
		// false — the planner prunes the scan outright.
		scans = append(scans, exec.Scan{
			ID:    lo + i,
			Span:  sp,
			Score: s.Zone.OverlapScore(rect.Expand(s.Eng.Margin()+1e-12), sp.Lo, sp.Hi),
		})
	})
	return exec.Plan(scans)
}

// shardResult is the outcome of one planned per-segment scan. ids is the
// flat per-tick candidate stream — the window merge sorts and
// deduplicates the concatenation once, so shards skip per-tick bucketing
// entirely.
type shardResult struct {
	ids     []traj.ID
	covered int
	scan    index.ScanStats
	// scanRows counts rows the index source emitted.
	scanRows int64
	// candidates counts post-margin-filter rows.
	candidates int
	// visited counts raw trajectories exact verification fetched.
	visited int
	// err is the scan's failure, if any.
	err error
}

// scanShard answers one planned scan with a composed iterator plan
// (exec.ScanPipe, a pooled SegmentScan → CountRows → Verify chain)
// finished by a sink: the segment scan classifies each cell against the
// margin before decode (full-reject pruned, full-accept skips
// verification), Verify applies the reconstruction-distance filter to
// the rest, and the sink flattens surviving rows (approximate) or
// batch-verifies them against raw storage (exact). Instrument
// boundaries report per-operator time and row counts into the request
// trace when one is attached. The result lands in *out, which the
// pooled pipeline's counters point into until it closes.
func scanShard(ctx context.Context, out *shardResult, s *Segment, rect geo.Rect, lo, hi int, exact bool, tr *obs.Trace) error {
	cls := exec.Classifier{Rect: rect, Margin: s.Eng.Margin()}
	pipe := exec.OpenScanPipe(ctx, s.Eng.Idx, s.Eng.Sum, cls, lo, hi, &out.scan, &out.scanRows, tr)
	defer pipe.Close()
	it := pipe.Iterator()
	if exact {
		if s.Eng.Raw == nil {
			return query.ErrNoRaw
		}
		res, err := exec.ExactVerify(ctx, it, s.Eng.Raw, rect, lo, hi, &s.Eng.RawAccesses)
		if errors.Is(err, exec.ErrNoRaw) {
			// A trajectory missing from raw storage is the engine's
			// ErrNoRaw class, as it is on a per-tick probe.
			return fmt.Errorf("%w: %w", query.ErrNoRaw, err)
		}
		if err != nil {
			return err
		}
		n := 0
		for _, c := range res.Cols {
			n += len(c.IDs)
		}
		out.ids = make([]traj.ID, 0, n)
		for _, c := range res.Cols {
			out.ids = append(out.ids, c.IDs...)
		}
		out.candidates = res.Candidates
		out.visited = res.Visited
	} else {
		ids, err := exec.AppendIDs(it, lo, hi, nil)
		if err != nil {
			return err
		}
		// One cell per trajectory per tick means the flat stream is
		// already duplicate-free per tick, so its length is the per-tick
		// candidate count.
		out.ids = ids
		out.candidates = len(ids)
	}
	out.covered = s.Eng.Idx.CoveredTicks(lo, hi)
	return nil
}

// scanHot streams the snapshotted hot-tail columns through the
// iterator layer (HotScan → Instrument(op_hot) → AppendIDs), so the hot
// residual shows up in per-operator traces and row metrics like every
// other operator.
func scanHot(ctx context.Context, cols []exec.Column, from, to int, tr *obs.Trace) ([]traj.ID, error) {
	if len(cols) == 0 {
		return nil, nil
	}
	it := exec.Instrument(ctx, exec.NewHotScan(ctx, cols), tr, "op_hot")
	return exec.AppendIDs(it, from, to, nil)
}

// readPlan is one executed read of rect over [from, to] under one
// pinned view: the hot residual above the view's sealed watermark, the
// zone-map plan over its segments, and one result per surviving scan
// (results[i] answers ordered[i]).
type readPlan struct {
	view        readView
	hotIDs      []traj.ID
	hotOverlaps bool
	ordered     []exec.Scan
	pruned      []exec.Scan
	results     []shardResult
	// ticks counts the span's covered ticks in both tiers, zone-pruned
	// segments included: the Covered count a per-tick probe loop would
	// have seen.
	ticks int
}

// runPlan is the repository's one read path: Window runs it over its
// span, STRQ over the single tick of its probe. The read view is pinned
// once (pin); the hot residual above its sealed watermark is scanned
// under the pin's hot-tail lock (hot points are raw, so approximate and
// exact mode coincide); the span is split at segment boundaries and
// zone-map pruned (planWindow); and one iterator pipeline per surviving
// segment runs on the bounded worker pool Batch uses (scanShard) — a
// wide window over a long-lived repository can overlap hundreds of
// segments. Every tick is read from exactly one tier of one consistent
// view. tr receives the hot_scan, plan and segment_scan laps and the
// per-operator facts. It is passed in rather than read from ctx because
// Batch runs its probes concurrently under one request trace, so STRQ
// passes nil. A cancelled or expired context aborts the scatter and
// returns the context error.
func (r *Repository) runPlan(ctx context.Context, rect geo.Rect, from, to int, exact bool, tr *obs.Trace) (readPlan, error) {
	var p readPlan
	if err := ctx.Err(); err != nil {
		return p, err
	}
	var hotCols []exec.Column
	p.view = r.pin(to, func(sealed int) {
		hotCols, p.ticks, p.hotOverlaps = r.hot.scanRangeLocked(rect, max(from, sealed+1), to)
	})
	var err error
	if p.hotIDs, err = scanHot(ctx, hotCols, max(from, p.view.sealed+1), to, tr); err != nil {
		return p, err
	}
	tr.Lap("hot_scan")

	segs := p.view.segs
	p.ordered, p.pruned = planWindow(segs, rect, from, to)
	for _, sc := range p.pruned {
		p.ticks += segs[sc.ID].Eng.Idx.CoveredTicks(sc.Span.Lo, sc.Span.Hi)
	}
	tr.Lap("plan")

	// A one-scan plan (a sealed probe's) runs on this goroutine, as the
	// pool would, without the fan-out's closures; wider plans fan out.
	ordered, results := p.ordered, make([]shardResult, len(p.ordered))
	if len(ordered) == 1 {
		sc := ordered[0]
		results[0].err = scanShard(ctx, &results[0], segs[sc.ID], rect, sc.Span.Lo, sc.Span.Hi, exact, tr)
	} else if err := par.ForCtx(ctx, par.Workers(r.opts.Workers), len(ordered), 1, func(ctx context.Context, _, wlo, whi int) {
		for i := wlo; i < whi; i++ {
			sc := ordered[i]
			results[i].err = scanShard(ctx, &results[i], segs[sc.ID], rect, sc.Span.Lo, sc.Span.Hi, exact, tr)
		}
	}); err != nil {
		return p, err
	}
	for i := range results {
		if err := results[i].err; err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return p, err
			}
			return p, fmt.Errorf("serve: segment %d: %w", segs[ordered[i].ID].ID, err)
		}
		p.ticks += results[i].covered
	}
	p.results = results
	tr.Lap("segment_scan")
	return p, nil
}
