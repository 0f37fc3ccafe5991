package main

import (
	"fmt"

	"ppqtraj/internal/geo"
	"ppqtraj/internal/serve"
)

// precisionProbes is the size of the fixed seeded probe set behind
// approx_precision.
const precisionProbes = 2000

// qualityResult is the deterministic quality and footprint post-pass
// over the set-up segments: the same seed gives the same numbers on any
// machine and at any GOMAXPROCS, because set-up seals on a fixed tick
// cadence and the build is deterministic.
type qualityResult struct {
	bytesPerPoint float64 // sealed disk bytes / sealed points
	maeM          float64 // mean reconstruction deviation, metres
	maxDevM       float64 // largest observed deviation, metres
	boundM        float64 // the summaries' deviation bound (Lemma 3), metres
	precision     float64 // true IDs / returned IDs, approximate STRQ
}

func (r *run) quality(repo *serve.Repository) (qualityResult, error) {
	var q qualityResult
	var size, pts int64
	var devSum, devMax float64
	last := -1
	for _, s := range r.lay.openSegs {
		size += s.SizeBytes
		pts += int64(s.Points)
		last = max(last, s.EndTick)
		q.boundM = max(q.boundM, geo.DegreesToMeters(s.Sum.MaxDeviation()))
		for _, id := range s.Sum.TrajIDs() {
			ts := s.Sum.Trajs[id]
			tr, ok := r.d.ds.Lookup(id)
			if !ok {
				return q, fmt.Errorf("quality: segment %d holds unknown trajectory %d", s.ID, id)
			}
			for i, p := range ts.Recon {
				raw, ok := tr.At(ts.Start + i)
				if !ok {
					return q, fmt.Errorf("quality: trajectory %d has no raw point at tick %d", id, ts.Start+i)
				}
				dev := raw.Dist(p)
				devSum += dev
				devMax = max(devMax, dev)
			}
		}
	}
	if pts == 0 {
		return q, fmt.Errorf("quality: no sealed points")
	}
	q.bytesPerPoint = float64(size) / float64(pts)
	q.maeM = geo.DegreesToMeters(devSum / float64(pts))
	q.maxDevM = geo.DegreesToMeters(devMax)
	if devMax > r.or.maxDev+1e-12 {
		r.fail(fmt.Errorf("quality: reconstruction deviates %.2f m, above the %.2f m bound", q.maxDevM, q.boundM))
	}

	rng := clientRand(r.seed, "precision", 0)
	var returned, truth int
	for i := 0; i < precisionProbes; i++ {
		p, t := r.d.anchor(rng, 0, last)
		ans, err := repo.STRQ(bg, serve.STRQRequest{P: p, Tick: t})
		r.op(err)
		if err != nil {
			continue
		}
		want := r.or.truth(r.or.cellOf(p), t)
		if err := compare(ans.IDs, want, false); err != nil {
			r.fail(fmt.Errorf("quality probe tick %d: %w", t, err))
		}
		returned += len(ans.IDs)
		truth += len(want)
	}
	q.precision = ratio(float64(truth), float64(returned))
	return q, nil
}
