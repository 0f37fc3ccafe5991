package main

import (
	"math/rand"
	"time"

	"ppqtraj/internal/core"
	"ppqtraj/internal/gen"
	"ppqtraj/internal/geo"
	"ppqtraj/internal/index"
	"ppqtraj/internal/obs"
	"ppqtraj/internal/partition"
	"ppqtraj/internal/serve"
	"ppqtraj/internal/traj"
)

// Dataset shape shared by every workload: Porto-like taxi trips of 30–200
// samples whose start ticks are staggered over the horizon, so about 400
// trajectories are live at any tick and the stream spans about 1,690
// ticks (≈690k points). The trips come from dataParts independent
// gen.Porto draws: each draw places its 12 hotspots at random, and with
// a single draw the chance clustering of those few hotspots set how
// dense the probed places were, so read latency moved by more from one
// seed to the next than from one run of a seed to the next.
const (
	numTrajectories = 6000
	dataParts       = 4
	minLen, maxLen  = 30, 200
	horizon         = 1490
	// sealEvery is the explicit Flush cadence of every bulk load: one
	// sealed segment per 256 ticks, fixed by tick count alone so segment
	// boundaries (and hence bytes/point, MAE and precision) repeat
	// exactly for a seed, whatever GOMAXPROCS or timing does.
	sealEvery = 256
)

// data is one seeded dataset plus the per-tick raw columns the oracle
// scans.
type data struct {
	seed int64
	ds   *traj.Dataset
	cols []traj.Column // cols[t] holds every raw point at tick t, IDs ascending
}

func newData(seed int64) *data {
	var trajs []*traj.Trajectory
	for part := int64(0); part < dataParts; part++ {
		trajs = append(trajs, gen.Porto(gen.Config{
			NumTrajectories: numTrajectories / dataParts,
			MinLen:          minLen,
			MaxLen:          maxLen,
			Horizon:         horizon,
			Seed:            seed*dataParts + part,
		}).All()...)
	}
	ds := traj.NewDataset(trajs) // renumbers the trips 0..numTrajectories-1
	d := &data{seed: seed, ds: ds, cols: make([]traj.Column, ds.MaxTick())}
	for t := range d.cols {
		d.cols[t].Tick = t
	}
	for _, tr := range ds.All() { // ascending IDs → columns come out sorted
		for i, p := range tr.Points {
			c := &d.cols[tr.Start+i]
			c.IDs = append(c.IDs, tr.ID)
			c.Points = append(c.Points, p)
		}
	}
	return d
}

func (d *data) ticks() int { return len(d.cols) }

// pointsIn counts the raw points in ticks [from, to).
func (d *data) pointsIn(from, to int) int {
	n := 0
	for t := from; t < to; t++ {
		n += len(d.cols[t].IDs)
	}
	return n
}

// anchor draws one data-anchored probe: a real position of a random
// trajectory at a tick in [lo, hi]. Probes that land on data are what
// make the query mix exercise populated cells instead of empty space.
func (d *data) anchor(rng *rand.Rand, lo, hi int) (geo.Point, int) {
	for {
		t := lo + rng.Intn(hi-lo+1)
		c := &d.cols[t]
		if len(c.IDs) == 0 {
			continue
		}
		return c.Points[rng.Intn(len(c.IDs))], t
	}
}

// repoOptions is the repository configuration every workload serves
// with: the paper's PPQ-S defaults, 100 m query cells, raw storage
// attached so exact queries verify, and the default cache and WAL
// policy. hotTicks 0 keeps the serving default (background compaction
// at 64 hot ticks); bulk loads pass a span no load reaches, so only
// their explicit flushes seal.
func repoOptions(d *data, dir string, hotTicks int) serve.Options {
	bopts := core.DefaultOptions(partition.Spatial, 0.1)
	bopts.Seed = 7
	o := serve.Options{
		Build: bopts,
		Index: index.Options{
			EpsS: 0.1,
			GC:   geo.MetersToDegrees(100),
			EpsC: 0.5,
			EpsD: 0.5,
			Seed: 11,
		},
		Dir:                 dir,
		HotTicks:            hotTicks,
		Raw:                 d.ds,
		DefaultQueryTimeout: 30 * time.Second,
		Log:                 obs.Discard(),
	}
	if hotTicks > 0 {
		o.MaxSegmentTicks = sealEvery
	}
	return o
}

// bulkHotTicks disables background compaction during bulk loads.
const bulkHotTicks = 1 << 20
