package main

import (
	"fmt"
	"slices"

	"ppqtraj/internal/geo"
	"ppqtraj/internal/query"
	"ppqtraj/internal/serve"
	"ppqtraj/internal/traj"
)

// oracle checks answers against brute force over the raw dataset:
//   - exact STRQ and exact windows equal the ground truth;
//   - approximate answers contain it (recall 1);
//   - every reconstructed path point lies within the summary's maximum
//     deviation of the raw point at the same tick.
type oracle struct {
	d      *data
	cellOf func(geo.Point) geo.Rect
	// maxDev is the summaries' deviation bound (degrees); hot-tail paths
	// are raw and sit well inside it.
	maxDev float64
}

// truth is the brute-force STRQ answer: trajectories whose raw position
// at tick lies in cell (query.GroundTruth over the raw dataset).
func (o *oracle) truth(cell geo.Rect, tick int) []traj.ID {
	if tick < 0 || tick >= o.d.ticks() {
		return nil
	}
	return query.GroundTruth(o.d.ds, cell, tick)
}

// windowTruth is the brute-force window answer: trajectories whose raw
// position lies in rect at some tick of [from, to], ascending.
func (o *oracle) windowTruth(rect geo.Rect, from, to int) []traj.ID {
	var ids []traj.ID
	for t := max(from, 0); t <= to && t < o.d.ticks(); t++ {
		c := &o.d.cols[t]
		for i, p := range c.Points {
			if rect.Contains(p) {
				ids = append(ids, c.IDs[i])
			}
		}
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// compare checks got against want: equality when exact, containment
// (recall 1) otherwise.
func compare(got, want []traj.ID, exact bool) error {
	g := slices.Clone(got)
	slices.Sort(g)
	if exact {
		if !slices.Equal(g, want) {
			return fmt.Errorf("exact answer has %d ids, ground truth %d", len(g), len(want))
		}
		return nil
	}
	for _, id := range want {
		if _, ok := slices.BinarySearch(g, id); !ok {
			return fmt.Errorf("approximate answer misses trajectory %d (recall < 1)", id)
		}
	}
	return nil
}

func (o *oracle) checkSTRQ(req serve.STRQRequest, ans serve.STRQAnswer) error {
	if err := compare(ans.IDs, o.truth(o.cellOf(req.P), req.Tick), req.Exact); err != nil {
		return fmt.Errorf("strq tick %d exact=%v: %w", req.Tick, req.Exact, err)
	}
	for id, p := range ans.Paths {
		tr, ok := o.d.ds.Lookup(id)
		if !ok {
			return fmt.Errorf("strq path for unknown trajectory %d", id)
		}
		for i, q := range p.Points {
			raw, ok := tr.At(p.Start + i)
			if !ok {
				return fmt.Errorf("strq path of %d has a point at tick %d outside the trajectory", id, p.Start+i)
			}
			if dev := raw.Dist(q); dev > o.maxDev+1e-12 {
				return fmt.Errorf("strq path of %d deviates %.1f m at tick %d (bound %.1f m)",
					id, geo.DegreesToMeters(dev), p.Start+i, geo.DegreesToMeters(o.maxDev))
			}
		}
	}
	return nil
}

func (o *oracle) checkWindow(w serve.WindowRequest, res *serve.WindowResult) error {
	if err := compare(res.IDs, o.windowTruth(w.Rect, w.From, w.To), w.Exact); err != nil {
		return fmt.Errorf("window [%d,%d] exact=%v: %w", w.From, w.To, w.Exact, err)
	}
	return nil
}

// selfTest feeds the checker deliberately wrong answers built from a
// probe that has residents and fails unless every one is rejected.
func (o *oracle) selfTest(p geo.Point, tick int) error {
	cell := o.cellOf(p)
	want := o.truth(cell, tick)
	if len(want) == 0 {
		return fmt.Errorf("self-test probe has no residents")
	}
	tr := o.d.ds.Get(want[0])
	raw, _ := tr.At(tick)
	far := geo.Point{X: raw.X + 2*o.maxDev + 1e-6, Y: raw.Y}
	stranger := traj.ID(o.d.ds.Len()) // no such trajectory
	w := serve.WindowRequest{Rect: cell, From: tick, To: tick, Exact: true}
	wrong := []struct {
		name string
		err  error
	}{
		{"exact STRQ missing a resident", o.checkSTRQ(
			serve.STRQRequest{P: p, Tick: tick, Exact: true}, serve.STRQAnswer{IDs: want[1:]})},
		{"exact STRQ with an extra id", o.checkSTRQ(
			serve.STRQRequest{P: p, Tick: tick, Exact: true}, serve.STRQAnswer{IDs: append(slices.Clone(want), stranger)})},
		{"approximate STRQ missing a resident", o.checkSTRQ(
			serve.STRQRequest{P: p, Tick: tick}, serve.STRQAnswer{IDs: want[1:]})},
		{"path point beyond the deviation bound", o.checkSTRQ(
			serve.STRQRequest{P: p, Tick: tick, PathLen: 1},
			serve.STRQAnswer{IDs: want, Paths: map[traj.ID]serve.Path{want[0]: {Start: tick, Points: []geo.Point{far}}}})},
		{"exact window with an extra id", o.checkWindow(w, &serve.WindowResult{IDs: append(slices.Clone(want), stranger)})},
	}
	for _, c := range wrong {
		if c.err == nil {
			return fmt.Errorf("oracle self-test: accepted %s", c.name)
		}
	}
	// And the right answer must pass.
	if err := o.checkSTRQ(serve.STRQRequest{P: p, Tick: tick, Exact: true}, serve.STRQAnswer{IDs: want}); err != nil {
		return fmt.Errorf("oracle self-test: rejected the ground truth: %w", err)
	}
	return nil
}
