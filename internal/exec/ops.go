package exec

import (
	"context"
	"time"

	"ppqtraj/internal/geo"
	"ppqtraj/internal/obs"
	"ppqtraj/internal/traj"
)

// Reconstructor is the summary-side contract the margin filter checks
// candidates against — the one method of query.Source the executor
// needs (satisfied by core.Summary and every query.Source).
type Reconstructor interface {
	ReconstructedPoint(id traj.ID, tick int) (geo.Point, bool)
}

// VerifyOp filters Check batches by the per-trajectory
// reconstruction-distance test (the local-search filter); Sure batches
// pass through untouched. Its output rows are exactly the per-tick
// STRQRect candidate set, before sorting.
type VerifyOp struct {
	ctx  context.Context
	in   Iterator
	rec  Reconstructor
	rect geo.Rect
	m    float64
	err  error

	steps int // rows filtered since the last ctx check
	out   Batch
	ticks []int
	ids   [][]traj.ID
	flat  []traj.ID // backing for the filtered per-tick lists
}

// Verify composes the margin filter over in.
func Verify(ctx context.Context, in Iterator, rec Reconstructor, cls Classifier) *VerifyOp {
	v := &VerifyOp{}
	v.reset(ctx, in, rec, cls)
	return v
}

// reset re-aims the operator, keeping its batch scratch — the pooled-
// pipeline path.
func (v *VerifyOp) reset(ctx context.Context, in Iterator, rec Reconstructor, cls Classifier) {
	v.ctx, v.in, v.rec, v.rect, v.m = ctx, in, rec, cls.Rect, cls.Margin
	v.err, v.steps = nil, 0
}

// Next pulls batches until one survives the filter.
func (v *VerifyOp) Next() (*Batch, bool) {
	if v.err != nil {
		return nil, false
	}
	for {
		if v.err = v.ctx.Err(); v.err != nil {
			return nil, false
		}
		b, ok := v.in.Next()
		if !ok {
			v.err = v.in.Err()
			return nil, false
		}
		if b.Sure {
			return b, true
		}
		v.ticks = v.ticks[:0]
		v.ids = v.ids[:0]
		v.flat = v.flat[:0]
		for i, tick := range b.Ticks {
			st := len(v.flat)
			for _, id := range b.IDs[i] {
				if v.steps++; v.steps%ctxCheckEvery == 0 {
					if v.err = v.ctx.Err(); v.err != nil {
						return nil, false
					}
				}
				rp, ok := v.rec.ReconstructedPoint(id, tick)
				if !ok {
					continue
				}
				if rp.DistToRect(v.rect) <= v.m+1e-12 {
					v.flat = append(v.flat, id)
				}
			}
			if len(v.flat) > st {
				v.ticks = append(v.ticks, tick)
				v.ids = append(v.ids, v.flat[st:len(v.flat):len(v.flat)])
			}
		}
		if len(v.ticks) > 0 {
			v.out = Batch{Ticks: v.ticks, IDs: v.ids}
			return &v.out, true
		}
	}
}

func (v *VerifyOp) Err() error { return v.err }

// LimitOp truncates the stream after n rows — the executor's bounded
// "first-k" escape: pulling stops (and upstream decode with it) as soon
// as the budget is spent.
type LimitOp struct {
	ctx  context.Context
	in   Iterator
	left int
	err  error
	done bool
	out  Batch
	ids  [][]traj.ID
}

// Limit caps the composed stream at n (tick, id) rows.
func Limit(ctx context.Context, in Iterator, n int) *LimitOp {
	return &LimitOp{ctx: ctx, in: in, left: n}
}

// Next passes batches through, clipping the one that crosses the limit.
func (l *LimitOp) Next() (*Batch, bool) {
	if l.err != nil || l.done {
		return nil, false
	}
	if l.err = l.ctx.Err(); l.err != nil {
		return nil, false
	}
	if l.left <= 0 {
		l.done = true
		return nil, false
	}
	b, ok := l.in.Next()
	if !ok {
		l.err = l.in.Err()
		return nil, false
	}
	if rows := b.Rows(); rows <= l.left {
		l.left -= rows
		return b, true
	}
	// Clip the batch at the remaining budget, tick by tick.
	l.ids = l.ids[:0]
	ticks := 0
	for i := range b.Ticks {
		take := b.IDs[i]
		if len(take) > l.left {
			take = take[:l.left]
		}
		l.ids = append(l.ids, take)
		l.left -= len(take)
		ticks++
		if l.left == 0 {
			break
		}
	}
	l.done = true
	l.out = Batch{Ticks: b.Ticks[:ticks], IDs: l.ids, Sure: b.Sure}
	return &l.out, true
}

func (l *LimitOp) Err() error { return l.err }

// CountRowsOp counts rows flowing through an operator boundary into an
// external counter — the serving layer's per-operator metrics hook.
// Unlike Instrument it is unconditional and timer-free, so it is cheap
// enough to leave on the untraced hot path.
type CountRowsOp struct {
	in Iterator
	n  *int64
}

// CountRows accumulates the stream's row count into *n as it flows.
func CountRows(in Iterator, n *int64) *CountRowsOp {
	return &CountRowsOp{in: in, n: n}
}

// Next delegates one pull, counting the emitted batch.
func (c *CountRowsOp) Next() (*Batch, bool) {
	b, ok := c.in.Next()
	if ok {
		*c.n += int64(b.Rows())
	}
	return b, ok
}

func (c *CountRowsOp) Err() error { return c.in.Err() }

// InstrumentOp reports an operator's pull time and emitted rows into an
// obs.Trace: stage <name> accumulates time spent inside this operator's
// subtree, fact <name>_rows counts rows it emitted. Used at operator
// boundaries so ?trace=1 reports per-operator time.
type InstrumentOp struct {
	ctx  context.Context
	in   Iterator
	tr   *obs.Trace
	name string
	err  error
}

// Instrument wraps in with tracing. With tr == nil it returns in
// unchanged — the untraced hot path pays nothing.
func Instrument(ctx context.Context, in Iterator, tr *obs.Trace, name string) Iterator {
	if tr == nil {
		return in
	}
	return &InstrumentOp{ctx: ctx, in: in, tr: tr, name: name}
}

// Next times one pull of the wrapped subtree.
func (o *InstrumentOp) Next() (*Batch, bool) {
	if o.err = o.ctx.Err(); o.err != nil {
		return nil, false
	}
	t0 := time.Now()
	b, ok := o.in.Next()
	o.tr.Observe(o.name, time.Since(t0))
	if !ok {
		o.err = o.in.Err()
		return nil, false
	}
	o.tr.Add(o.name+"_rows", int64(b.Rows()))
	return b, true
}

func (o *InstrumentOp) Err() error { return o.err }
