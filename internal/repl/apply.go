package repl

import (
	"context"
	"errors"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"ppqtraj/internal/obs"
	"ppqtraj/internal/wal"
)

// ApplierOptions configures an Applier.
type ApplierOptions struct {
	// Transport fetches stream batches (required).
	Transport Transport
	// From is the first ordinal to fetch — the follower's own durable
	// record count, so a restart resumes exactly where persistence ends.
	From int64
	// Apply replays decoded records into the follower (required). It
	// returns how many of the records landed; on a partial failure the
	// applier refetches from the failure point, so Apply must apply
	// strictly in order and must never skip.
	Apply func(ctx context.Context, recs []wal.Record) (applied int, err error)
	// OnBatch observes every clean batch (including empty keepalives)
	// after its records were applied — the hook that publishes the
	// primary's watermarks to the staleness bound.
	OnBatch func(b Batch)
	// Backoff is the initial reconnect delay (default 100ms); each
	// failure doubles it up to MaxBackoff (default 50× Backoff), and any
	// clean batch resets it. The actual sleep is jittered to [d/2, d] so
	// a restarted primary is not met by a thundering herd of followers.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// FetchTimeout bounds one Fetch call (default 60s — above the
	// shipper's long-poll cap, so an idle stream is not a "failure").
	FetchTimeout time.Duration
	// Metrics, when set, registers the applier's stream counters.
	Metrics *obs.Registry
	// Log receives reconnect and corruption events; nil means silence.
	Log *obs.Logger
}

// Applier is the follower side of replication: a connection loop that
// fetches committed frames, applies their valid prefix exactly once, and
// survives every transport failure with backoff. Safe for concurrent use
// of its accessors while Run is live.
type Applier struct {
	opts ApplierOptions

	next        atomic.Int64 // ordinal of the next record to fetch
	connected   atomic.Bool
	lastContact atomic.Int64 // unix nanos of the last clean batch; 0 = never

	reconnects     *obs.Counter
	appliedRecords *obs.Counter
	appliedPoints  *obs.Counter
	corruptBatches *obs.Counter
}

// NewApplier returns an Applier; call Run to start streaming.
func NewApplier(opts ApplierOptions) *Applier {
	if opts.Transport == nil {
		panic("repl: ApplierOptions.Transport is required")
	}
	if opts.Apply == nil {
		panic("repl: ApplierOptions.Apply is required")
	}
	if opts.Backoff <= 0 {
		opts.Backoff = 100 * time.Millisecond
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 50 * opts.Backoff
	}
	if opts.FetchTimeout <= 0 {
		opts.FetchTimeout = 60 * time.Second
	}
	if opts.Log == nil {
		opts.Log = obs.Discard()
	}
	a := &Applier{
		opts:           opts,
		reconnects:     &obs.Counter{},
		appliedRecords: &obs.Counter{},
		appliedPoints:  &obs.Counter{},
		corruptBatches: &obs.Counter{},
	}
	a.next.Store(opts.From)
	if reg := opts.Metrics; reg != nil {
		a.reconnects = reg.Counter("ppq_repl_stream_reconnects_total",
			"Replication stream reconnect attempts after a fetch or apply failure.")
		a.appliedRecords = reg.Counter("ppq_repl_applied_records_total",
			"WAL records applied from the replication stream.")
		a.appliedPoints = reg.Counter("ppq_repl_applied_points_total",
			"Trajectory points applied from the replication stream.")
		a.corruptBatches = reg.Counter("ppq_repl_corrupt_batches_total",
			"Stream batches whose frames failed checksum or framing mid-body.")
		reg.GaugeFunc("ppq_repl_connected",
			"1 while the follower's last stream exchange succeeded.",
			func() float64 {
				if a.connected.Load() {
					return 1
				}
				return 0
			})
		reg.GaugeFunc("ppq_repl_next_lsn",
			"Next WAL ordinal the follower will fetch.",
			func() float64 { return float64(a.next.Load()) })
	}
	return a
}

// Run streams until ctx is done. Every failure — transport, framing,
// apply — lands in the same place: mark disconnected, back off with
// jitter, refetch from the applier's own cursor. The cursor only ever
// advances by records Apply confirmed, so a batch that died halfway is
// resumed, not repeated and not skipped.
func (a *Applier) Run(ctx context.Context) {
	backoff := a.opts.Backoff
	for {
		if ctx.Err() != nil {
			a.connected.Store(false)
			return
		}
		from := a.next.Load()
		fctx, cancel := context.WithTimeout(ctx, a.opts.FetchTimeout)
		b, err := a.opts.Transport.Fetch(fctx, from)
		cancel()
		if err == nil {
			err = a.applyBatch(ctx, from, b)
		}
		if err == nil {
			a.connected.Store(true)
			a.lastContact.Store(time.Now().UnixNano())
			if a.opts.OnBatch != nil {
				a.opts.OnBatch(b)
			}
			backoff = a.opts.Backoff
			continue
		}
		if ctx.Err() != nil {
			a.connected.Store(false)
			return
		}
		a.connected.Store(false)
		a.reconnects.Inc()
		if errors.Is(err, wal.ErrGone) || errors.Is(err, wal.ErrFuture) {
			// A gap (our history was reclaimed) or a regression (we are
			// ahead of the primary) cannot heal by retrying; scream at max
			// backoff instead of resyncing silently — the operator must
			// choose between reseeding this follower and fixing the primary.
			a.opts.Log.Error("replication stream position unserviceable; manual intervention required",
				"from_lsn", a.next.Load(), "err", err)
			backoff = a.opts.MaxBackoff
		} else {
			a.opts.Log.Warn("replication stream failure; backing off",
				"from_lsn", a.next.Load(), "backoff", backoff, "err", err)
		}
		// Jittered sleep in [backoff/2, backoff]: enough spread that
		// followers restarted together do not reconnect in lockstep.
		delay := backoff/2 + rand.N(backoff/2+1)
		select {
		case <-ctx.Done():
			a.connected.Store(false)
			return
		case <-time.After(delay):
		}
		backoff *= 2
		if backoff > a.opts.MaxBackoff {
			backoff = a.opts.MaxBackoff
		}
	}
}

// applyBatch decodes and applies one batch's valid prefix, advancing the
// cursor by exactly the records Apply confirmed. A framing or checksum
// failure past the prefix is an error (the prefix still lands — bytes
// already verified must not be refetched just because their successor
// tore), as is a partial apply.
func (a *Applier) applyBatch(ctx context.Context, from int64, b Batch) error {
	var recs []wal.Record
	_, decErr := wal.DecodeFrames(b.Frames, func(rec wal.Record) error {
		recs = append(recs, rec)
		return nil
	})
	if decErr != nil {
		a.corruptBatches.Inc()
	}
	if len(recs) > 0 {
		applied, err := a.opts.Apply(ctx, recs)
		if applied < 0 {
			applied = 0
		}
		if applied > len(recs) {
			applied = len(recs)
		}
		a.next.Store(from + int64(applied))
		a.appliedRecords.Add(int64(applied))
		for _, rec := range recs[:applied] {
			a.appliedPoints.Add(int64(len(rec.IDs)))
		}
		if err != nil {
			return err
		}
		if applied < len(recs) {
			return errors.New("repl: apply stopped short without an error")
		}
	}
	if decErr != nil {
		return decErr
	}
	return nil
}

// ApplierStats is a point-in-time snapshot of the applier.
type ApplierStats struct {
	NextLSN        int64         `json:"next_lsn"`
	Connected      bool          `json:"connected"`
	LastContactAge time.Duration `json:"last_contact_age_ns"`
	AppliedRecords int64         `json:"applied_records"`
	AppliedPoints  int64         `json:"applied_points"`
	Reconnects     int64         `json:"reconnects"`
	CorruptBatches int64         `json:"corrupt_batches"`
}

// Stats snapshots the applier's counters and connection state.
func (a *Applier) Stats() ApplierStats {
	st := ApplierStats{
		NextLSN:        a.next.Load(),
		Connected:      a.connected.Load(),
		AppliedRecords: a.appliedRecords.Load(),
		AppliedPoints:  a.appliedPoints.Load(),
		Reconnects:     a.reconnects.Load(),
		CorruptBatches: a.corruptBatches.Load(),
	}
	if last := a.lastContact.Load(); last > 0 {
		st.LastContactAge = time.Since(time.Unix(0, last))
	}
	return st
}
