// Package wal is the repository's durable hot tail: a segmented,
// checksummed, append-only write-ahead log of ingested tick batches. The
// serving layer appends every validated ingest before mutating its
// in-memory hot tail, so a crash loses no acknowledged write: on restart
// the log is replayed above the manifest's sealed watermark to rebuild the
// hot tail exactly, and segments whose records are all covered by sealed
// repository segments are reclaimed after compaction.
//
// Format (v2): the log is a sequence of files wal-<seq>.log (seq
// ascending, records in append order across files). Each file starts with
// a 16-byte header — magic "PPQW", u32 format version, u64 base record
// ordinal (how many records precede this file over the log's whole
// lifetime, reclaimed files included). The header is what makes record
// ordinals stable across restarts and reclamation, which replication
// uses as its LSN: a follower can resume from an ordinal even after the
// primary reclaimed every earlier file. After the header, each record is
//
//	[u32 payload length][u32 CRC32-C of payload][payload]
//
// with the payload encoding one ingested tick batch: i64 tick, u32 count,
// count × u32 trajectory ID, count × (f64 x, f64 y), all little-endian.
// A torn write (crash mid-append) leaves a short or checksum-failing
// record at the very end of the last file; Open truncates it away and the
// log continues from the last good record. A torn header (crash
// mid-rotation) can only ever afflict the last file, before any record
// was acked into it; Open rebuilds it from the previous segment's header.
// Corruption anywhere else is a hard error — that data was acknowledged
// and cannot be silently dropped.
//
// Durability is governed by the sync policy: SyncAlways fsyncs before an
// append commits (no acknowledged write is ever lost, even to a power
// failure), SyncEvery fsyncs on a background interval (a crash loses at
// most one interval of acknowledged writes), SyncNever leaves flushing to
// the OS (a process crash loses nothing — records are written straight to
// the file, unbuffered — but a machine crash can lose whatever the kernel
// had not written back).
package wal

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ppqtraj/internal/geo"
	"ppqtraj/internal/obs"
	"ppqtraj/internal/traj"
)

// SyncPolicy selects when appended records are fsynced to stable storage.
type SyncPolicy string

const (
	// SyncAlways fsyncs before every append is acknowledged.
	SyncAlways SyncPolicy = "always"
	// SyncEvery fsyncs on a background interval (Options.Interval).
	SyncEvery SyncPolicy = "interval"
	// SyncNever never fsyncs explicitly (rotation and Close still do).
	SyncNever SyncPolicy = "never"
)

// ParsePolicy converts a flag string into a SyncPolicy.
func ParsePolicy(s string) (SyncPolicy, error) {
	switch SyncPolicy(s) {
	case SyncAlways, SyncEvery, SyncNever:
		return SyncPolicy(s), nil
	}
	return "", fmt.Errorf("wal: unknown sync policy %q (want always, interval, or never)", s)
}

// Options configures a Log.
type Options struct {
	// Dir holds the log's segment files; created if absent.
	Dir string
	// Policy is the sync policy (default SyncEvery).
	Policy SyncPolicy
	// Interval is the background fsync period under SyncEvery
	// (default 100ms).
	Interval time.Duration
	// SegmentBytes caps one log file's size before rotation
	// (default 16 MiB). Smaller segments reclaim space sooner after
	// compaction; each rotation costs one fsync and one file creation.
	SegmentBytes int64
	// GroupCommitWait, under SyncAlways, is how long a committing leader
	// holds its fsync window open for concurrent appends to pile in, so
	// one fsync acknowledges many batches. A lone committer never waits —
	// the window only opens when other commits are already in flight — so
	// this caps added latency under concurrency without taxing sequential
	// writers. 0 disables batching windows (every commit races straight
	// to the fsync, batching only with syncs already in flight).
	GroupCommitWait time.Duration
	// RetainSegments, when positive, keeps at least that many of the
	// newest segment files out of TruncateThrough's reach even when their
	// ticks are fully sealed. It is the replication floor: a follower that
	// reconnects after a pause can still be served from the retained tail
	// without a gap, at the cost of that much extra disk.
	RetainSegments int
	// FS is the filesystem seam (default OSFS). Tests inject FaultFS to
	// exercise disk failures deterministically.
	FS FS
	// Metrics, when set, registers the log's latency histograms
	// (ppq_wal_fsync_seconds, ppq_wal_commit_batch_count) there. Counter-style
	// stats stay in the log's own atomics — the serving layer bridges
	// them into snapshots via a registry source.
	Metrics *obs.Registry
}

func (o Options) withDefaults() (Options, error) {
	if o.Dir == "" {
		return o, errors.New("wal: Dir must be set")
	}
	if o.Policy == "" {
		o.Policy = SyncEvery
	}
	if _, err := ParsePolicy(string(o.Policy)); err != nil {
		return o, err
	}
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 16 << 20
	}
	if o.RetainSegments < 0 {
		o.RetainSegments = 0
	}
	if o.FS == nil {
		o.FS = OSFS{}
	}
	return o, nil
}

// ErrFailStopped marks every error returned by a log that has latched a
// disk failure: once an fsync or write fails, the durable prefix is
// unknowable and the log rejects all further appends and commits. The
// serving layer matches this sentinel (errors.Is) to surface degraded
// mode as 503s instead of generic failures.
var ErrFailStopped = errors.New("wal: log is fail-stopped after a disk error")

// ErrGone reports that a reader asked for record ordinals that were
// already reclaimed by TruncateThrough: the data exists only in sealed
// repository segments now, not in the log. Replication surfaces it as
// 410 Gone — the honest answer, never a silent full resync.
var ErrGone = errors.New("wal: requested records were reclaimed")

// ErrFuture reports that a reader asked for record ordinals past the end
// of the log — a follower that is somehow ahead of its primary. That is
// never a transient state (ordinals only grow), so replication surfaces
// it as 416 and refuses to serve rather than waiting for history to
// rewrite itself.
var ErrFuture = errors.New("wal: requested records are beyond the end of the log")

// failStopError carries the original disk error while matching
// ErrFailStopped, so callers keep the root cause in the message and a
// stable sentinel for control flow.
type failStopError struct{ err error }

func (e *failStopError) Error() string   { return e.err.Error() }
func (e *failStopError) Unwrap() []error { return []error{ErrFailStopped, e.err} }

// Record is one logged ingest batch: the points of one tick. IDs and
// Points are parallel slices, exactly as handed to Repository.Ingest.
type Record struct {
	Tick   int
	IDs    []traj.ID
	Points []geo.Point
}

// Stats is a point-in-time snapshot of the log (the /v1/stats wal
// section).
type Stats struct {
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
	Syncs    int64 `json:"syncs"`
	Appends  int64 `json:"appended_records"`
	// Commits counts successful SyncAlways commits; Commits/Syncs is the
	// group-commit batching factor (acked batches per fsync).
	Commits         int64 `json:"commits"`
	ReplayedRecords int64 `json:"replayed_records"`
	ReplayedPoints  int64 `json:"replayed_points"`
	Reclaimed       int64 `json:"reclaimed_segments"`
	// Record ordinals (the replication LSN space): OldestRec is the first
	// ordinal still present in a log file, NextRec the ordinal the next
	// append gets, DurableRec the watermark below which every record is
	// known fsynced (what the shipper may serve).
	OldestRec  int64 `json:"oldest_rec"`
	NextRec    int64 `json:"next_rec"`
	DurableRec int64 `json:"durable_rec"`
	// PinnedHolds counts live retention pins (one per follower position
	// the shipper is protecting from reclamation).
	PinnedHolds int `json:"pinned_holds,omitempty"`
	// Failed carries the latched disk-failure error, if any: once set the
	// log is fail-stopped and rejects every further append and commit.
	Failed string `json:"failed,omitempty"`
}

// segment is one log file's in-memory metadata. maxTick drives
// reclamation: once every record's tick is at or below the repository's
// sealed watermark, the file's contents are fully covered by sealed
// segments and the file can go.
type segment struct {
	seq     uint64
	path    string
	bytes   int64 // record bytes (the 16-byte file header is not counted)
	records int64
	maxTick int
	// baseRec is the ordinal of the file's first record, read from (or
	// destined for) its header; hasHeader is false only for a file whose
	// header has not been written yet (fresh create, or a torn header
	// truncated away during Open).
	baseRec   int64
	hasHeader bool
}

// Log is the write-ahead log. Append/Commit/TruncateThrough/Stats are
// safe for concurrent use.
type Log struct {
	opts Options
	fs   FS

	mu     sync.Mutex // guards file ops, rotation, and the segment list
	f      File       // active segment, open for append
	segs   []*segment // ascending seq; last is the active one
	closed bool
	failed error // first fsync/write failure; latched, poisons the log

	written int64 // LSN: total bytes appended over the log's lifetime
	synced  int64 // highest LSN known durable

	// Record-ordinal space (the replication LSN): recs is the ordinal the
	// next append gets, syncedRecs the durable watermark readers may see.
	// recsCh is closed and replaced whenever syncedRecs advances (or the
	// log closes or fail-stops), waking WaitDurable long-pollers.
	recs       int64
	syncedRecs int64
	recsCh     chan struct{}

	// pins are retention holds: ordinal → refcount. A segment whose
	// records reach at or past the smallest pinned ordinal survives
	// TruncateThrough, so a lagging follower never finds a gap.
	pins map[int64]int

	// Single-entry tail-read cursor: when a reader resumes exactly where
	// the previous ReadFrames left off (the steady replication state), the
	// prefix skip is a byte discard at a known offset instead of a parse.
	readPath string
	readOrd  int64
	readOff  int64

	// syncMu serializes fsyncs; it is held across the Sync call itself so
	// mu (which Append needs, inside the serving layer's hot-tail lock)
	// never is. Lock order: syncMu before mu, never the reverse.
	syncMu sync.Mutex

	// Group-commit leadership (SyncAlways + GroupCommitWait): one
	// committer at a time leads a batching window, the rest wait for the
	// round to finish and usually find their LSN already durable.
	gcMu        sync.Mutex
	gcCond      *sync.Cond
	gcLeader    bool
	gcRound     uint64
	gcPending   atomic.Int64 // commits currently inside groupCommit
	gcLastBatch atomic.Int64 // commits the previous round's fsync covered

	syncs        atomic.Int64
	commits      atomic.Int64
	appends      atomic.Int64
	reclaimed    atomic.Int64
	replayedRecs atomic.Int64
	replayedPts  atomic.Int64

	// fsyncHist observes every fsync's duration; batchHist observes how
	// many commits each group-commit fsync covered. Both nil without
	// Options.Metrics.
	fsyncHist *obs.Histogram
	batchHist *obs.Histogram

	stopSync chan struct{} // closes the SyncEvery ticker goroutine
	syncWG   sync.WaitGroup

	scratch []byte // append encode buffer, reused under mu
}

const (
	recHeaderLen  = 8  // u32 length + u32 crc
	segHeaderLen  = 16 // magic + u32 version + u64 base record ordinal
	segMagic      = "PPQW"
	segVersion    = 2
	segPrefix     = "wal-"
	segSuffix     = ".log"
	maxRecordSize = 64 << 20 // sanity bound when reading lengths back
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// segHeader builds the 16-byte file header for a segment whose first
// record has ordinal baseRec.
func segHeader(baseRec int64) [segHeaderLen]byte {
	var b [segHeaderLen]byte
	copy(b[0:4], segMagic)
	binary.LittleEndian.PutUint32(b[4:8], segVersion)
	binary.LittleEndian.PutUint64(b[8:16], uint64(baseRec))
	return b
}

// parseSegHeader validates a header read back from disk.
func parseSegHeader(b []byte) (baseRec int64, err error) {
	if string(b[0:4]) != segMagic {
		return 0, fmt.Errorf("wal: bad segment magic %q", b[0:4])
	}
	if v := binary.LittleEndian.Uint32(b[4:8]); v != segVersion {
		return 0, fmt.Errorf("wal: unsupported segment format version %d (want %d)", v, segVersion)
	}
	return int64(binary.LittleEndian.Uint64(b[8:16])), nil
}

// segName is the canonical file name of segment seq.
func segName(seq uint64) string { return fmt.Sprintf("%s%08d%s", segPrefix, seq, segSuffix) }

// parseSegName extracts the sequence number from a segment file name.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// Open scans dir for log segments, replays every intact record through
// replay in append order, truncates a torn tail left by a crash, and
// returns the log positioned for appending. A replay error aborts the
// open — the caller's state would otherwise silently diverge from the
// acknowledged history.
func Open(opts Options, replay func(Record) error) (*Log, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := opts.FS.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{opts: opts, fs: opts.FS, stopSync: make(chan struct{}),
		recsCh: make(chan struct{}), pins: make(map[int64]int)}
	l.gcCond = sync.NewCond(&l.gcMu)
	if opts.Metrics != nil {
		l.fsyncHist = opts.Metrics.Histogram("ppq_wal_fsync_seconds",
			"Duration of WAL fsync calls.", obs.LatencyBuckets)
		l.batchHist = opts.Metrics.Histogram("ppq_wal_commit_batch_count",
			"Commits acknowledged per group-commit fsync (batching factor).", obs.CountBuckets)
	}

	entries, err := l.fs.ReadDir(opts.Dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSegName(e.Name()); ok {
			l.segs = append(l.segs, &segment{seq: seq, path: filepath.Join(opts.Dir, e.Name()), maxTick: math.MinInt})
		}
	}
	sort.Slice(l.segs, func(i, j int) bool { return l.segs[i].seq < l.segs[j].seq })

	for i, s := range l.segs {
		last := i == len(l.segs)-1
		if err := l.replaySegment(s, last, replay); err != nil {
			return nil, err
		}
		l.written += s.bytes
	}
	l.synced = l.written // everything read back from disk is durable

	// Validate header contiguity and fix up a torn header (which
	// replaySegment only permits on the last file, and only from a crash
	// inside a rotation — so the previous segment's header is intact and
	// pins the ordinal). This is what keeps record ordinals stable across
	// restarts even after earlier files were reclaimed.
	next := int64(-1)
	for _, s := range l.segs {
		if !s.hasHeader {
			if next < 0 {
				next = 0
			}
			s.baseRec = next
		} else if next >= 0 && s.baseRec != next {
			return nil, fmt.Errorf("wal: %s: header base ordinal %d, want %d (record ordinals discontiguous)",
				s.path, s.baseRec, next)
		}
		next = s.baseRec + s.records
	}
	if next < 0 {
		next = 0
	}
	l.recs = next
	l.syncedRecs = next

	// Open (or create) the active segment for append.
	var active *segment
	if n := len(l.segs); n > 0 {
		active = l.segs[n-1]
	} else {
		active = &segment{seq: 1, path: filepath.Join(opts.Dir, segName(1)), maxTick: math.MinInt}
		l.segs = append(l.segs, active)
	}
	f, err := l.fs.OpenFile(active.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	l.f = f
	if !active.hasHeader {
		// Fresh file (or torn header truncated away): write the header and
		// make it durable before any record can be acknowledged into it.
		hdr := segHeader(active.baseRec)
		if _, err := f.Write(hdr[:]); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: writing segment header: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: syncing segment header: %w", err)
		}
		active.hasHeader = true
	}
	if len(l.segs) == 1 && active.bytes == 0 {
		// First-ever segment: make its directory entry durable too, so a
		// crash right after Open cannot resurrect an empty directory.
		if err := l.fs.SyncDir(opts.Dir); err != nil {
			f.Close()
			return nil, err
		}
	}

	if l.opts.Policy == SyncEvery {
		l.syncWG.Add(1)
		go l.syncLoop()
	}
	return l, nil
}

// replaySegment streams one file's records through replay. Only the last
// segment may end in a torn record (rotation fsyncs a file before moving
// on), which is truncated away; corruption anywhere else is fatal. A
// torn file header — possible only in the last file, from a crash inside
// the rotation that was creating it — truncates the file to empty; Open
// rewrites the header from the previous segment's ordinals.
func (l *Log) replaySegment(s *segment, last bool, replay func(Record) error) error {
	f, err := l.fs.Open(s.path)
	if err != nil {
		return err
	}
	defer f.Close()
	var seghdr [segHeaderLen]byte
	if _, err := io.ReadFull(f, seghdr[:]); err != nil {
		if (err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF)) && last {
			// Crash mid-rotation: no record was ever acked into this file.
			if terr := l.fs.Truncate(s.path, 0); terr != nil {
				return fmt.Errorf("wal: truncating torn header of %s: %w", s.path, terr)
			}
			s.bytes, s.hasHeader = 0, false
			return nil
		}
		return fmt.Errorf("wal: %s: reading segment header: %w", s.path, err)
	}
	base, err := parseSegHeader(seghdr[:])
	if err != nil {
		return fmt.Errorf("wal: %s: %w", s.path, err)
	}
	s.baseRec, s.hasHeader = base, true
	var (
		hdr    [recHeaderLen]byte
		buf    []byte
		offset int64 = segHeaderLen
	)
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			if err == io.EOF {
				break // clean end
			}
			if errors.Is(err, io.ErrUnexpectedEOF) && last {
				return l.truncateTorn(s, offset, "short record header")
			}
			return fmt.Errorf("wal: %s: reading record header at offset %d: %w", s.path, offset, err)
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if length > maxRecordSize {
			if last {
				return l.truncateTorn(s, offset, "implausible record length")
			}
			return fmt.Errorf("wal: %s: implausible record length %d at offset %d", s.path, length, offset)
		}
		if int(length) > cap(buf) {
			buf = make([]byte, length)
		}
		buf = buf[:length]
		if _, err := io.ReadFull(f, buf); err != nil {
			if last && (err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF)) {
				return l.truncateTorn(s, offset, "short record payload")
			}
			return fmt.Errorf("wal: %s: reading record payload at offset %d: %w", s.path, offset, err)
		}
		if crc32.Checksum(buf, castagnoli) != sum {
			if last {
				return l.truncateTorn(s, offset, "checksum mismatch")
			}
			return fmt.Errorf("wal: %s: checksum mismatch at offset %d", s.path, offset)
		}
		rec, err := decodeRecord(buf)
		if err != nil {
			if last {
				return l.truncateTorn(s, offset, err.Error())
			}
			return fmt.Errorf("wal: %s: offset %d: %w", s.path, offset, err)
		}
		if err := replay(rec); err != nil {
			return fmt.Errorf("wal: replaying %s record at offset %d (tick %d): %w", s.path, offset, rec.Tick, err)
		}
		offset += recHeaderLen + int64(length)
		s.records++
		if rec.Tick > s.maxTick {
			s.maxTick = rec.Tick
		}
		l.replayedRecs.Add(1)
		l.replayedPts.Add(int64(len(rec.IDs)))
	}
	s.bytes = offset - segHeaderLen
	return nil
}

// truncateTorn cuts the (last) segment back to the end of its final good
// record: the bytes beyond it are a half-written append from the crash —
// never acknowledged, so dropping them is correct, and keeping them would
// poison every future read of the file. offset is a file offset (header
// included).
func (l *Log) truncateTorn(s *segment, offset int64, why string) error {
	if err := l.fs.Truncate(s.path, offset); err != nil {
		return fmt.Errorf("wal: truncating torn tail of %s (%s): %w", s.path, why, err)
	}
	s.bytes = offset - segHeaderLen
	return nil
}

// decodeRecord parses one checksum-verified payload.
func decodeRecord(buf []byte) (Record, error) {
	if len(buf) < 12 {
		return Record{}, fmt.Errorf("wal: record payload of %d bytes is too short", len(buf))
	}
	tick := int(int64(binary.LittleEndian.Uint64(buf[0:8])))
	n := int(binary.LittleEndian.Uint32(buf[8:12]))
	want := 12 + n*4 + n*16
	if n < 0 || len(buf) != want {
		return Record{}, fmt.Errorf("wal: record payload of %d bytes does not match %d points", len(buf), n)
	}
	rec := Record{Tick: tick, IDs: make([]traj.ID, n), Points: make([]geo.Point, n)}
	off := 12
	for i := 0; i < n; i++ {
		rec.IDs[i] = traj.ID(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
	}
	for i := 0; i < n; i++ {
		rec.Points[i].X = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
		rec.Points[i].Y = math.Float64frombits(binary.LittleEndian.Uint64(buf[off+8:]))
		off += 16
	}
	return rec, nil
}

// EncodeFrame appends rec's framed encoding — [len][crc][payload], bit
// for bit the on-disk format — to dst and returns the extended slice.
// Exported because replication ships the same frames over the wire: the
// storage checksum doubles as end-to-end corruption detection.
func EncodeFrame(dst []byte, rec Record) []byte {
	n := len(rec.IDs)
	payload := 12 + n*4 + n*16
	total := recHeaderLen + payload
	start := len(dst)
	if cap(dst)-start < total {
		grown := make([]byte, start, start+total)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:start+total]
	b := dst[start:]
	binary.LittleEndian.PutUint32(b[0:4], uint32(payload))
	binary.LittleEndian.PutUint64(b[8:16], uint64(int64(rec.Tick)))
	binary.LittleEndian.PutUint32(b[16:20], uint32(n))
	off := 20
	for _, id := range rec.IDs {
		binary.LittleEndian.PutUint32(b[off:], uint32(id))
		off += 4
	}
	for _, p := range rec.Points {
		binary.LittleEndian.PutUint64(b[off:], math.Float64bits(p.X))
		binary.LittleEndian.PutUint64(b[off+8:], math.Float64bits(p.Y))
		off += 16
	}
	binary.LittleEndian.PutUint32(b[4:8], crc32.Checksum(b[recHeaderLen:], castagnoli))
	return dst
}

// DecodeFrames walks b as a sequence of frames, calling fn for each
// record that passes its checksum, in order. It returns how many records
// were consumed and a nil error only if b was exactly a whole number of
// valid frames; a torn or corrupt remainder returns the count of the good
// prefix and a descriptive error, so a replication applier can keep the
// intact records and refetch the rest. An error from fn stops the walk.
func DecodeFrames(b []byte, fn func(Record) error) (int, error) {
	n, off := 0, 0
	for off < len(b) {
		if len(b)-off < recHeaderLen {
			return n, fmt.Errorf("wal: torn frame header at offset %d", off)
		}
		length := binary.LittleEndian.Uint32(b[off : off+4])
		sum := binary.LittleEndian.Uint32(b[off+4 : off+8])
		if length > maxRecordSize {
			return n, fmt.Errorf("wal: implausible frame length %d at offset %d", length, off)
		}
		if int64(len(b)-off-recHeaderLen) < int64(length) {
			return n, fmt.Errorf("wal: torn frame payload at offset %d", off)
		}
		payload := b[off+recHeaderLen : off+recHeaderLen+int(length)]
		if crc32.Checksum(payload, castagnoli) != sum {
			return n, fmt.Errorf("wal: frame checksum mismatch at offset %d", off)
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return n, err
		}
		if err := fn(rec); err != nil {
			return n, err
		}
		n++
		off += recHeaderLen + int(length)
	}
	return n, nil
}

// Append writes one record to the active segment (rotating first when it
// is full) and returns the record's LSN. The write lands in the OS
// immediately — Append never buffers in user space, so a process crash
// cannot lose it — but it is only durable against machine crashes once
// Commit(lsn) returns (SyncAlways) or the next background/rotation sync
// covers it. Callers that serialize Appends (the repository appends under
// its hot-tail lock) get log order identical to application order, which
// is what makes replay reproduce the exact pre-crash state.
func (l *Log) Append(rec Record) (lsn int64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, errors.New("wal: append on closed log")
	}
	if l.failed != nil {
		return 0, l.failed
	}
	if payload := 12 + len(rec.IDs)*20; payload > maxRecordSize {
		// Replay rejects payloads above the bound, so writing one would
		// acknowledge a batch that recovery then discards as a torn tail.
		return 0, fmt.Errorf("wal: record of %d points (%d bytes) exceeds the %d-byte record cap",
			len(rec.IDs), payload, maxRecordSize)
	}
	active := l.segs[len(l.segs)-1]
	if active.bytes >= l.opts.SegmentBytes && active.records > 0 {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
		active = l.segs[len(l.segs)-1]
	}
	l.scratch = EncodeFrame(l.scratch[:0], rec)
	b := l.scratch
	if _, err := l.f.Write(b); err != nil {
		// A short write leaves a torn record in the file; nothing after
		// it could be replayed, so the log must fail-stop.
		return 0, l.fail(fmt.Errorf("wal: append: %w", err))
	}
	active.bytes += int64(len(b))
	active.records++
	if rec.Tick > active.maxTick {
		active.maxTick = rec.Tick
	}
	l.written += int64(len(b))
	l.recs++
	l.appends.Add(1)
	return l.written, nil
}

// Commit makes the record at lsn durable under the log's policy: under
// SyncAlways it fsyncs (batching with any concurrent commits that the
// same sync happens to cover, plus — with GroupCommitWait — whole
// batching windows of them); under SyncEvery/SyncNever it only
// reports a latched disk failure — the caller accepted the policy's
// loss window, but not a log that is known to be losing writes.
func (l *Log) Commit(lsn int64) error {
	if l.opts.Policy != SyncAlways {
		l.mu.Lock()
		err := l.failed
		l.mu.Unlock()
		return err
	}
	var err error
	if l.opts.GroupCommitWait > 0 {
		err = l.groupCommit(lsn)
	} else {
		err = l.syncTo(lsn)
	}
	if err == nil {
		l.commits.Add(1)
	}
	return err
}

// groupCommit is Commit's batching path: committers elect a leader; the
// leader — when other commits are already in flight — holds the window
// open for GroupCommitWait so concurrent appends pile into one fsync,
// then syncs everything written and wakes the round's followers, who
// find their LSNs durable without ever touching the disk. A lone
// committer (no one else pending) skips the window entirely, so
// sequential writers pay exactly the old one-fsync-per-commit cost.
func (l *Log) groupCommit(lsn int64) error {
	l.gcPending.Add(1)
	defer l.gcPending.Add(-1)
	for {
		l.mu.Lock()
		failed := l.failed
		done := l.synced >= lsn || l.closed
		l.mu.Unlock()
		if failed != nil {
			return failed
		}
		if done {
			return nil
		}

		l.gcMu.Lock()
		if l.gcLeader {
			// Follower: wait the current round out, then re-check the
			// durable watermark (the leader's fsync almost always covers
			// us — our append completed before its sync read `written`).
			round := l.gcRound
			for l.gcLeader && l.gcRound == round {
				l.gcCond.Wait()
			}
			l.gcMu.Unlock()
			continue
		}
		l.gcLeader = true
		l.gcMu.Unlock()

		// Hold the window open only while company keeps arriving: sleep
		// in slices and sync as soon as the pending population stops
		// growing, so the window never costs throughput where fsyncs are
		// cheap. The previous round's batch size decides whether a
		// momentarily-alone leader waits at all — right after a crowded
		// round the other committers are mid-ack and about to re-append,
		// and syncing immediately would burn a one-commit fsync on them;
		// a truly sequential writer's rounds all cover one commit, so it
		// keeps the zero-wait fast path.
		if l.gcPending.Load() > 1 || l.gcLastBatch.Load() > 1 {
			slice := l.opts.GroupCommitWait / 16
			if slice < 50*time.Microsecond {
				slice = 50 * time.Microsecond
			}
			deadline := time.Now().Add(l.opts.GroupCommitWait)
			prev := l.gcPending.Load()
			stagnant := 0
			for time.Now().Before(deadline) {
				time.Sleep(slice)
				cur := l.gcPending.Load()
				if cur <= prev {
					// One quiet slice can just mean a straggler is mid-ack
					// or mid-append; two in a row means the batch is in.
					if stagnant++; stagnant >= 2 {
						break
					}
				} else {
					stagnant = 0
				}
				prev = cur
			}
		}
		batch := l.gcPending.Load()
		l.gcLastBatch.Store(batch)
		if l.batchHist != nil {
			l.batchHist.Observe(float64(batch))
		}
		err := l.Sync()

		l.gcMu.Lock()
		l.gcLeader = false
		l.gcRound++
		l.gcCond.Broadcast()
		l.gcMu.Unlock()
		if err != nil {
			return err
		}
		// Loop: the sync covered everything appended before it ran, our
		// own record included; the re-check returns nil.
	}
}

// fail latches the first disk failure. Once an fsync or write has
// failed, the durable prefix of the log is unknowable — the kernel may
// have dropped the dirty pages and cleared the error state, so a later
// "successful" fsync proves nothing about earlier bytes. The only safe
// behavior is fail-stop: every subsequent Append/Commit/Sync returns the
// latched error instead of acknowledging writes that may never land.
// Called with mu held. The stored error matches ErrFailStopped, so the
// serving layer can map it to degraded mode without string matching.
func (l *Log) fail(err error) error {
	if l.failed == nil {
		l.failed = &failStopError{err: err}
		l.bumpDurableRecsLocked(l.syncedRecs) // wake waiters to see the latch
	}
	return l.failed
}

// Failed returns the latched disk error, or nil while the log is
// healthy. The serving layer polls it to expose degraded mode in stats.
func (l *Log) Failed() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Sync forces an fsync of everything appended so far, regardless of
// policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	lsn := l.written
	l.mu.Unlock()
	return l.syncTo(lsn)
}

// syncTo fsyncs until the durable watermark covers lsn. Rotation fsyncs
// a file before switching, so the active file always holds every byte
// past the watermark.
//
// The fsync itself runs with mu RELEASED: Append runs under the serving
// layer's hot-tail write lock, so holding mu through a multi-millisecond
// fsync would stall every hot-tail query behind the disk. Only syncMu is
// held across the fsync, which both serializes the syncers and gives
// group commit its batching point — a committer that waited here
// re-checks the watermark and usually finds its LSN already covered.
func (l *Log) syncTo(lsn int64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	if l.failed != nil {
		l.mu.Unlock()
		return l.failed
	}
	if l.synced >= lsn || l.closed {
		l.mu.Unlock()
		return nil
	}
	cur := l.written
	curRecs := l.recs // captured with cur: the fsync covers both watermarks
	f := l.f
	l.mu.Unlock()

	t0 := time.Now()
	err := f.Sync()
	if l.fsyncHist != nil {
		l.fsyncHist.ObserveSince(t0)
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		// A rotation or Close may have synced past our LSN and closed the
		// file under us (os.File makes the race safe, the Sync just loses);
		// that is success, not a disk failure.
		if l.synced >= lsn {
			return nil
		}
		return l.fail(fmt.Errorf("wal: fsync: %w", err))
	}
	l.syncs.Add(1)
	if cur > l.synced {
		l.synced = cur
	}
	l.bumpDurableRecsLocked(curRecs)
	return nil
}

// bumpDurableRecsLocked advances the durable record watermark and wakes
// long-poll waiters. Called with mu held; also used (with an unchanged
// watermark) to wake waiters on close and fail-stop so they can observe
// the terminal state.
func (l *Log) bumpDurableRecsLocked(n int64) {
	if n > l.syncedRecs {
		l.syncedRecs = n
	}
	close(l.recsCh)
	l.recsCh = make(chan struct{})
}

// rotateLocked seals the active segment (fsync + close) and starts the
// next one. Called with mu held.
//
// list swaps to the new one, and both have to happen atomically under mu —
// a rotation is rare (once per SegmentBytes) and bounded, unlike the
// per-commit sync path the fsync-outside-mu rule exists for.
//
//ppqvet:allow lockorder rotation must seal the old file before the segment
func (l *Log) rotateLocked() error {
	if err := l.f.Sync(); err != nil {
		return l.fail(fmt.Errorf("wal: rotate fsync: %w", err))
	}
	l.syncs.Add(1)
	if l.synced < l.written {
		l.synced = l.written
	}
	l.bumpDurableRecsLocked(l.recs) // the sealed file held every record so far
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: rotate close: %w", err)
	}
	next := &segment{
		seq:       l.segs[len(l.segs)-1].seq + 1,
		maxTick:   math.MinInt,
		baseRec:   l.recs,
		hasHeader: true,
	}
	next.path = filepath.Join(l.opts.Dir, segName(next.seq))
	f, err := l.fs.OpenFile(next.path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: rotate create: %w", err)
	}
	l.f = f
	l.segs = append(l.segs, next)
	// Write the new file's header and fsync it before anything else can
	// run: once this returns, TruncateThrough may reclaim every earlier
	// file, and the header is then the only surviving carrier of the
	// record ordinal. A failure past the swap must latch (see below).
	hdr := segHeader(next.baseRec)
	if _, err := f.Write(hdr[:]); err != nil {
		return l.fail(fmt.Errorf("wal: rotate header write: %w", err))
	}
	if err := f.Sync(); err != nil {
		return l.fail(fmt.Errorf("wal: rotate header fsync: %w", err))
	}
	// The new file's directory entry must be durable before records in it
	// are acknowledged; one directory sync at rotation covers them all. A
	// failure must latch: the swap to the new file already happened, so
	// without the latch later appends would be acknowledged into a file a
	// machine crash can unlink entirely.
	if err := l.fs.SyncDir(l.opts.Dir); err != nil {
		return l.fail(err)
	}
	return nil
}

// TruncateThrough reclaims segments made redundant by compaction: every
// file whose records all have tick ≤ sealedTick is deleted (those points
// are now served by published sealed segments, and replay skips them
// anyway). An active segment that qualifies and holds records is rotated
// first so its file can go too — this is what keeps the log's disk
// footprint proportional to the hot tail instead of the full history.
//
// Two things veto reclamation of an otherwise-sealed file: a retention
// pin at or below the file's last record ordinal (a replication follower
// still needs those records), and the Options.RetainSegments floor
// (the newest N files always survive). Reclamation is how replication
// could otherwise race GC into a gap; the pins make the race a held-back
// file instead.
func (l *Log) TruncateThrough(sealedTick int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	minPin, pinned := l.minPinLocked()
	pinOK := func(s *segment) bool { return !pinned || s.baseRec+s.records <= minPin }
	active := l.segs[len(l.segs)-1]
	if active.records > 0 && active.maxTick <= sealedTick && pinOK(active) && l.opts.RetainSegments <= 1 {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	kept := l.segs[:0]
	removed := false
	n := len(l.segs)
	for i, s := range l.segs {
		last := i == n-1
		floored := n-i <= l.opts.RetainSegments
		if !last && !floored && s.records > 0 && s.maxTick <= sealedTick && pinOK(s) {
			if err := l.fs.Remove(s.path); err != nil {
				return fmt.Errorf("wal: reclaiming %s: %w", s.path, err)
			}
			l.reclaimed.Add(1)
			removed = true
			continue
		}
		kept = append(kept, s)
	}
	l.segs = kept
	if removed {
		return l.fs.SyncDir(l.opts.Dir)
	}
	return nil
}

// Pin places a retention hold at ordinal from: TruncateThrough will not
// reclaim any file holding records at or past it. The returned release is
// idempotent. The replication shipper pins each follower's resume
// position so a slow follower never comes back to a gap.
func (l *Log) Pin(from int64) (release func()) {
	l.mu.Lock()
	l.pins[from]++
	l.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			l.mu.Lock()
			if l.pins[from]--; l.pins[from] <= 0 {
				delete(l.pins, from)
			}
			l.mu.Unlock()
		})
	}
}

// minPinLocked returns the smallest pinned ordinal. Called with mu held.
func (l *Log) minPinLocked() (int64, bool) {
	min, ok := int64(0), false
	for p := range l.pins {
		if !ok || p < min {
			min, ok = p, true
		}
	}
	return min, ok
}

// syncLoop is the SyncEvery background fsync.
func (l *Log) syncLoop() {
	defer l.syncWG.Done()
	ticker := time.NewTicker(l.opts.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-l.stopSync:
			return
		case <-ticker.C:
			// An error here latches via fail(), so it is not lost: every
			// subsequent Commit (any policy) and Append returns it.
			l.Sync() //nolint:errcheck // latched; surfaced by the next Commit/Append
		}
	}
}

// Close fsyncs and closes the active segment and stops the background
// sync. The log must not be used afterwards.
//
// The closing fsync follows the same discipline as syncTo: syncMu is
// taken first (serializing against any in-flight Commit/Sync, so the
// file cannot be closed under a racing fsync), mu is released across
// the disk wait, and the final close happens back under mu. ppqvet's
// lockorder analyzer enforces exactly this shape.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.mu.Unlock()
	close(l.stopSync)
	l.syncWG.Wait()

	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	if l.closed { // lost a Close race while waiting on syncMu
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	f := l.f
	written := l.written
	recs := l.recs
	l.mu.Unlock()

	err := f.Sync()

	l.mu.Lock()
	defer l.mu.Unlock()
	if err == nil {
		l.syncs.Add(1)
		l.synced = written
		l.bumpDurableRecsLocked(recs)
	} else {
		l.bumpDurableRecsLocked(l.syncedRecs) // wake waiters to observe closed
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// NextRec returns the ordinal the next appended record will get — the
// exclusive upper bound of the log's record space.
func (l *Log) NextRec() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recs
}

// DurableRec returns the durable record watermark: every record with a
// smaller ordinal is known fsynced. This is the bound the replication
// shipper serves up to — a follower can never see a record the primary
// has not made stable.
func (l *Log) DurableRec() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncedRecs
}

// OldestRec returns the smallest record ordinal still present in a log
// file; ordinals below it were reclaimed by TruncateThrough.
func (l *Log) OldestRec() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segs[0].baseRec
}

// WaitDurable blocks until the durable record watermark passes from
// (that is, record ordinal from exists and is durable), the context is
// done, or the log closes or fail-stops. It is the long-poll primitive
// under the replication stream endpoint.
func (l *Log) WaitDurable(ctx context.Context, from int64) error {
	for {
		l.mu.Lock()
		if l.failed != nil {
			err := l.failed
			l.mu.Unlock()
			return err
		}
		if l.closed {
			l.mu.Unlock()
			return errors.New("wal: wait on closed log")
		}
		if l.syncedRecs > from {
			l.mu.Unlock()
			return nil
		}
		ch := l.recsCh
		l.mu.Unlock()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
	}
}

// ReadFrames reads durable records starting at ordinal from, returning
// their raw frames (ready to ship: the wire format is the disk format,
// checksums included) and the next ordinal to resume at. It stops after
// roughly maxBytes of frames — always returning at least one record when
// any is available — or at the durable watermark, whichever is first;
// next == from with a nil error means nothing is durable past from yet.
// Asking for reclaimed ordinals fails with ErrGone; a checksum failure
// on re-read is fatal (acknowledged history is damaged), matching
// replay's stance.
//
// The read is sequential from the owning file's start (the FS seam has
// no seek), but a single-entry cursor makes the resume-where-you-left
// pattern — the steady state of a tailing follower — skip the prefix
// with a byte discard instead of a parse.
func (l *Log) ReadFrames(from int64, maxBytes int64) (frames []byte, next int64, err error) {
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	next = from
	for int64(len(frames)) < maxBytes {
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return frames, next, errors.New("wal: read on closed log")
		}
		durable := l.syncedRecs
		if oldest := l.segs[0].baseRec; next < oldest {
			l.mu.Unlock()
			return frames, next, fmt.Errorf("%w: ordinal %d requested, oldest retained is %d", ErrGone, next, oldest)
		}
		if next > l.recs {
			l.mu.Unlock()
			return frames, next, fmt.Errorf("%w: ordinal %d requested, log ends at %d", ErrFuture, next, l.recs)
		}
		if next >= durable {
			l.mu.Unlock()
			return frames, next, nil
		}
		var seg *segment
		for _, s := range l.segs {
			if next < s.baseRec+s.records {
				seg = s
				break
			}
		}
		path := seg.path
		want := seg.baseRec + seg.records - next
		if end := durable - next; end < want {
			want = end
		}
		skipRecs := next - seg.baseRec
		var skipOff int64
		if l.readPath == path && l.readOrd == next && l.readOff > 0 {
			skipOff, skipRecs = l.readOff, 0
		}
		l.mu.Unlock()

		chunk, got, endOff, rerr := l.readSegFrames(path, skipOff, skipRecs, want, maxBytes-int64(len(frames)))
		if rerr != nil {
			return frames, next, rerr
		}
		if got == 0 {
			break // budget exhausted before one record fit
		}
		frames = append(frames, chunk...)
		next += got

		l.mu.Lock()
		l.readPath, l.readOrd, l.readOff = path, next, endOff
		l.mu.Unlock()
	}
	return frames, next, nil
}

// readSegFrames reads up to want records from one segment file, skipping
// skipOff bytes (a cursor resume, header included) or else skipRecs
// records past the header. It returns the frames, how many records they
// hold, and the file offset just past them. At least one record is
// returned regardless of budget so a reader always makes progress.
func (l *Log) readSegFrames(path string, skipOff, skipRecs, want, budget int64) (data []byte, n, endOff int64, err error) {
	f, err := l.fs.Open(path)
	if err != nil {
		return nil, 0, 0, err
	}
	defer f.Close()
	if skipOff > 0 {
		if _, err := io.CopyN(io.Discard, f, skipOff); err != nil {
			return nil, 0, 0, fmt.Errorf("wal: %s: seeking to cursor offset %d: %w", path, skipOff, err)
		}
		endOff = skipOff
	} else {
		var seghdr [segHeaderLen]byte
		if _, err := io.ReadFull(f, seghdr[:]); err != nil {
			return nil, 0, 0, fmt.Errorf("wal: %s: reading segment header: %w", path, err)
		}
		if _, err := parseSegHeader(seghdr[:]); err != nil {
			return nil, 0, 0, fmt.Errorf("wal: %s: %w", path, err)
		}
		endOff = segHeaderLen
	}
	var hdr [recHeaderLen]byte
	for n < want {
		if skipRecs == 0 && n > 0 && int64(len(data)) >= budget {
			break
		}
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return nil, 0, 0, fmt.Errorf("wal: %s: reading frame header at offset %d: %w", path, endOff, err)
		}
		length := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		if length > maxRecordSize {
			return nil, 0, 0, fmt.Errorf("wal: %s: implausible frame length %d at offset %d", path, length, endOff)
		}
		if skipRecs > 0 {
			if _, err := io.CopyN(io.Discard, f, length); err != nil {
				return nil, 0, 0, fmt.Errorf("wal: %s: skipping frame at offset %d: %w", path, endOff, err)
			}
			skipRecs--
			endOff += recHeaderLen + length
			continue
		}
		start := len(data)
		data = append(data, hdr[:]...)
		data = append(data, make([]byte, length)...)
		if _, err := io.ReadFull(f, data[start+recHeaderLen:]); err != nil {
			return nil, 0, 0, fmt.Errorf("wal: %s: reading frame payload at offset %d: %w", path, endOff, err)
		}
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if crc32.Checksum(data[start+recHeaderLen:], castagnoli) != sum {
			// Durable, acknowledged history failing its checksum on re-read
			// is bitrot, not a torn tail: fatal, same as replay.
			return nil, 0, 0, fmt.Errorf("wal: %s: frame checksum mismatch at offset %d", path, endOff)
		}
		n++
		endOff += recHeaderLen + length
	}
	return data, n, endOff, nil
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	if l == nil {
		return Stats{}
	}
	l.mu.Lock()
	st := Stats{
		Segments:    len(l.segs),
		OldestRec:   l.segs[0].baseRec,
		NextRec:     l.recs,
		DurableRec:  l.syncedRecs,
		PinnedHolds: len(l.pins),
	}
	for _, s := range l.segs {
		st.Bytes += s.bytes
	}
	if l.failed != nil {
		st.Failed = l.failed.Error()
	}
	l.mu.Unlock()
	st.Syncs = l.syncs.Load()
	st.Commits = l.commits.Load()
	st.Appends = l.appends.Load()
	st.ReplayedRecords = l.replayedRecs.Load()
	st.ReplayedPoints = l.replayedPts.Load()
	st.Reclaimed = l.reclaimed.Load()
	return st
}

// SyncDir fsyncs a directory, making renames, creations, and removals in
// it durable. Exported because the serving layer needs the same barrier
// around its manifest and segment rename-swaps.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: fsync dir %s: %w", dir, err)
	}
	return nil
}
