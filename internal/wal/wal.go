// Package wal implements a segmented write-ahead log.
//
// Every mutation of a region is appended to the log before it is applied to
// the memstore, so a crash between acknowledgement and flush loses nothing.
// The log is a sequence of segment files. Its owner decides when a segment
// ends (Rotate) and which segments go (Truncate): the store rolls the log
// once it has grown by a set number of bytes and, once the memstores the
// older segments cover are flushed into SSTables, truncates those away.
//
// A retired segment's file is kept as a spare and reused for a later
// segment, so a durable append overwrites blocks the file already holds and
// its fsync commits no allocation or size change. Every record is bound to
// its segment: its checksum covers the segment's sequence number, so the
// records a reused file still holds from its earlier life never replay.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"tpcxiot/internal/telemetry"
)

// Sentinel errors.
var (
	ErrClosed    = errors.New("wal: log is closed")
	ErrCorrupt   = errors.New("wal: corrupt record")
	ErrTooLarge  = errors.New("wal: record exceeds maximum size")
	ErrBadOption = errors.New("wal: invalid option")
)

// MaxRecordSize bounds a single record. The store logs a region's batch as
// one record, so the bound sits above the largest batch a mutate frame can
// carry: a 256 MiB frame, plus the tag byte a record adds to every row.
const MaxRecordSize = 512 << 20

// SyncPolicy controls when appended records are forced to stable storage.
type SyncPolicy int

const (
	// SyncOnAppend fsyncs after every Append call (group committing all
	// records in the call). Durable and slow; the default.
	SyncOnAppend SyncPolicy = iota
	// SyncOnRotate fsyncs only when the owner rolls the log (Rotate) or
	// closes it. Models running the storage layer with deferred log sync.
	SyncOnRotate
	// SyncNever never fsyncs; for tests and benchmarks that measure the
	// engine above the disk.
	SyncNever
)

// Options configures a log.
type Options struct {
	// Dir is the directory holding segment files. Created if absent.
	Dir string
	// Sync selects the durability policy.
	Sync SyncPolicy
	// Registry, when non-nil, receives the "put.wal_append" stage
	// histogram. The log's counters are named by Counters for its owner to
	// attach. A nil registry costs one pointer test per append.
	Registry *telemetry.Registry
	// Logger, when non-nil, receives structured events from rare paths
	// (recovery warnings). The hot append path never logs.
	Logger *telemetry.Logger
}

// Log is a segmented write-ahead log. Safe for concurrent use.
//
// Under SyncOnAppend, concurrent appenders GROUP COMMIT: one fsync covers
// every record written before it started, so N concurrent writers share
// syncs instead of paying one each — the amortisation behind the paper's
// super-linear low-concurrency scaling.
type Log struct {
	opts Options

	mu       sync.Mutex
	f        *os.File
	frames   []byte // one group's frames, for a single write; as long as the largest group
	seq      uint64
	segBytes int64    // bytes appended to segment seq, framing included
	seqCRC   uint32   // CRC32C of seq's 8 bytes: the start of every bound record's checksum
	segments []uint64 // live segment sequence numbers, ascending; includes active
	firstOwn uint64   // the first segment this Log opened; lower ones were found at Open
	spare    uint64   // the retired segment whose file waits under spareName; 0 when none
	closed   bool
	err      error // a failed write: the segment's tail is unknown, so no append may follow it

	// Group-commit state: monotone byte counters across all segments.
	// appended is advanced under mu; synced is atomic (written by sync
	// leaders and by Rotate, both under syncMu). A writer whose records
	// are at offset <= synced is durable without syncing itself.
	appended int64
	synced   atomic.Int64
	syncMu   sync.Mutex // serialises sync leaders, Rotate and Close; taken before mu
	truncMu  sync.Mutex // serialises Truncate, which removes files outside mu

	// Event counters, named by Counters. Every fsync is a groupSyncs (a
	// group-commit leader's) or a flushSyncs (Rotate, Close) one.
	appends, bytes         telemetry.Counter
	groupSyncs, flushSyncs telemetry.Counter
	groupShared            telemetry.Counter // appends whose sync another writer's fsync covered
	recycled               telemetry.Counter // segments opened on a spare's file
	appendSpan             *telemetry.Timer
}

const (
	headerLen   = 8 // 4-byte length + 4-byte CRC32C
	filePrefix  = "wal-"
	fileSuffix  = ".log"
	spareSuffix = ".spare"
	// boundBit set in a record's length word marks a bound record: its
	// CRC32C covers the segment's sequence number (8 bytes, little-endian)
	// and then the record. A record with the bit clear, as logs written
	// before segment reuse hold, has a CRC of the record alone. Every record
	// of one segment is of one kind. MaxRecordSize leaves the bit free.
	boundBit = 1 << 31
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func segmentName(seq uint64) string {
	return fmt.Sprintf("%s%08d%s", filePrefix, seq, fileSuffix)
}

// spareName is where Truncate keeps retired segment seq's file for reuse.
// listSegments does not see it.
func spareName(seq uint64) string {
	return fmt.Sprintf("%s%08d%s", filePrefix, seq, spareSuffix)
}

// seqCRC is the CRC32C of seq's 8 little-endian bytes, which every bound
// record's checksum in segment seq starts from.
func seqCRC(seq uint64) uint32 {
	return crc32.Checksum(binary.LittleEndian.AppendUint64(nil, seq), crcTable)
}

func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, filePrefix) || !strings.HasSuffix(name, fileSuffix) {
		return 0, false
	}
	mid := name[len(filePrefix) : len(name)-len(fileSuffix)]
	seq, err := strconv.ParseUint(mid, 10, 64)
	return seq, err == nil
}

// Open opens (creating if necessary) the log in opts.Dir. Existing segments
// are retained; new appends go to a fresh segment after the highest existing
// sequence number. Until the owner rolls the log, that segment is the one
// Truncate never removes. A spare left by an earlier Log is removed.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("%w: Dir is required", ErrBadOption)
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	if err := removeSpares(opts.Dir); err != nil {
		return nil, err
	}
	segs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, err
	}
	l := &Log{
		opts:       opts,
		segments:   segs,
		appendSpan: opts.Registry.Timer("put.wal_append"),
	}
	l.firstOwn = 1
	if n := len(segs); n > 0 {
		l.firstOwn = segs[n-1] + 1
	}
	if err := l.openSegmentLocked(l.firstOwn); err != nil {
		return nil, err
	}
	return l, nil
}

func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: read dir: %w", err)
	}
	var segs []uint64
	for _, e := range entries {
		if seq, ok := parseSegmentName(e.Name()); ok {
			segs = append(segs, seq)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// removeSpares removes every spare file in dir. A spare is never replayed,
// so one that a power loss brings back costs nothing but the next removal.
func removeSpares(dir string) error {
	spares, err := filepath.Glob(filepath.Join(dir, filePrefix+"*"+spareSuffix))
	if err != nil {
		return fmt.Errorf("wal: list spares: %w", err)
	}
	for _, p := range spares {
		if err := os.Remove(p); err != nil {
			return fmt.Errorf("wal: remove spare: %w", err)
		}
	}
	return nil
}

// openSegmentLocked makes segment seq the active one, on the spare's file
// when there is one, else on a new file. Either way it writes from offset 0:
// appends to a reused file overwrite the records of its earlier life, which
// replay tells apart by their sequence number. Unless the policy is
// SyncNever the directory is synced too, so the new entry survives a power
// loss along with the records synced into it.
func (l *Log) openSegmentLocked(seq uint64) error {
	path := filepath.Join(l.opts.Dir, segmentName(seq))
	if spare := l.spare; spare != 0 {
		l.spare = 0
		if err := os.Rename(filepath.Join(l.opts.Dir, spareName(spare)), path); err != nil {
			return fmt.Errorf("wal: reuse segment %d: %w", spare, err)
		}
		l.recycled.Inc()
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open segment: %w", err)
	}
	if l.opts.Sync != SyncNever {
		if err := SyncDir(l.opts.Dir); err != nil {
			f.Close()
			return fmt.Errorf("wal: sync dir after segment create: %w", err)
		}
	}
	l.f = f
	l.seq = seq
	l.segBytes = 0
	l.seqCRC = seqCRC(seq)
	l.segments = append(l.segments, seq)
	return nil
}

// Append writes the records as one atomic group: either all records are
// durable after a successful return (under SyncOnAppend) or, after a crash,
// replay stops at the first incomplete record. Concurrent appenders under
// SyncOnAppend share fsyncs via group commit. A record must hold 1 to
// MaxRecordSize bytes.
func (l *Log) Append(records ...[]byte) error {
	return l.AppendTraced(telemetry.TSpan{}, records...)
}

// AppendTraced is Append under a trace span: when parent is live, the fsync
// performed by a group-commit leader appears as a "wal.fsync" child span (a
// follower whose durability another writer's fsync covered records none).
func (l *Log) AppendTraced(parent telemetry.TSpan, records ...[]byte) error {
	sp := l.appendSpan.Start()
	err := l.append(records, parent)
	sp.End()
	return err
}

// errEmptyRecord refuses an empty record: replay reads a zero length as the
// zero-filled tail a crash can leave.
var errEmptyRecord = errors.New("wal: empty record")

// append is the untimed body of Append.
func (l *Log) append(records [][]byte, trace telemetry.TSpan) error {
	for _, rec := range records {
		if len(rec) == 0 {
			return errEmptyRecord
		}
		if len(rec) > MaxRecordSize {
			return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(rec))
		}
	}
	need := 0
	for _, rec := range records {
		need += headerLen + len(rec)
	}
	l.mu.Lock()
	err := l.err
	if l.closed {
		err = ErrClosed
	}
	if err != nil {
		l.mu.Unlock()
		return err
	}
	// The group's frames go down in one write from a slice the log keeps,
	// sized to the largest group so far.
	if cap(l.frames) < need {
		l.frames = make([]byte, 0, need)
	}
	frames := l.frames[:0]
	for _, rec := range records {
		frames = binary.LittleEndian.AppendUint32(frames, uint32(len(rec))|boundBit)
		frames = binary.LittleEndian.AppendUint32(frames, crc32.Update(l.seqCRC, crcTable, rec))
		frames = append(frames, rec...)
	}
	if _, err := l.f.Write(frames); err != nil {
		l.err = fmt.Errorf("wal: write: %w", err)
		l.mu.Unlock()
		return l.err
	}
	l.appended += int64(need)
	l.segBytes += int64(need)
	myOffset := l.appended
	l.appends.Add(int64(len(records)))
	l.bytes.Add(int64(need))
	l.mu.Unlock()

	if l.opts.Sync == SyncOnAppend {
		return l.groupSync(myOffset, trace)
	}
	return nil
}

// groupSync makes everything up to myOffset durable, sharing fsyncs between
// concurrent appenders: whoever holds syncMu is the leader; followers that
// arrive later find their offset already covered and return without an
// fsync of their own.
func (l *Log) groupSync(myOffset int64, trace telemetry.TSpan) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.synced.Load() >= myOffset {
		l.groupShared.Inc()
		return nil // a leader's fsync already covered these records
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	target := l.appended
	f := l.f
	l.mu.Unlock()

	// fsync without holding mu, so new appends accumulate into the next
	// cohort while the disk works. The file handle cannot be closed
	// concurrently: Rotate and Close wait for syncMu.
	fsyncSpan := trace.Child("wal.fsync")
	err := f.Sync()
	fsyncSpan.End()
	if err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.groupSyncs.Inc()
	if target > l.synced.Load() {
		l.synced.Store(target)
	}
	return nil
}

// Active returns the active segment's sequence number and the bytes appended
// to it, framing included: every record appended from now on lies in that
// segment or a later one.
func (l *Log) Active() (seq uint64, bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq, l.segBytes
}

// Bytes is the log volume appended: every record plus its framing header.
func (l *Log) Bytes() int64 { return l.bytes.Load() }

// Counters is the log's metric table: each counter it owns and the name it
// reports under, for the owner to attach to a registry. A leader's fsync
// counts toward both "wal.group_commit_syncs" and "wal.syncs";
// "wal.segments_recycled" counts the segments opened on a spare's file.
func (l *Log) Counters() []telemetry.Named {
	return []telemetry.Named{
		{Name: "wal.appends", C: &l.appends},
		{Name: "wal.bytes", C: &l.bytes},
		{Name: "wal.syncs", C: &l.groupSyncs},
		{Name: "wal.syncs", C: &l.flushSyncs},
		{Name: "wal.group_commit_syncs", C: &l.groupSyncs},
		{Name: "wal.group_commit_shared", C: &l.groupShared},
		{Name: "wal.segments_recycled", C: &l.recycled},
	}
}

// endLocked cuts the active segment's file to the bytes appended to it, so
// no record of a reused file's earlier life outlasts the segment's end, and
// syncs it unless the policy is SyncNever.
func (l *Log) endLocked() error {
	if err := l.f.Truncate(l.segBytes); err != nil {
		return fmt.Errorf("wal: cut segment %d: %w", l.seq, err)
	}
	if l.opts.Sync == SyncNever {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.flushSyncs.Inc()
	return nil
}

// Rotate ends the active segment and starts the next, returning the new
// segment's sequence number: every record appended before Rotate lies in a
// lower segment, every later one in this segment or after. It is the only
// way a segment ends: its file is cut to its last record and, unless the
// policy is SyncNever, synced before the next takes a record, since replay
// refuses a damaged segment that is not the last.
func (l *Log) Rotate() (uint64, error) {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if err := l.endLocked(); err != nil {
		return 0, err
	}
	if l.opts.Sync != SyncNever {
		// Waiting group-commit followers find their records covered.
		l.synced.Store(l.appended)
	}
	ended := l.f
	if err := l.openSegmentLocked(l.seq + 1); err != nil {
		return 0, err
	}
	ended.Close()
	return l.seq, nil
}

// Truncate retires every segment below upTo but the active one, oldest
// first, once the memstores they cover are flushed, then syncs the
// directory: a segment back after a power loss would replay older values
// over the tables that replaced them. While the log has no spare, the first
// retired segment that this Log opened is renamed to its spare name for a
// later segment to reuse; the others are removed. Appends go on meanwhile.
// A segment that fails to go stays listed with every later one, for the
// next call.
func (l *Log) Truncate(upTo uint64) error {
	l.truncMu.Lock()
	defer l.truncMu.Unlock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	n := 0
	for n < len(l.segments) && l.segments[n] < upTo && l.segments[n] != l.seq {
		n++
	}
	doomed := l.segments[:n:n]
	l.segments = l.segments[n:]
	// Only Truncate makes a spare, under truncMu, so none appears meanwhile.
	// Segments found at Open may hold records bound to no segment, which a
	// reuse would leave replayable; they are removed.
	var spare uint64
	for _, seq := range doomed {
		if l.spare == 0 && seq >= l.firstOwn {
			spare = seq
			break
		}
	}
	l.mu.Unlock()
	if n == 0 {
		return nil
	}
	for i, seq := range doomed {
		path := filepath.Join(l.opts.Dir, segmentName(seq))
		var err error
		if seq == spare {
			err = os.Rename(path, filepath.Join(l.opts.Dir, spareName(seq)))
		} else {
			err = os.Remove(path)
		}
		if err != nil {
			l.mu.Lock()
			l.segments = append(doomed[i:], l.segments...)
			l.mu.Unlock()
			return fmt.Errorf("wal: retire segment %d: %w", seq, err)
		}
		if seq == spare {
			l.mu.Lock()
			l.spare = seq // one a racing Close leaves, the next Open removes
			l.mu.Unlock()
		}
	}
	if err := SyncDir(l.opts.Dir); err != nil {
		return fmt.Errorf("wal: sync dir after truncate: %w", err)
	}
	return nil
}

// Close ends the active segment as Rotate does, cut to its last record and
// synced unless the policy is SyncNever, closes it and removes the spare.
func (l *Log) Close() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.endLocked(); err != nil {
		l.f.Close()
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	if l.spare != 0 {
		if err := os.Remove(filepath.Join(l.opts.Dir, spareName(l.spare))); err != nil {
			return fmt.Errorf("wal: remove spare: %w", err)
		}
		l.spare = 0
	}
	return nil
}

// SyncDir fsyncs a directory so that the entries created, renamed or
// removed in it survive a power loss. A filesystem that cannot sync a
// directory at all answers EINVAL; that counts as success, since there is
// no stronger guarantee there to wait for.
func SyncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if errors.Is(err, syscall.EINVAL) {
		return nil
	}
	return err
}

// Replay invokes fn for every intact record across all segments in append
// order. Each record is a buffer of its own, which fn may keep: no later
// read writes it. A record is intact when its header is whole, its length is
// neither 0 nor over MaxRecordSize, its body lies inside the file, it is of
// the segment's kind (that of the segment's first record) and its CRC
// matches: a bound record's over its segment's sequence number and the
// record, so a record of a reused file's earlier life never is. In the last
// segment the first record that is not intact ends replay without error — it
// is what a crash leaves at the tail: a half-written record, the zeros of a
// file extended but never written, or the stale records of a reused file —
// so damage anywhere in the last segment drops the records behind it, and
// the segment is truncated to the records before it. In any earlier segment
// the same damage is ErrCorrupt. A tolerated torn tail is reported to logger
// (nil drops it) as a warn event, so operators can tell a clean recovery
// from one that discarded an unacknowledged tail.
func Replay(dir string, logger *telemetry.Logger, fn func(record []byte) error) error {
	segs, err := listSegments(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil // no directory yet: an empty log
	}
	if err != nil {
		return err
	}
	for i, seq := range segs {
		if err := replayFile(dir, seq, i == len(segs)-1, logger, fn); err != nil {
			return err
		}
	}
	return nil
}

// replayFile replays segment seq of dir. The last segment is cut back to
// its intact records, and the cut synced, before the log opens a segment
// after it: left in place, a torn tail would sit in a segment that is no
// longer the last, where the next replay refuses it as ErrCorrupt.
func replayFile(dir string, seq uint64, last bool, logger *telemetry.Logger, fn func([]byte) error) error {
	flag := os.O_RDONLY
	if last {
		flag = os.O_RDWR
	}
	f, err := os.OpenFile(filepath.Join(dir, segmentName(seq)), flag, 0)
	if err != nil {
		return fmt.Errorf("wal: open for replay: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return fmt.Errorf("wal: stat for replay: %w", err)
	}
	var intact int64
	err = replaySegment(bufio.NewReaderSize(f, 256<<10), info.Size(), seq, last, logger, func(rec []byte) error {
		intact += headerLen + int64(len(rec))
		return fn(rec)
	})
	if err == nil && intact < info.Size() {
		if err = f.Truncate(intact); err == nil {
			err = f.Sync()
		}
		if err != nil {
			return fmt.Errorf("wal: truncate torn tail: %w", err)
		}
	}
	return err
}

// replaySegment replays the size bytes of segment seq that r yields, by
// Replay's rules; last says whether it is the log's last segment. No header
// sizes an allocation: a record's buffer is made once its length has passed
// the checks, so it fits in the bytes left.
func replaySegment(r io.Reader, size int64, seq uint64, last bool, logger *telemetry.Logger, fn func([]byte) error) error {
	name := segmentName(seq)
	var replayed int64
	torn := func(reason string) error {
		if !last {
			return fmt.Errorf("%w: %s in %s", ErrCorrupt, reason, name)
		}
		logger.Warn("wal replay stopped at torn tail record",
			telemetry.F("segment", name),
			telemetry.F("reason", reason),
			telemetry.F("records_replayed", replayed))
		return nil
	}
	bound, crcSeed := false, seqCRC(seq)
	for left := size; left > 0; replayed++ {
		if left < headerLen {
			return torn("truncated header")
		}
		var hdr [headerLen]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return fmt.Errorf("wal: replay %s: %w", name, err)
		}
		left -= headerLen
		word := binary.LittleEndian.Uint32(hdr[0:4])
		n := int64(word &^ boundBit)
		if replayed == 0 {
			bound = word&boundBit != 0
		}
		switch {
		case n == 0:
			return torn("empty record")
		case n > MaxRecordSize:
			return torn(fmt.Sprintf("record length %d", n))
		case n > left:
			return torn("truncated record body")
		case (word&boundBit != 0) != bound:
			return torn("record kind changed")
		}
		rec := make([]byte, n)
		if _, err := io.ReadFull(r, rec); err != nil {
			return fmt.Errorf("wal: replay %s: %w", name, err)
		}
		left -= n
		crc := crc32.Checksum(rec, crcTable)
		if bound {
			crc = crc32.Update(crcSeed, crcTable, rec)
		}
		if crc != binary.LittleEndian.Uint32(hdr[4:8]) {
			return torn("checksum mismatch")
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}
