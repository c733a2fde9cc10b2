// Package lsm implements the log-structured storage engine beneath a region
// server: an in-memory memtable in front of a write-ahead log and a set of
// immutable SSTables, with background flush and compaction.
//
// The moving parts correspond one-to-one with the HBase store the paper
// benchmarks:
//
//   - the memtable is the memstore; MemtableSize plays the role of the
//     flush threshold, and memstoreBlockMultiplier that of
//     hbase.hregion.memstore.block.multiplier: writes block while the
//     active memtable holds twice MemtableSize and a flush is in flight,
//   - MaxStoreFiles models hbase.hstore.blockingStoreFiles: when that many
//     store files overlap on the time axis (every file, when keys carry no
//     timestamps), writes block until compaction catches up.
//
// Writes are durable (per the WAL sync policy) before they are visible.
// Reads merge the active memtable, the flushing memtable, and the store
// files newest-first. The store is insert-only: a later write of a key
// shadows the earlier one, and nothing removes a key.
package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tpcxiot/internal/kvp"
	"tpcxiot/internal/memtable"
	"tpcxiot/internal/sstable"
	"tpcxiot/internal/telemetry"
	"tpcxiot/internal/wal"
)

// Sentinel errors.
var (
	ErrClosed   = errors.New("lsm: store is closed")
	ErrBadKey   = errors.New("lsm: empty key")
	ErrCorrupt  = errors.New("lsm: corrupt store")
	ErrBadRange = errors.New("lsm: scan bounds inverted")
)

// Options configures a store.
type Options struct {
	// Dir holds the WAL and table files. Required.
	Dir string
	// MemtableSize is the flush threshold in bytes. Defaults to 4 MiB.
	MemtableSize int64
	// MaxStoreFiles blocks writes when this many overlapping tables
	// accumulate — the store's read depth, the most tables whose key-time
	// ranges share one instant; tables of timestamp-less keys all overlap, so
	// for them it is the file count (hbase.hstore.blockingStoreFiles).
	// Defaults to 28, the paper's tuning.
	MaxStoreFiles int
	// CompactTrigger is how many overlapping tables inside the hot time
	// window start size-tiered merging. Time-disjoint tables — in-order
	// ingest — never reach it. Defaults to half of MaxStoreFiles: the other
	// half is the compactor's slack, and in-order writers whose clocks the
	// scheduler skews a few flushes apart stay below it (at 6 such skew
	// decided, run by run, whether every byte was rewritten once or twice).
	CompactTrigger int
	// WindowDuration is the width of the time windows the compaction picker
	// partitions the table set into. Tables are windowed by their newest key
	// timestamp (file creation time when keys carry none); only overlapping
	// tables of the hot window are rewritten, and cold windows are merged
	// once and never again. Defaults to 5 minutes.
	WindowDuration time.Duration
	// BlockSize is the SSTable data-block size. Defaults to 4 KiB.
	BlockSize int
	// BloomBitsPerKey sizes table Bloom filters. 0 selects the default.
	BloomBitsPerKey int
	// BlockCacheBytes bounds the store's shared block cache (the HBase
	// block cache). 0 selects the sstable default.
	BlockCacheBytes int64
	// WALSync selects log durability. Defaults to wal.SyncOnAppend.
	WALSync wal.SyncPolicy
	// DisableAutoFlush turns off size-triggered flushes; Flush must be
	// called explicitly. Used by tests to control timing.
	DisableAutoFlush bool
	// Registry, when non-nil, receives engine telemetry: the store's and its
	// WAL's counters as named in Store.counterTable, the gauges registered in
	// Open, and the put-path stage histograms "put.memstore",
	// "put.region_flush" and "put.wal_append". A nil registry keeps the hot
	// paths free of clock reads.
	Registry *telemetry.Registry
	// Tags, when non-empty, is the tag set every counter and gauge is
	// attached under (e.g. "lsm.batch_applies{region=...,server=...}"); the
	// registry rolls each up into its untagged name.
	Tags []telemetry.Tag
	// Logger, when non-nil, receives structured events from cold paths:
	// recovery warnings (orphaned temp tables, torn WAL tails) and
	// background flush/compaction failures that would otherwise be
	// silently retried. Tags are attached to every event.
	Logger *telemetry.Logger
}

func (o Options) withDefaults() (Options, error) {
	if o.Dir == "" {
		return o, errors.New("lsm: Dir is required")
	}
	if o.MemtableSize <= 0 {
		o.MemtableSize = 4 << 20
	}
	if o.MaxStoreFiles <= 0 {
		o.MaxStoreFiles = 28
	}
	if o.CompactTrigger <= 0 {
		o.CompactTrigger = o.MaxStoreFiles / 2
	}
	if o.CompactTrigger > o.MaxStoreFiles {
		o.CompactTrigger = o.MaxStoreFiles
	}
	if o.WindowDuration <= 0 {
		o.WindowDuration = 5 * time.Minute
	}
	return o, nil
}

// value encoding inside memtables and tables: the first byte is a tag.
// tagValue prefixes every stored row. tagReading appears only in a table's
// reading column, where a row is its tag plus the float64 bits of
// kvp.ReadingOf of the value — all an aggregate needs of a 1 KiB row. Any
// other stored value, an empty one included, is ErrCorrupt wherever a read
// meets it.
const (
	tagValue   = 1
	tagReading = 2
)

// readingColumn is the sstable.WriterOptions.Column hook of every table the
// store writes: a row projects to [tagReading][float64 bits]. A value that
// is not a tagged row, or that kvp.ReadingOf cannot decode, leaves the table
// without a column, so the read that meets it reports the error from the
// data blocks.
func (s *Store) readingColumn(dst, stored []byte) ([]byte, bool) {
	if len(stored) == 0 || stored[0] != tagValue {
		return dst, false
	}
	v, err := kvp.ReadingOf(stored[1:])
	if err != nil {
		return dst, false
	}
	dst = append(dst, tagReading)
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v)), true
}

// newTableWriter starts the table file flushes and compactions write.
func (s *Store) newTableWriter(path string) (*sstable.Writer, error) {
	return sstable.NewWriter(path, sstable.WriterOptions{
		BlockSize:       s.opts.BlockSize,
		BloomBitsPerKey: s.opts.BloomBitsPerKey,
		TimestampOf:     kvp.TimestampOf,
		Column:          s.readingColumn,
	})
}

// tmpSuffix marks in-progress table files. Flush and compaction write to
// the temporary name and rename once the table is complete and synced, so
// a crash mid-write can never leave a partial .sst visible to recovery.
const tmpSuffix = ".tmp"

// Store is a single LSM tree. Safe for concurrent use.
type Store struct {
	opts Options
	log  *wal.Log

	mu     sync.RWMutex
	active *memtable.Memtable
	imm    *memtable.Memtable // being flushed; nil when none
	tables []*tableHandle     // newest first; replaced only via setTablesLocked
	depth  int                // readDepth(tables)
	nextID uint64
	closed bool

	flushCond *sync.Cond          // signalled when a flush or compaction completes
	cache     *sstable.BlockCache // shared across all table files

	maintMu   sync.Mutex // serialises flushes
	compactMu sync.Mutex // serialises compactions, independently of flushes
	seedCount uint64

	// A writer holds logMu shared from its WAL append through its memtable
	// insert, a swap exclusively: every record of the active memtable lies in
	// WAL segment activeFrom (the log's active segment as of the swap, set
	// under logMu and mu) or later. rollMu serialises rolls. Lock order:
	// maintMu, logMu, rollMu, mu.
	logMu      sync.RWMutex
	activeFrom uint64
	rollMu     sync.Mutex

	// manifest is the versioned table-set log; manMu serialises manifest
	// commits with the in-memory installs they authorise, so a rotation
	// base can never miss a committed-but-uninstalled table. Lock order:
	// manMu before mu.
	manifest *manifest
	manMu    sync.Mutex

	// Background compaction goroutine plumbing: flushes and stalls kick,
	// Close closes quit and waits.
	compactKick chan struct{}
	quit        chan struct{}
	bg          sync.WaitGroup
	stopOnce    sync.Once

	// Event counters: each counted once, where the event happens. Stats
	// reads them; counterTable names those the registry reports.
	puts, gets, scans            telemetry.Counter
	flushes, compactions, stalls telemetry.Counter
	batchApplies, truncErrs      telemetry.Counter

	// Byte-level resource accounting (the amplification ledger), updated on
	// the paths that move the bytes: logical bytes are user keys+values
	// accepted into the store; flush and compaction bytes are the physical
	// SSTable traffic; logical read bytes are user bytes returned by gets
	// and iterators. WAL bytes live on the log, disk read bytes on the block
	// cache.
	logicalBytes, logicalReadBytes      telemetry.Counter
	flushBytes                          telemetry.Counter
	compactReadBytes, compactWriteBytes telemetry.Counter

	// Bloom-filter effectiveness on the table read path: skips are definite
	// negatives (a table ruled out without a block read), hits are positive
	// probes where the key was found, false positives are positive probes
	// where it was not.
	bloomHits, bloomSkips, bloomFP telemetry.Counter

	// File-pruning ledger: table files skipped without any I/O because the
	// requested key range (pruneKey) or time range (pruneTime) cannot
	// intersect the table's footer bounds.
	pruneKey, pruneTime telemetry.Counter

	// Aggregate-fold rows by the path that served them: a table's reading
	// column, or decoded full rows.
	aggRowsColumn, aggRowsDecoded telemetry.Counter

	// stallWaiters counts writers currently blocked on MaxStoreFiles
	// backpressure; nonzero means the store is stalled right now.
	stallWaiters atomic.Int64

	memSpan   *telemetry.Timer  // put.memstore: WAL-ack to memtable-visible
	flushSpan *telemetry.Timer  // put.region_flush: memtable to table file
	elog      *telemetry.Logger // structured event log; nil-safe
}

// counterTable is the store's metric table: every counter it attaches to
// Options.Registry under Options.Tags, its WAL's included.
func (s *Store) counterTable() []telemetry.Named {
	return append([]telemetry.Named{
		{Name: "lsm.flushes", C: &s.flushes},
		{Name: "lsm.compactions", C: &s.compactions},
		{Name: "lsm.stalls", C: &s.stalls},
		{Name: "lsm.batch_applies", C: &s.batchApplies},
		{Name: "wal.truncate_errors", C: &s.truncErrs},
		{Name: "lsm.logical_bytes", C: &s.logicalBytes},
		{Name: "lsm.logical_read_bytes", C: &s.logicalReadBytes},
		{Name: "lsm.flush_bytes", C: &s.flushBytes},
		{Name: "lsm.compact_read_bytes", C: &s.compactReadBytes},
		{Name: "lsm.compact_write_bytes", C: &s.compactWriteBytes},
		{Name: "lsm.bloom_hits", C: &s.bloomHits},
		{Name: "lsm.bloom_skips", C: &s.bloomSkips},
		{Name: "lsm.bloom_false_positives", C: &s.bloomFP},
		{Name: "lsm.prune_key_skips", C: &s.pruneKey},
		{Name: "lsm.prune_time_skips", C: &s.pruneTime},
		{Name: "lsm.agg_rows_column", C: &s.aggRowsColumn},
		{Name: "lsm.agg_rows_decoded", C: &s.aggRowsDecoded},
	}, s.log.Counters()...)
}

// tableHandle pairs a reader with its file path. Handles are reference
// counted: the table set holds one reference and every in-flight read
// (get, scan, compaction merge) holds another, so a compaction retiring a
// table never closes its reader under a concurrent reader.
type tableHandle struct {
	id     uint64
	path   string
	reader *sstable.Reader
	refs   atomic.Int32
	doomed atomic.Bool // delete the file once the last reference drops

	// Introspection metadata, immutable after construction. size and
	// columnBytes mirror the reader so stats never touch a possibly-closed
	// one (columnBytes 0: no reading column).
	size        int64
	columnBytes int64
	created     time.Time

	// Pruning metadata mirrored from the reader's footer so Get and
	// iterator open never touch the reader for tables they will skip.
	// firstKey/lastKey are the inclusive key bounds; minTS/maxTS the key
	// timestamp bounds, meaningless when hasTS is false (keys without
	// timestamps — such tables are never pruned by time).
	firstKey, lastKey []byte
	minTS, maxTS      int64
	hasTS             bool
}

func newTableHandle(id uint64, path string, reader *sstable.Reader) *tableHandle {
	t := &tableHandle{
		id: id, path: path, reader: reader,
		size: reader.Size(), columnBytes: reader.ColumnBytes(), created: time.Now(),
	}
	t.firstKey, t.lastKey = reader.Bounds()
	t.minTS, t.maxTS, t.hasTS = reader.TimeBounds()
	t.refs.Store(1) // the table set's reference
	return t
}

func (t *tableHandle) acquire() { t.refs.Add(1) }

// release drops one reference, closing the reader (and removing a doomed
// file) when the last one goes.
func (t *tableHandle) release() {
	if t.refs.Add(-1) > 0 {
		return
	}
	t.reader.Close()
	if t.doomed.Load() {
		os.Remove(t.path)
	}
}

// Stats reports cumulative engine activity: operation counts, the
// byte-level amplification ledger, Bloom-filter and block-cache
// effectiveness, and the current shape of the table set. It is the one-stop
// snapshot.
type Stats struct {
	Puts         int64 `json:"puts"`
	Gets         int64 `json:"gets"`
	Scans        int64 `json:"scans"`
	Flushes      int64 `json:"flushes"`
	Compactions  int64 `json:"compactions"`
	StallEvents  int64 `json:"stall_events"`  // writes that blocked on MaxStoreFiles overlapping tables or a full memstore
	BatchApplies int64 `json:"batch_applies"` // apply rounds; Puts/BatchApplies = mean batch size

	// Write-side amplification ledger. LogicalBytes is the user payload
	// accepted (keys + values); WALBytes, FlushBytes and
	// CompactWriteBytes are the physical writes that payload cost; their sum
	// over LogicalBytes is the write amplification. CompactReadBytes is what
	// compactions re-read and measures churn (it appears in read traffic, not
	// write amplification).
	LogicalBytes      int64 `json:"logical_bytes"`
	WALBytes          int64 `json:"wal_bytes"`
	FlushBytes        int64 `json:"flush_bytes"`
	CompactReadBytes  int64 `json:"compact_read_bytes"`
	CompactWriteBytes int64 `json:"compact_write_bytes"`

	// Read-side ledger: user bytes returned by gets and scans, versus raw
	// bytes the table readers pulled from disk (block-cache misses, metadata
	// loads and sequential runs). Their ratio is the read amplification.
	// RunReads and RunBytes are the runs' part of DiskReadBytes: 64 KiB
	// stretches fetched whole, past a scan's range and over column blocks.
	LogicalReadBytes int64 `json:"logical_read_bytes"`
	DiskReadBytes    int64 `json:"disk_read_bytes"`
	RunReads         int64 `json:"run_reads"`
	RunBytes         int64 `json:"run_bytes"`

	// Bloom-filter effectiveness on table lookups: skips are definite
	// negatives, hits found the key, false positives probed and missed.
	BloomHits           int64 `json:"bloom_hits"`
	BloomSkips          int64 `json:"bloom_skips"`
	BloomFalsePositives int64 `json:"bloom_false_positives"`

	// File-pruning effectiveness: table files skipped with zero I/O because
	// the lookup's key (PruneKeySkips) or a time-range scan's bounds
	// (PruneTimeSkips) cannot intersect the table's footer bounds.
	PruneKeySkips  int64 `json:"prune_key_skips"`
	PruneTimeSkips int64 `json:"prune_time_skips"`

	// Block-cache effectiveness (shared across the store's tables).
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheEvictions int64 `json:"cache_evictions"`
	CacheUsedBytes int64 `json:"cache_used_bytes"`

	// Current shape: live table files, their total size, the active
	// memtable's occupancy, and the compaction debt — bytes the windowed
	// picker would rewrite right now: cold windows not yet merged to one
	// table plus a hot window that overlaps CompactTrigger deep or exceeds
	// its file budget. 0 when settled, whatever the data volume.
	Tables              int   `json:"tables"`
	TableBytes          int64 `json:"table_bytes"`
	MemtableBytes       int64 `json:"memtable_bytes"`
	CompactionDebtBytes int64 `json:"compaction_debt_bytes"`
}

// WriteAmplification is physical write bytes (WAL + flush + compaction
// rewrite) over logical bytes; 0 before any write.
func (st Stats) WriteAmplification() float64 {
	if st.LogicalBytes == 0 {
		return 0
	}
	return float64(st.WALBytes+st.FlushBytes+st.CompactWriteBytes) / float64(st.LogicalBytes)
}

// ReadAmplification is disk read bytes over logical read bytes; 0 before
// any read.
func (st Stats) ReadAmplification() float64 {
	if st.LogicalReadBytes == 0 {
		return 0
	}
	return float64(st.DiskReadBytes) / float64(st.LogicalReadBytes)
}

// BloomFalsePositiveRate is false positives over all positive probes plus
// skips — the fraction of filter consultations that cost a wasted table
// read; 0 before any filtered lookup.
func (st Stats) BloomFalsePositiveRate() float64 {
	total := st.BloomHits + st.BloomSkips + st.BloomFalsePositives
	if total == 0 {
		return 0
	}
	return float64(st.BloomFalsePositives) / float64(total)
}

// CacheHitRate is block-cache hits over lookups; 0 before any lookup.
func (st Stats) CacheHitRate() float64 {
	total := st.CacheHits + st.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(st.CacheHits) / float64(total)
}

// Open opens (creating or recovering) the store in opts.Dir.
func Open(opts Options) (*Store, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("lsm: create dir: %w", err)
	}

	s := &Store{opts: o, active: memtable.New(1)}
	s.cache = sstable.NewBlockCache(o.BlockCacheBytes)
	s.flushCond = sync.NewCond(&s.mu)
	s.seedCount = 1
	s.memSpan = o.Registry.Timer("put.memstore")
	s.flushSpan = o.Registry.Timer("put.region_flush")
	s.elog = o.Logger
	if s.elog != nil && len(o.Tags) > 0 {
		fields := make([]telemetry.Field, len(o.Tags))
		for i, t := range o.Tags {
			fields[i] = telemetry.F(t.Key, t.Value)
		}
		s.elog = s.elog.With(fields...)
	}

	// Recover unflushed writes from the log before the table set: a log this
	// store cannot read is refused before recovery writes anything. Every
	// record is a buffer of its own, which the memtable keeps.
	if err := wal.Replay(filepath.Join(o.Dir, "wal"), s.elog, s.applyRecord); err != nil {
		return nil, fmt.Errorf("lsm: wal recovery: %w", err)
	}
	if err := s.recoverTables(); err != nil {
		return nil, err
	}
	s.log, err = wal.Open(wal.Options{
		Dir:      filepath.Join(o.Dir, "wal"),
		Sync:     o.WALSync,
		Registry: o.Registry,
		Logger:   s.elog,
	})
	if err != nil {
		return nil, err
	}
	s.instrument(o.Registry, o.Tags)

	s.compactKick = make(chan struct{}, 1)
	s.quit = make(chan struct{})
	s.bg.Add(1)
	go s.compactLoop()
	// Recovery may have left compactable debt (e.g. a crash mid-merge).
	s.kickCompactor()
	return s, nil
}

// instrument attaches the store's counters and registers its gauges on reg
// under tags, then the registry-wide derived ratios. Nil-safe.
func (s *Store) instrument(reg *telemetry.Registry, tags []telemetry.Tag) {
	for _, n := range s.counterTable() {
		reg.Attach(n.C, n.Name, tags...)
	}
	reg.Gauge("lsm.memtable_bytes", func() int64 { return s.Health().MemtableBytes }, tags...)
	reg.Gauge("lsm.table_bytes", s.tableBytesGauge, tags...)
	reg.Gauge("lsm.tables", func() int64 { return int64(s.Health().Tables) }, tags...)
	reg.Gauge("lsm.read_depth", func() int64 { return int64(s.Health().ReadDepth) }, tags...)
	reg.Gauge("lsm.compaction_debt_bytes", s.compactionDebtGauge, tags...)
	reg.Gauge("lsm.windows", func() int64 { return int64(len(s.TierStats())) }, tags...)
	reg.Gauge("lsm.hot_window_tables", s.hotWindowTablesGauge, tags...)
	reg.Gauge("lsm.cache_hits", func() int64 { return s.cache.Stats().Hits }, tags...)
	reg.Gauge("lsm.cache_misses", func() int64 { return s.cache.Stats().Misses }, tags...)
	reg.Gauge("lsm.disk_read_bytes", func() int64 { return s.cache.Stats().DiskReadBytes }, tags...)
	reg.Gauge("lsm.run_reads", func() int64 { return s.cache.Stats().RunReads }, tags...)
	reg.Gauge("lsm.run_bytes", func() int64 { return s.cache.Stats().RunBytes }, tags...)
	registerDerivedGauges(reg)
}

// tablePath names table id's file within the store directory.
func (s *Store) tablePath(id uint64) string {
	return filepath.Join(s.opts.Dir, fmt.Sprintf("%012d.sst", id))
}

// recoverTables rebuilds the table set at open. The manifest is
// authoritative: exactly the tables it lists are opened, the manifest is
// rotated to a base of them, and every other .sst (plus .tmp residue) is an
// orphan from an interrupted transition, removed. A directory without a
// manifest gets an empty one — unless it holds tables, which no manifest
// accounts for: that is ErrCorrupt, and the directory is left as it was.
func (s *Store) recoverTables() error {
	man, live, err := openManifest(s.opts.Dir, s.elog)
	if err != nil {
		return err
	}
	s.manifest = man

	if live == nil {
		tables, err := filepath.Glob(filepath.Join(s.opts.Dir, "*.sst"))
		if err != nil {
			return fmt.Errorf("lsm: read dir: %w", err)
		}
		if len(tables) > 0 {
			return fmt.Errorf("%w: tables without a manifest in %s: %s",
				ErrCorrupt, s.opts.Dir, strings.Join(tables, ", "))
		}
	}
	metas := make([]tableMeta, 0, len(live))
	for _, m := range live {
		metas = append(metas, m)
	}
	// Higher ids are newer; order newest first.
	sort.Slice(metas, func(i, j int) bool { return metas[i].ID > metas[j].ID })
	for _, m := range metas {
		path := s.tablePath(m.ID)
		if m.Tombstones > 0 {
			return fmt.Errorf("%w: manifest table %s holds %d deletes", ErrCorrupt, path, m.Tombstones)
		}
		r, err := sstable.OpenWithCache(path, s.cache)
		if err != nil {
			return fmt.Errorf("%w: manifest table %s: %v", ErrCorrupt, path, err)
		}
		h := newTableHandle(m.ID, path, r)
		h.created = time.UnixMilli(m.CreatedMS)
		s.tables = append(s.tables, h)
		if m.ID >= s.nextID {
			s.nextID = m.ID + 1
		}
	}
	s.setTablesLocked(s.tables) // nothing else can see the store yet
	if err := man.rotate(metas); err != nil {
		return err
	}
	return s.removeOrphans()
}

// removeOrphans sweeps the directory after recovery: .tmp files from
// interrupted writes, and .sst files the manifest does not reference
// (committed-but-unlinked compaction inputs, or a flush that renamed its
// table but crashed before the manifest commit; the WAL still holds the
// latter's contents). Any orphan id seen advances nextID so a new table can
// never reuse a name that just held different bytes.
func (s *Store) removeOrphans() error {
	entries, err := os.ReadDir(s.opts.Dir)
	if err != nil {
		return fmt.Errorf("lsm: read dir: %w", err)
	}
	liveTables := make(map[string]bool, len(s.tables))
	for _, t := range s.tables {
		liveTables[filepath.Base(t.path)] = true
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, tmpSuffix):
			s.elog.Warn("removing orphaned temp file from interrupted write",
				telemetry.F("file", name))
		case strings.HasSuffix(name, ".sst") && !liveTables[name]:
			s.elog.Warn("removing orphaned table not referenced by manifest",
				telemetry.F("file", name))
			if id, err := strconv.ParseUint(strings.TrimSuffix(name, ".sst"), 10, 64); err == nil && id >= s.nextID {
				s.nextID = id + 1
			}
		default:
			continue
		}
		os.Remove(filepath.Join(s.opts.Dir, name))
	}
	return nil
}

// Apply logs the batch and makes it visible as one engine round: its buffer
// appended as one WAL record (one fsync group under SyncOnAppend), then a
// single memtable critical section inserting its rows through applyRecord,
// with one flush/backpressure check for the whole batch. Crash recovery
// replays the record through the same decoder, so a batch comes back whole
// or not at all, and it is equivalent to — just much cheaper than — the same
// rows applied one at a time. A batch holding an empty key is refused whole
// with ErrBadKey, before anything is logged; an empty batch is a no-op.
//
// When parent is live the engine round appears as an "lsm.apply_batch" span
// with children for each stage that actually ran: "lsm.stall_wait"
// (backpressure blocking, only when the store stalled), "wal.append" (with
// the group-commit "wal.fsync" beneath it, recorded by the WAL), and
// "lsm.memtable_insert". An inert parent costs no clock reads.
func (s *Store) Apply(parent telemetry.TSpan, b *Batch) error {
	if b.rows == 0 {
		return nil
	}
	for buf := b.buf; len(buf) > 0; {
		key, _, n, _ := splitRecord(buf) // Add wrote each put whole
		if len(key) == 0 {
			return ErrBadKey
		}
		buf = buf[n:]
	}
	batchSp := parent.Child("lsm.apply_batch")
	defer batchSp.End()

	s.mu.Lock()
	// Backpressure: block while the overlapping store files are at the cap,
	// like hbase.hstore.blockingStoreFiles. Checked once per batch.
	if s.depth >= s.opts.MaxStoreFiles && !s.closed {
		stallSp := batchSp.Child("lsm.stall_wait")
		s.stallWaiters.Add(1)
		s.stalls.Inc()
		s.elog.Warn("write stall: read depth at MaxStoreFiles",
			telemetry.F("read_depth", s.depth), telemetry.F("tables", len(s.tables)),
			telemetry.F("max_store_files", s.opts.MaxStoreFiles))
		for s.depth >= s.opts.MaxStoreFiles && !s.closed {
			go s.maintain()
			// With stallWaiters nonzero the picker always finds work, so a
			// kick is guaranteed to lower depth.
			s.kickCompactor()
			s.flushCond.Wait()
		}
		s.stallWaiters.Add(-1)
		stallSp.End()
	}
	// And while the active memtable holds memstoreBlockMultiplier times
	// MemtableSize, like hbase.hregion.memstore.block.multiplier: the writer
	// waits for the flush in flight, which frees the slot the next swap
	// needs, or with none in flight makes the swap that is due itself. So
	// each writer adds at most one batch past the mark.
	if s.memstoreFullLocked() {
		stallSp := batchSp.Child("lsm.stall_wait")
		s.stalls.Inc()
		for s.memstoreFullLocked() {
			if s.imm != nil {
				go s.maintain() // retries a flush that failed
				s.flushCond.Wait()
				continue
			}
			s.mu.Unlock()
			if _, swapped, _ := s.swapMemtable(false); swapped {
				go s.maintain()
			} // else closed, which the loop sees
			s.mu.Lock()
		}
		stallSp.End()
	}
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.mu.Unlock()

	// WAL first: the batch's buffer goes down as it is, one record.
	s.logMu.RLock()
	walSp := batchSp.Child("wal.append")
	err := s.log.AppendTraced(walSp, b.buf)
	walSp.End()
	if err != nil {
		s.logMu.RUnlock()
		return fmt.Errorf("lsm: wal append: %w", err)
	}

	memSp := s.memSpan.Start()
	insertSp := batchSp.Child("lsm.memtable_insert")
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.logMu.RUnlock()
		return ErrClosed
	}
	err = s.applyRecord(b.buf)
	s.puts.Add(int64(b.rows))
	insertSp.End()
	memSp.End()
	s.batchApplies.Inc()
	s.logicalBytes.Add(b.size)
	shouldFlush := !s.opts.DisableAutoFlush &&
		s.active.Size() >= s.opts.MemtableSize && s.imm == nil
	s.mu.Unlock()
	s.logMu.RUnlock()
	s.maybeRoll()
	if err != nil || !shouldFlush {
		return err
	}
	// The batch is acked either way; a failed swap is left to the next
	// writer.
	if _, swapped, err := s.swapMemtable(false); swapped {
		go s.maintain()
	} else if err != nil && !errors.Is(err, ErrClosed) {
		s.elog.Error("memtable swap failed; will retry", telemetry.F("error", err))
	}
	return nil
}

// memstoreBlockMultiplier is how many times MemtableSize the active memtable
// may hold before writers wait for it to be swapped out.
const memstoreBlockMultiplier = 2

// memstoreFullLocked reports whether a writer must see the active memtable
// swapped out before it adds to it. A store that leaves flushes to its
// owner (DisableAutoFlush) never blocks.
func (s *Store) memstoreFullLocked() bool {
	return !s.closed && !s.opts.DisableAutoFlush &&
		s.active.Size() >= memstoreBlockMultiplier*s.opts.MemtableSize
}

// walRollEvery is how many memtables' worth of bytes the WAL's active
// segment takes before the append that crosses the mark rolls it: 64 MiB at
// the 4 MiB default. Rolling at every swap would cost each memtable a
// segment fsync and two directory syncs.
const walRollEvery = 16

// maybeRoll rolls the WAL once its active segment holds walRollEvery
// memtables' worth of bytes. The writer that finds the mark crossed rolls,
// without logMu; one that finds a roll under way leaves it to that one. A
// failed roll is left to the next append.
func (s *Store) maybeRoll() {
	mark := walRollEvery * s.opts.MemtableSize
	if _, n := s.log.Active(); n < mark || !s.rollMu.TryLock() {
		return
	}
	defer s.rollMu.Unlock()
	if _, n := s.log.Active(); n < mark {
		return // another writer rolled meanwhile
	}
	if _, err := s.log.Rotate(); err != nil && !errors.Is(err, wal.ErrClosed) {
		s.elog.Error("wal roll failed; will retry", telemetry.F("error", err))
	}
}

// swapMemtable moves the active memtable, once full, to the immutable slot.
// The new active memtable starts at the log's active segment: every record
// appended after the swap lies in it or later. Flush sets final: any active
// memtable moves, an empty one included, and the log rolls first, so the
// new memtable starts at the segment the roll began. It returns the
// memtable moved; while the slot is taken it moves nothing and returns the
// pending one, swapped false.
func (s *Store) swapMemtable(final bool) (imm *memtable.Memtable, swapped bool, err error) {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	s.mu.RLock()
	closed, imm, size := s.closed, s.imm, s.active.Size()
	s.mu.RUnlock()
	switch {
	case closed:
		return nil, false, ErrClosed
	case imm != nil:
		return imm, false, nil
	case !final && size < s.opts.MemtableSize:
		return nil, false, nil
	}
	from, _ := s.log.Active()
	if final {
		s.rollMu.Lock()
		from, err = s.log.Rotate()
		s.rollMu.Unlock()
		if err != nil {
			return nil, false, fmt.Errorf("lsm: wal roll: %w", err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.activeFrom = from
	s.imm = s.active
	s.seedCount++
	s.active = memtable.New(s.seedCount)
	return s.imm, true, nil
}

// maintain performs at most one flush pass: the background flush worker.
// Compaction runs on its own goroutine (compactLoop), kicked by each flush
// install.
func (s *Store) maintain() {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()

	s.mu.Lock()
	imm := s.imm
	s.mu.Unlock()
	if imm != nil {
		if err := s.flushMemtable(imm); err != nil {
			// Leave imm in place; a later Flush call will retry and report.
			s.elog.Error("background memtable flush failed; will retry",
				telemetry.F("error", err))
		}
	}
}

// Flush synchronously persists every memtable to table files. It rolls
// the WAL and truncates every segment below the roll, even with nothing to
// flush: once it returns, the log holds only writes that raced it.
func (s *Store) Flush() error {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	for {
		imm, swapped, err := s.swapMemtable(true)
		if err == nil {
			err = s.flushMemtable(imm)
		}
		if err != nil || swapped {
			return err
		}
		// That was a pending flush; now swap the active memtable.
	}
}

// flushMemtable writes imm to a new table file, installs it and truncates
// the WAL behind it. An empty imm, from Flush's final swap, gets no table.
func (s *Store) flushMemtable(imm *memtable.Memtable) error {
	if imm.Len() == 0 {
		s.mu.Lock()
		s.imm = nil
		upTo := s.activeFrom
		s.flushCond.Broadcast()
		s.mu.Unlock()
		return s.truncateWAL(upTo)
	}
	sp := s.flushSpan.Start()
	err := s.doFlushMemtable(imm)
	sp.End()
	return err
}

func (s *Store) doFlushMemtable(imm *memtable.Memtable) error {
	it := imm.NewIterator()
	it.SeekToFirst()
	h, err := s.buildTable(it)
	if err != nil {
		return err
	}

	// The manifest commit is the transition: if it fails (or we crash before
	// it) the renamed file is an unreferenced orphan, the WAL still holds the
	// data, and a retry flushes under a fresh id. The install captures
	// activeFrom: with imm in a table, no segment below it holds an
	// unflushed row.
	var upTo uint64
	err = s.commitAndInstall(manifestEdit{Added: []tableMeta{h.meta()}}, func() {
		s.setTablesLocked(append([]*tableHandle{h}, s.tables...))
		s.imm = nil
		upTo = s.activeFrom
		s.flushes.Inc()
		s.flushBytes.Add(h.size)
		s.flushCond.Broadcast()
	})
	if err != nil {
		h.release()
		return fmt.Errorf("lsm: manifest commit after flush: %w", err)
	}
	s.kickCompactor()
	return s.truncateWAL(upTo)
}

// buildTable writes the rows src yields, in key order, to a new table file
// under a fresh id, installs the file and opens it. Flush passes a
// memtable iterator and compaction the merge of its inputs. The table is in
// no manifest yet: until the caller's commit names it, it is an orphan.
func (s *Store) buildTable(src iterator) (*tableHandle, error) {
	s.mu.Lock()
	id := s.nextID
	s.nextID++
	s.mu.Unlock()

	path := s.tablePath(id)
	w, err := s.newTableWriter(path + tmpSuffix)
	if err != nil {
		return nil, err
	}
	for ; src.Valid(); src.Next() {
		if err := w.Add(src.Key(), src.Value()); err != nil {
			w.Abort()
			return nil, err
		}
	}
	if e, ok := src.(errIterator); ok && e.Error() != nil {
		w.Abort()
		return nil, e.Error()
	}
	if err := w.Finish(); err != nil {
		return nil, err
	}
	if err := s.installTable(path); err != nil {
		return nil, err
	}
	r, err := sstable.OpenWithCache(path, s.cache)
	if err != nil {
		return nil, err
	}
	return newTableHandle(id, path, r), nil
}

// installTable renames a finished table into place and syncs the store
// directory, so that the entry is durable before a manifest commit names
// the table and the WAL that holds its rows is truncated. A failed sync
// fails the flush or compaction before that commit.
func (s *Store) installTable(path string) error {
	if err := os.Rename(path+tmpSuffix, path); err != nil {
		return fmt.Errorf("lsm: install table: %w", err)
	}
	if err := syncDir(s.opts.Dir); err != nil {
		return fmt.Errorf("lsm: sync dir after table install: %w", err)
	}
	return nil
}

// commitAndInstall logs one manifest edit and, only if the commit succeeds,
// runs install (which must take s.mu itself and update s.tables to match the
// edit). Holding manMu across both means a concurrent edit's rotation
// base always reflects every previously committed transition.
func (s *Store) commitAndInstall(edit manifestEdit, install func()) error {
	s.manMu.Lock()
	defer s.manMu.Unlock()
	s.mu.RLock()
	live := make([]tableMeta, 0, len(s.tables))
	for _, t := range s.tables {
		live = append(live, t.meta())
	}
	s.mu.RUnlock()
	if err := s.manifest.logEdit(edit, live); err != nil {
		return err
	}
	s.mu.Lock()
	install()
	s.mu.Unlock()
	return nil
}

// truncateWAL removes the WAL segments below upTo, whose rows tables now
// hold. A failure leaves them for the next flush to remove; the flush
// itself succeeded, but leaked segments cost disk and replay time, so the
// caller hears of it.
func (s *Store) truncateWAL(upTo uint64) error {
	if err := s.log.Truncate(upTo); err != nil {
		s.truncErrs.Inc()
		return fmt.Errorf("lsm: wal truncate after flush: %w", err)
	}
	return nil
}

// compactOnce asks the picker for one unit of work and runs it. It returns
// whether a compaction happened. Serialised by compactMu; flushes proceed
// concurrently under maintMu and are re-merged at install time.
func (s *Store) compactOnce() (bool, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return false, nil
	}
	pick := s.pickCompactionLocked()
	if pick != nil {
		for _, t := range pick.inputs {
			t.acquire() // hold for the merge read
		}
	}
	s.mu.RUnlock()
	if pick == nil {
		return false, nil
	}
	return true, s.compactPick(pick)
}

// compactPick merges one picked span of tables into a single output and
// swaps it into the span's position. Caller holds compactMu and has
// acquired every input; compactPick releases them. The store is
// insert-only, so the merge of non-empty inputs is never empty.
func (s *Store) compactPick(pick *compactionPick) error {
	old := pick.inputs
	defer func() {
		for _, t := range old {
			t.release()
		}
	}()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.mu.Unlock()

	// Inputs are a contiguous span of the newest-first table list, in order,
	// so the merge's "earlier source wins" rule preserves shadowing.
	iters := make([]iterator, len(old))
	for i, t := range old {
		it := t.reader.NewIterator()
		it.SeekToFirst()
		iters[i] = it
	}
	out, err := s.buildTable(newMergeIterator(iters))
	if err != nil {
		return err
	}
	// The merge read every input in full.
	edit := manifestEdit{Added: []tableMeta{out.meta()}, Deleted: make([]uint64, 0, len(old))}
	for _, t := range old {
		edit.Deleted = append(edit.Deleted, t.id)
		s.compactReadBytes.Add(t.size)
	}
	s.compactWriteBytes.Add(out.size)

	// Manifest commit, then the in-memory swap it authorises. A crash before
	// the commit leaves the output an orphan; after it, the inputs are the
	// orphans — either way the next open converges.
	err = s.commitAndInstall(edit, func() {
		s.replaceTablesLocked(old, out)
		s.compactions.Inc()
		s.flushCond.Broadcast()
	})
	if err != nil {
		out.release()
		return fmt.Errorf("lsm: manifest commit after compaction: %w", err)
	}

	// Retire the inputs: drop the table set's reference. The reader closes
	// and the file is removed once the last concurrent scan releases it.
	for _, t := range old {
		t.doomed.Store(true)
		t.release()
	}
	return nil
}

// replaceTablesLocked swaps the tables of a compacted span (matched by
// identity — flushes may have prepended newer tables since the pick) for the
// merged output, which takes the span's position. Caller holds mu.
func (s *Store) replaceTablesLocked(old []*tableHandle, out *tableHandle) {
	oldSet := make(map[*tableHandle]bool, len(old))
	for _, t := range old {
		oldSet[t] = true
	}
	ns := make([]*tableHandle, 0, len(s.tables))
	inserted := false
	for _, t := range s.tables {
		if oldSet[t] {
			if !inserted {
				ns = append(ns, out)
			}
			inserted = true
			continue
		}
		ns = append(ns, t)
	}
	s.setTablesLocked(ns)
}

// Compact forces a full compaction: every table merges into one. The heavy
// hammer — benchmarks settling to a known state use CompactPending, which
// respects window boundaries.
func (s *Store) Compact() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.mu.RLock()
	if s.closed || len(s.tables) < 2 {
		s.mu.RUnlock()
		return nil
	}
	pick := s.pickSpanLocked(0, len(s.tables), "full")
	for _, t := range pick.inputs {
		t.acquire()
	}
	s.mu.RUnlock()
	return s.compactPick(pick)
}

// Get returns the value for key, or ok=false. Tables are ruled out by
// their footer metadata before anything is pinned: first by key range, then
// — when the key carries a timestamp — by time range, so a point read costs
// the tables that overlap its instant, not every file in the store.
func (s *Store) Get(key []byte) (value []byte, ok bool, err error) {
	if len(key) == 0 {
		return nil, false, ErrBadKey
	}
	ts, hasTS := kvp.TimestampOf(key)
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, false, ErrClosed
	}
	active, imm := s.active, s.imm
	var keyPruned, timePruned int64
	var pinned [4]*tableHandle
	tables := pinned[:0]
	for _, t := range s.tables {
		if bytes.Compare(key, t.firstKey) < 0 || bytes.Compare(key, t.lastKey) > 0 {
			keyPruned++
			continue
		}
		// Sound because a table's time bounds cover every timestamped key in
		// it; tables without bounds are never pruned by time.
		if hasTS && t.hasTS && (ts < t.minTS || ts > t.maxTS) {
			timePruned++
			continue
		}
		t.acquire()
		tables = append(tables, t)
	}
	s.mu.RUnlock()
	defer func() {
		for _, t := range tables {
			t.release()
		}
	}()
	s.gets.Inc()
	if keyPruned > 0 {
		s.pruneKey.Add(keyPruned)
	}
	if timePruned > 0 {
		s.pruneTime.Add(timePruned)
	}

	if v, found := active.Get(key); found {
		return s.returnLive(key, v)
	}
	if imm != nil {
		if v, found := imm.Get(key); found {
			return s.returnLive(key, v)
		}
	}
	for _, t := range tables {
		r := t.reader
		// Classify the Bloom probe ourselves (Reader.Get would consult the
		// filter too, but cannot tell us which way it went). Only tables that
		// actually carry a filter can score a hit, skip or false positive.
		filtered := r.FilterPresent()
		if filtered && !r.MayContain(key) {
			s.bloomSkips.Inc()
			continue
		}
		v, err := r.Get(key)
		if err == nil {
			if filtered {
				s.bloomHits.Inc()
			}
			return s.returnLive(key, v)
		}
		if !errors.Is(err, sstable.ErrNotFound) {
			return nil, false, err
		}
		if filtered {
			s.bloomFP.Inc()
		}
	}
	return nil, false, nil
}

// returnLive strips a stored row's tag and accounts the user bytes
// returned.
func (s *Store) returnLive(key, stored []byte) ([]byte, bool, error) {
	if len(stored) == 0 || stored[0] != tagValue {
		return nil, false, fmt.Errorf("%w: stored value %x under key %q", ErrCorrupt, stored, key)
	}
	s.logicalReadBytes.Add(int64(len(key) + len(stored) - 1))
	return stored[1:], true, nil
}

// Stats returns a snapshot of cumulative counters, the amplification
// ledger, and the store's current shape.
func (s *Store) Stats() Stats {
	st := Stats{
		Puts:         s.puts.Load(),
		Gets:         s.gets.Load(),
		Scans:        s.scans.Load(),
		Flushes:      s.flushes.Load(),
		Compactions:  s.compactions.Load(),
		StallEvents:  s.stalls.Load(),
		BatchApplies: s.batchApplies.Load(),

		LogicalBytes:      s.logicalBytes.Load(),
		WALBytes:          s.log.Bytes(),
		FlushBytes:        s.flushBytes.Load(),
		CompactReadBytes:  s.compactReadBytes.Load(),
		CompactWriteBytes: s.compactWriteBytes.Load(),
		LogicalReadBytes:  s.logicalReadBytes.Load(),

		BloomHits:           s.bloomHits.Load(),
		BloomSkips:          s.bloomSkips.Load(),
		BloomFalsePositives: s.bloomFP.Load(),

		PruneKeySkips:  s.pruneKey.Load(),
		PruneTimeSkips: s.pruneTime.Load(),
	}
	cs := s.cache.Stats()
	st.DiskReadBytes = cs.DiskReadBytes
	st.RunReads = cs.RunReads
	st.RunBytes = cs.RunBytes
	st.CacheHits = cs.Hits
	st.CacheMisses = cs.Misses
	st.CacheEvictions = cs.Evictions
	st.CacheUsedBytes = cs.UsedBytes

	s.mu.RLock()
	st.Tables = len(s.tables)
	for _, t := range s.tables {
		st.TableBytes += t.size
	}
	st.CompactionDebtBytes = s.compactionDebtLocked()
	st.MemtableBytes = s.active.Size()
	s.mu.RUnlock()
	return st
}

// TableStat describes one live store file for introspection endpoints.
// Keys are reported as strings (the benchmark keyspace is printable).
// ColumnBytes is the part of SizeBytes that is the reading column; 0 means
// the table has none and aggregates fold its data blocks.
type TableStat struct {
	ID          uint64  `json:"id"`
	Path        string  `json:"path"`
	FirstKey    string  `json:"first_key"`
	LastKey     string  `json:"last_key"`
	SizeBytes   int64   `json:"size_bytes"`
	ColumnBytes int64   `json:"column_bytes"`
	Entries     uint64  `json:"entries"`
	AgeSeconds  float64 `json:"age_seconds"`
	HasBloom    bool    `json:"has_bloom"`

	// Time-window placement: the key timestamp bounds from the footer (unix
	// ms; meaningless when HasTimeBounds is false) and the compaction window
	// the table falls in.
	MinTS         int64 `json:"min_ts"`
	MaxTS         int64 `json:"max_ts"`
	HasTimeBounds bool  `json:"has_time_bounds"`
	Window        int64 `json:"window"`
}

// TableStats reports every live table, newest first. The table set holds a
// reference on each handle for as long as it is listed, so the readers are
// open for the duration of the snapshot.
func (s *Store) TableStats() []TableStat {
	now := time.Now()
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]TableStat, 0, len(s.tables))
	windowMS := s.opts.WindowDuration.Milliseconds()
	for _, t := range s.tables {
		out = append(out, TableStat{
			ID:            t.id,
			Path:          t.path,
			FirstKey:      string(t.firstKey),
			LastKey:       string(t.lastKey),
			SizeBytes:     t.size,
			ColumnBytes:   t.columnBytes,
			Entries:       t.reader.EntryCount(),
			AgeSeconds:    now.Sub(t.created).Seconds(),
			HasBloom:      t.reader.FilterPresent(),
			MinTS:         t.minTS,
			MaxTS:         t.maxTS,
			HasTimeBounds: t.hasTS,
			Window:        t.window(windowMS),
		})
	}
	return out
}

// Health is a point-in-time liveness view of the store, cheap enough for a
// health endpoint to poll.
type Health struct {
	// Stalled reports writers blocked on MaxStoreFiles backpressure right
	// now; StallWaiters is how many.
	Stalled      bool  `json:"stalled"`
	StallWaiters int64 `json:"stall_waiters"`
	// FlushPending reports an immutable memtable waiting on (or in) flush.
	FlushPending bool `json:"flush_pending"`
	// ReadDepth — the most tables overlapping at one instant of the time
	// axis — is what the backpressure cap and the compaction trigger are
	// compared against; Tables is the raw file count.
	Tables         int `json:"tables"`
	ReadDepth      int `json:"read_depth"`
	MaxStoreFiles  int `json:"max_store_files"`
	CompactTrigger int `json:"compact_trigger"`
	// Active memtable fill against its flush threshold.
	MemtableBytes int64 `json:"memtable_bytes"`
	MemtableCap   int64 `json:"memtable_cap"`
	Closed        bool  `json:"closed"`
}

// OK reports whether the store is open and accepting writes without
// backpressure.
func (h Health) OK() bool { return !h.Closed && !h.Stalled }

// Health reports the store's current liveness.
func (s *Store) Health() Health {
	h := Health{
		StallWaiters:   s.stallWaiters.Load(),
		MaxStoreFiles:  s.opts.MaxStoreFiles,
		CompactTrigger: s.opts.CompactTrigger,
		MemtableCap:    s.opts.MemtableSize,
	}
	h.Stalled = h.StallWaiters > 0
	s.mu.RLock()
	h.FlushPending = s.imm != nil
	h.Tables = len(s.tables)
	h.ReadDepth = s.depth
	h.MemtableBytes = s.active.Size()
	h.Closed = s.closed
	s.mu.RUnlock()
	return h
}

// tableBytesGauge sums live table file sizes ("lsm.table_bytes").
func (s *Store) tableBytesGauge() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, t := range s.tables {
		n += t.size
	}
	return n
}

// compactionDebtGauge reports the windowed picker's pending rewrite bytes
// ("lsm.compaction_debt_bytes"); see compactionDebtLocked.
func (s *Store) compactionDebtGauge() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.compactionDebtLocked()
}

// hotWindowTablesGauge counts tables in the hot time window
// ("lsm.hot_window_tables").
func (s *Store) hotWindowTablesGauge() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.tables) == 0 {
		return 0
	}
	windowMS := s.opts.WindowDuration.Milliseconds()
	hot := s.tables[0].window(windowMS)
	var n int64
	for _, t := range s.tables {
		if t.window(windowMS) == hot {
			n++
		}
	}
	return n
}

// registerDerivedGauges registers the cluster-level amplification ratios on
// reg as milli-unit gauges (a value of 3200 means 3.2×), read from the
// registry's roll-ups: "lsm.write_amp_milli" is (wal.bytes + lsm.flush_bytes
// + lsm.compact_write_bytes) over lsm.logical_bytes, and "lsm.read_amp_milli"
// is lsm.disk_read_bytes over lsm.logical_read_bytes. Registration is
// once-only (Registry.GaugeOnce): ratios must not be registered per store,
// or a registry shared by N stores would report N× the true value. Open
// calls this. Nil-safe.
func registerDerivedGauges(reg *telemetry.Registry) {
	reg.GaugeOnce("lsm.write_amp_milli", func() int64 {
		l := reg.CounterValue("lsm.logical_bytes")
		if l == 0 {
			return 0
		}
		return (reg.CounterValue("wal.bytes") + reg.CounterValue("lsm.flush_bytes") +
			reg.CounterValue("lsm.compact_write_bytes")) * 1000 / l
	})
	reg.GaugeOnce("lsm.read_amp_milli", func() int64 {
		lr := reg.CounterValue("lsm.logical_read_bytes")
		if lr == 0 {
			return 0
		}
		return reg.GaugeValue("lsm.disk_read_bytes") * 1000 / lr
	})
}

// Close flushes and shuts the store down. The final Flush rolls and
// truncates the WAL, so a clean Close leaves no record for the next Open to
// replay.
func (s *Store) Close() error {
	// The final flush, while still open; a closed store has nothing to do.
	if err := s.Flush(); errors.Is(err, ErrClosed) {
		return nil
	} else if err != nil {
		return err
	}

	// Stop the background compactor before tearing the table set down; an
	// in-flight compaction finishes and installs normally first.
	s.stopOnce.Do(func() { close(s.quit) })
	s.bg.Wait()

	s.mu.Lock()
	s.closed = true
	s.flushCond.Broadcast()
	tables := s.tables
	s.setTablesLocked(nil)
	s.mu.Unlock()

	err := s.log.Close()
	if merr := s.manifest.close(); err == nil {
		err = merr
	}
	for _, t := range tables {
		t.release()
	}
	return err
}

// Destroy closes the store and removes all files. For benchmark cleanup
// (the TPCx-IoT system cleanup between iterations purges all ingested data).
func (s *Store) Destroy() error {
	if err := s.Close(); err != nil {
		return err
	}
	return os.RemoveAll(s.opts.Dir)
}
