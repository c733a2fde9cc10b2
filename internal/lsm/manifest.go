package lsm

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"tpcxiot/internal/telemetry"
	"tpcxiot/internal/wal"
)

// The manifest is the store's versioned table-set log, replacing the
// implicit scan-the-directory recovery: every flush and compaction commits
// an atomic edit (tables added, tables deleted) to it before any input file
// is unlinked. The manifest commit IS the transition — a crash on either
// side of it replays to a consistent table set, and any .sst the replayed
// manifest does not reference is an orphan from an interrupted transition,
// removed at open.
//
// On-disk layout inside the store directory:
//
//	manifest/wal-NNNNNNNN.log   a wal.Log synced on every append; each
//	                            record is one manifestEdit as JSON
//
// The manifest shares the WAL's framing, torn-tail rule and fuzzing. A base
// edit holds the whole live set: replay resets the table set at a base
// before adding its tables. Opening the store and every
// manifestRotateEvery-th edit rotate the log the same way: a fresh segment
// (wal.Open's at open, Rotate's after), a base of the live set, then every
// older segment truncated. Until the base
// is whole the older segments replay to the live set; from then on the base
// resets whatever older segments a crash leaves. Recovery cost tracks the
// live table count, not store history.
//
// A directory holding a CURRENT file has the layout that preceded this one
// (CURRENT naming a MANIFEST-NNNNNN file of its own framing). Open refuses
// it with ErrCorrupt and leaves it as it was.
const (
	manifestDir         = "manifest"
	manifestRotateEvery = 256
)

// tableMeta is the manifest's record of one live table: identity plus the
// metadata recovery would otherwise have to rescan the file for. Key bounds
// and time bounds ride along so the manifest is a complete description of
// the table set's pruning surface. Tombstones is decoded only to refuse a
// table written when the store had deletes: Open fails on a count above 0.
type tableMeta struct {
	ID         uint64 `json:"id"`
	Size       int64  `json:"size"`
	FirstKey   []byte `json:"first_key,omitempty"`
	LastKey    []byte `json:"last_key,omitempty"`
	MinTS      int64  `json:"min_ts,omitempty"`
	MaxTS      int64  `json:"max_ts,omitempty"`
	HasTS      bool   `json:"has_ts,omitempty"`
	Tombstones int64  `json:"tombstones,omitempty"`
	CreatedMS  int64  `json:"created_ms"` // unix ms of the creating flush/compaction
}

// manifestEdit is one atomic table-set transition. A flush adds one table;
// a compaction adds its output and deletes its inputs. A base replaces the
// whole set with its Added tables.
type manifestEdit struct {
	Base    bool        `json:"base,omitempty"`
	Added   []tableMeta `json:"added,omitempty"`
	Deleted []uint64    `json:"deleted,omitempty"`
}

// manifest is the open handle on the manifest log. Not safe for concurrent
// use; the store serialises edits through its maintenance locks.
type manifest struct {
	dir     string
	elog    *telemetry.Logger
	log     *wal.Log
	records int   // edits in the live segment, its base included, for rotation
	err     error // a failed segment create or append; refuses every later edit
}

// openManifest replays the manifest of the store in dir. The returned map is
// the live table set, nil when no base was ever written; the caller checks
// it and then rotates the manifest, which opens it for edits.
func openManifest(dir string, elog *telemetry.Logger) (*manifest, map[uint64]tableMeta, error) {
	if _, err := os.Stat(filepath.Join(dir, "CURRENT")); err == nil {
		return nil, nil, fmt.Errorf("%w: %s holds CURRENT, a manifest layout this store no longer reads", ErrCorrupt, dir)
	}
	m := &manifest{dir: filepath.Join(dir, manifestDir), elog: elog}
	var live map[uint64]tableMeta
	err := wal.Replay(m.dir, elog, func(rec []byte) error {
		var edit manifestEdit
		if err := json.Unmarshal(rec, &edit); err != nil {
			return fmt.Errorf("%w: manifest edit: %v", ErrCorrupt, err)
		}
		if edit.Base {
			live = map[uint64]tableMeta{}
		}
		if live == nil {
			return nil // the base that follows supersedes it
		}
		for _, id := range edit.Deleted {
			delete(live, id)
		}
		for _, t := range edit.Added {
			live[t.ID] = t
		}
		return nil
	})
	if errors.Is(err, wal.ErrCorrupt) {
		err = fmt.Errorf("%w: manifest: %v", ErrCorrupt, err)
	}
	if err != nil {
		return nil, nil, err
	}
	return m, live, nil
}

// logEdit appends one committed transition and syncs it to disk. Rotation
// happens before the append when the live segment is full; the caller
// supplies the live table set for its base.
func (m *manifest) logEdit(edit manifestEdit, live []tableMeta) error {
	if m.err != nil {
		return m.err
	}
	if m.records >= manifestRotateEvery {
		if err := m.rotate(live); err != nil {
			return err
		}
	}
	if err := appendEdit(m.log, edit); err != nil {
		return m.fail(err)
	}
	m.records++
	return nil
}

// rotate starts a fresh segment, appends live to it as a base and truncates
// every older segment. At open the fresh segment is the one wal.Open starts,
// the only one Truncate keeps whatever the bound.
func (m *manifest) rotate(live []tableMeta) error {
	upTo := uint64(math.MaxUint64)
	var err error
	if m.log == nil {
		m.log, err = wal.Open(wal.Options{Dir: m.dir, Sync: wal.SyncOnAppend, Logger: m.elog})
	} else {
		upTo, err = m.log.Rotate()
	}
	if err != nil {
		return m.fail(err)
	}
	base := manifestEdit{Base: true, Added: append([]tableMeta(nil), live...)}
	sort.Slice(base.Added, func(i, j int) bool { return base.Added[i].ID < base.Added[j].ID })
	if err := appendEdit(m.log, base); err != nil {
		return m.fail(err)
	}
	m.records = 1
	if err := m.log.Truncate(upTo); err != nil {
		return fmt.Errorf("lsm: manifest truncate: %w", err)
	}
	return nil
}

// fail keeps err for every later edit. After a failed segment create or
// append the log's tail is unknown — a segment may lie past the one
// appended to, or a whole record behind a failed sync — so a further edit
// could land where replay drops or overrides it. Reopening the store
// recovers.
func (m *manifest) fail(err error) error {
	m.err = fmt.Errorf("lsm: manifest: %w", err)
	return m.err
}

func appendEdit(log *wal.Log, edit manifestEdit) error {
	rec, err := json.Marshal(edit)
	if err != nil {
		return err
	}
	return log.Append(rec)
}

func (m *manifest) close() error { return m.log.Close() }

// syncDir makes a directory's entries durable: a table's rename before the
// manifest commit that names it. A package var so tests can observe the
// order of directory syncs and manifest commits.
var syncDir = wal.SyncDir

// meta renders a handle's manifest record.
func (t *tableHandle) meta() tableMeta {
	return tableMeta{
		ID:        t.id,
		Size:      t.size,
		FirstKey:  t.firstKey,
		LastKey:   t.lastKey,
		MinTS:     t.minTS,
		MaxTS:     t.maxTS,
		HasTS:     t.hasTS,
		CreatedMS: t.created.UnixMilli(),
	}
}
