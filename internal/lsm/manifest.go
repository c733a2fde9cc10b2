package lsm

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"tpcxiot/internal/telemetry"
	"tpcxiot/internal/wal"
)

// The manifest is the store's versioned table-set log, replacing the
// implicit scan-the-directory recovery: every flush and compaction commits
// an atomic edit (tables added, tables deleted) to an append-only, fsynced
// manifest file before any input file is unlinked. The manifest commit IS
// the transition — a crash on either side of it replays to a consistent
// table set, and any .sst the replayed manifest does not reference is an
// orphan from an interrupted transition, removed at open.
//
// On-disk layout inside the store directory:
//
//	CURRENT            the file name of the live manifest ("MANIFEST-000042")
//	MANIFEST-NNNNNN    records: uvarint length | JSON edit | CRC32C
//
// Each record is one manifestEdit. Replay applies edits in order; a torn
// final record (crash mid-append) is tolerated and truncated away, exactly
// like the WAL's torn-tail rule. The manifest rotates once it accumulates
// manifestRotateEvery edits: the full live state is snapshotted into a new
// file and CURRENT is atomically redirected, so recovery cost stays
// proportional to the live table count, not store history.
const (
	manifestPrefix      = "MANIFEST-"
	currentName         = "CURRENT"
	manifestRotateEvery = 256
)

var errManifestTorn = errors.New("lsm: torn manifest record")

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
// a compaction adds its output and deletes its inputs.
type manifestEdit struct {
	Added   []tableMeta `json:"added,omitempty"`
	Deleted []uint64    `json:"deleted,omitempty"`
}

// manifest is the open handle on the live manifest file. Not safe for
// concurrent use; the store serialises edits through its maintenance locks.
type manifest struct {
	dir     string
	seq     uint64 // sequence number in the live manifest's name
	f       *os.File
	records int // edits in the live file, for rotation
}

func manifestName(seq uint64) string { return fmt.Sprintf("%s%06d", manifestPrefix, seq) }

// openManifest opens the store's manifest and replays it. The returned map
// is the live table set (nil when no manifest exists yet); the caller
// bootstraps one via bootstrap in that case.
func openManifest(dir string, elog *telemetry.Logger) (*manifest, map[uint64]tableMeta, error) {
	cur, err := os.ReadFile(filepath.Join(dir, currentName))
	if errors.Is(err, os.ErrNotExist) {
		return &manifest{dir: dir}, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("lsm: read CURRENT: %w", err)
	}
	name := strings.TrimSpace(string(cur))
	seq, perr := strconv.ParseUint(strings.TrimPrefix(name, manifestPrefix), 10, 64)
	if !strings.HasPrefix(name, manifestPrefix) || perr != nil {
		return nil, nil, fmt.Errorf("%w: CURRENT names %q", ErrCorrupt, name)
	}
	path := filepath.Join(dir, name)
	live, n, err := replayManifest(path, elog)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("lsm: open manifest: %w", err)
	}
	return &manifest{dir: dir, seq: seq, f: f, records: n}, live, nil
}

// replayManifest applies every complete edit in path, returning the live
// table set and the number of edits applied. A torn final record is
// truncated away (with a warning) so the next append starts clean.
func replayManifest(path string, elog *telemetry.Logger) (map[uint64]tableMeta, int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("lsm: read manifest: %w", err)
	}
	live := map[uint64]tableMeta{}
	off, n := 0, 0
	for off < len(data) {
		edit, rec, derr := decodeManifestRecord(data[off:])
		if derr != nil {
			if errors.Is(derr, errManifestTorn) {
				elog.Warn("truncating torn manifest tail from interrupted commit",
					telemetry.F("file", filepath.Base(path)),
					telemetry.F("offset", off))
				if terr := os.Truncate(path, int64(off)); terr != nil {
					return nil, 0, fmt.Errorf("lsm: truncate torn manifest: %w", terr)
				}
				break
			}
			return nil, 0, derr
		}
		for _, id := range edit.Deleted {
			delete(live, id)
		}
		for _, m := range edit.Added {
			live[m.ID] = m
		}
		off += rec
		n++
	}
	return live, n, nil
}

// decodeManifestRecord parses one record from the head of b, returning the
// edit and the record's total encoded length. errManifestTorn means b holds
// a partial or corrupt record (only acceptable at end of file).
func decodeManifestRecord(b []byte) (manifestEdit, int, error) {
	plen, n := binary.Uvarint(b)
	// Compared without adding: plen+4 wraps for a length near 2^64.
	if n <= 0 || uint64(len(b)-n) < 4 || plen > uint64(len(b)-n)-4 {
		return manifestEdit{}, 0, errManifestTorn
	}
	payload := b[n : n+int(plen)]
	want := binary.LittleEndian.Uint32(b[n+int(plen):])
	if crc32.Checksum(payload, crcTable) != want {
		return manifestEdit{}, 0, errManifestTorn
	}
	var edit manifestEdit
	if err := json.Unmarshal(payload, &edit); err != nil {
		return manifestEdit{}, 0, fmt.Errorf("%w: manifest edit: %v", ErrCorrupt, err)
	}
	return edit, n + int(plen) + 4, nil
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func encodeManifestRecord(edit manifestEdit) ([]byte, error) {
	payload, err := json.Marshal(edit)
	if err != nil {
		return nil, err
	}
	rec := binary.AppendUvarint(nil, uint64(len(payload)))
	rec = append(rec, payload...)
	rec = binary.LittleEndian.AppendUint32(rec, crc32.Checksum(payload, crcTable))
	return rec, nil
}

// bootstrap creates the first, empty manifest for a directory. The manifest
// file is written and synced before CURRENT appears, so a crash
// mid-bootstrap leaves no CURRENT and the next open simply bootstraps again.
func (m *manifest) bootstrap() error {
	if m.f != nil {
		return errors.New("lsm: manifest already open")
	}
	return m.writeSnapshot(m.seq+1, nil)
}

// logEdit appends one committed transition and syncs it to disk. Rotation
// happens before the append when the live file is full, so the edit always
// lands in the file CURRENT points at. The caller supplies the live table
// set for the rotation snapshot.
func (m *manifest) logEdit(edit manifestEdit, live []tableMeta) error {
	if m.records >= manifestRotateEvery {
		if err := m.writeSnapshot(m.seq+1, live); err != nil {
			return err
		}
	}
	rec, err := encodeManifestRecord(edit)
	if err != nil {
		return err
	}
	if _, err := m.f.Write(rec); err != nil {
		return fmt.Errorf("lsm: manifest append: %w", err)
	}
	if err := m.f.Sync(); err != nil {
		return fmt.Errorf("lsm: manifest sync: %w", err)
	}
	m.records++
	return nil
}

// writeSnapshot writes the full live state as the single record of a new
// manifest file, atomically redirects CURRENT to it, and removes the old
// file. The commit point is CURRENT's rename.
func (m *manifest) writeSnapshot(seq uint64, tables []tableMeta) error {
	sorted := append([]tableMeta(nil), tables...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	rec, err := encodeManifestRecord(manifestEdit{Added: sorted})
	if err != nil {
		return err
	}
	path := filepath.Join(m.dir, manifestName(seq))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("lsm: create manifest: %w", err)
	}
	if _, err := f.Write(rec); err != nil {
		f.Close()
		return fmt.Errorf("lsm: write manifest: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("lsm: sync manifest: %w", err)
	}

	// Redirect CURRENT via tmp+rename so it always names a complete,
	// synced manifest.
	curTmp := filepath.Join(m.dir, currentName+tmpSuffix)
	if err := os.WriteFile(curTmp, []byte(manifestName(seq)+"\n"), 0o644); err != nil {
		f.Close()
		return fmt.Errorf("lsm: write CURRENT: %w", err)
	}
	if err := syncFile(curTmp); err != nil {
		f.Close()
		return err
	}
	if err := os.Rename(curTmp, filepath.Join(m.dir, currentName)); err != nil {
		f.Close()
		return fmt.Errorf("lsm: install CURRENT: %w", err)
	}
	syncDir(m.dir)

	if m.f != nil {
		m.f.Close()
		os.Remove(filepath.Join(m.dir, manifestName(m.seq)))
	}
	m.f, m.seq, m.records = f, seq, 1
	return nil
}

func (m *manifest) close() error {
	if m.f == nil {
		return nil
	}
	err := m.f.Close()
	m.f = nil
	return err
}

// syncDir makes a directory's entries durable: CURRENT's rename here, a
// table's rename before the manifest commit that names it. A package var so
// tests can observe the order of directory syncs and manifest commits.
var syncDir = wal.SyncDir

// syncFile fsyncs one path.
func syncFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("lsm: sync %s: %w", filepath.Base(path), err)
	}
	return nil
}

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
