package hbase

import (
	"sort"
	"time"

	"tpcxiot/internal/lsm"
	"tpcxiot/internal/replication"
)

// RegionStorage is one hosted replica's view in a StorageReport: the
// engine's cumulative stats plus its live table files.
type RegionStorage struct {
	Region string          `json:"region"`
	Server int             `json:"server"`
	Stats  lsm.Stats       `json:"stats"`
	Tables []lsm.TableStat `json:"tables"`
	// Tiers groups the same tables by compaction time window (newest
	// first): the hot window still absorbing flushes, and cold windows
	// settled to (or converging on) one table each.
	Tiers []lsm.TierStat `json:"tiers,omitempty"`
}

// RegionReplication is one region's quorum-pipeline snapshot in a
// StorageReport: the commit watermark, each member's applied watermark and
// catch-up queue depth, and the worst member lag.
type RegionReplication struct {
	Region string                 `json:"region"`
	Group  replication.GroupStats `json:"group"`
	MaxLag uint64                 `json:"max_lag"`
}

// StorageReport is the /storage document: the cluster-wide amplification
// ledger with per-replica breakdowns. Totals sums every replica's stats, so
// with replication factor R the physical write traffic is roughly R× a
// single copy's — that is the point: the report shows what the cluster
// actually wrote, not what one store did.
type StorageReport struct {
	Timestamp time.Time `json:"timestamp"`
	Servers   int       `json:"servers"`

	// Totals is the component-wise sum over every hosted replica.
	Totals lsm.Stats `json:"totals"`

	// Derived ratios over Totals, precomputed so consumers need no math.
	WriteAmplification     float64 `json:"write_amplification"`
	ReadAmplification      float64 `json:"read_amplification"`
	CacheHitRate           float64 `json:"cache_hit_rate"`
	BloomFalsePositiveRate float64 `json:"bloom_false_positive_rate"`

	Regions []RegionStorage `json:"regions"`

	// Replication is the per-region quorum-pipeline view: watermarks and
	// catch-up queue depths for every replication group.
	Replication []RegionReplication `json:"replication,omitempty"`
}

// addStats accumulates b into a component-wise. Ratios are recomputed from
// the summed ledger by the caller, never summed themselves.
func addStats(a *lsm.Stats, b lsm.Stats) {
	a.Puts += b.Puts
	a.Gets += b.Gets
	a.Scans += b.Scans
	a.Flushes += b.Flushes
	a.Compactions += b.Compactions
	a.StallEvents += b.StallEvents
	a.BatchApplies += b.BatchApplies
	a.LogicalBytes += b.LogicalBytes
	a.WALBytes += b.WALBytes
	a.FlushBytes += b.FlushBytes
	a.CompactReadBytes += b.CompactReadBytes
	a.CompactWriteBytes += b.CompactWriteBytes
	a.LogicalReadBytes += b.LogicalReadBytes
	a.DiskReadBytes += b.DiskReadBytes
	a.RunReads += b.RunReads
	a.RunBytes += b.RunBytes
	a.BloomHits += b.BloomHits
	a.BloomSkips += b.BloomSkips
	a.BloomFalsePositives += b.BloomFalsePositives
	a.CacheHits += b.CacheHits
	a.CacheMisses += b.CacheMisses
	a.CacheEvictions += b.CacheEvictions
	a.CacheUsedBytes += b.CacheUsedBytes
	a.CompressRawBytes += b.CompressRawBytes
	a.CompressStoredBytes += b.CompressStoredBytes
	a.PruneKeySkips += b.PruneKeySkips
	a.PruneTimeSkips += b.PruneTimeSkips
	a.Tables += b.Tables
	a.TableBytes += b.TableBytes
	a.MemtableBytes += b.MemtableBytes
	a.CompactionDebtBytes += b.CompactionDebtBytes
}

// Storage snapshots every hosted replica's engine stats and table files
// into one report. Safe to call concurrently with ingest; each replica is
// snapshotted independently, so the totals are approximate under load.
func (cl *Cluster) Storage() StorageReport {
	rep := StorageReport{Timestamp: time.Now()}
	for _, srv := range cl.Servers() {
		rep.Servers++
		for _, r := range srv.Regions() {
			rep.Regions = append(rep.Regions, RegionStorage{
				Region: r.Info().Name,
				Server: srv.ID(),
				Stats:  r.Stats(),
				Tables: r.TableStats(),
				Tiers:  r.TierStats(),
			})
		}
	}
	sort.Slice(rep.Regions, func(i, j int) bool {
		if rep.Regions[i].Region != rep.Regions[j].Region {
			return rep.Regions[i].Region < rep.Regions[j].Region
		}
		return rep.Regions[i].Server < rep.Regions[j].Server
	})
	for name, g := range cl.groups() {
		st := g.Stats()
		rep.Replication = append(rep.Replication, RegionReplication{
			Region: name,
			Group:  st,
			MaxLag: st.MaxLag(),
		})
	}
	sort.Slice(rep.Replication, func(i, j int) bool {
		return rep.Replication[i].Region < rep.Replication[j].Region
	})
	for i := range rep.Regions {
		addStats(&rep.Totals, rep.Regions[i].Stats)
	}
	rep.WriteAmplification = rep.Totals.WriteAmplification()
	rep.ReadAmplification = rep.Totals.ReadAmplification()
	rep.CacheHitRate = rep.Totals.CacheHitRate()
	rep.BloomFalsePositiveRate = rep.Totals.BloomFalsePositiveRate()
	return rep
}

// RegionHealth is one replica's liveness in a HealthReport.
type RegionHealth struct {
	Region string     `json:"region"`
	Server int        `json:"server"`
	Health lsm.Health `json:"health"`
}

// SustainedShedStreak is how many consecutive load-sheds (with no admit in
// between) on one server mark the cluster overloaded in /healthz. Isolated
// sheds are a healthy pressure valve — retryable, invisible to the status
// code; only a sustained run of them turns the endpoint 503.
const SustainedShedStreak = 16

// HealthReport is the /healthz document. OK means every replica is open,
// no writer is blocked on store-file backpressure, and no server is under
// sustained overload; Unhealthy lists only the replicas that are not OK, so
// a healthy cluster's report is small no matter its size.
type HealthReport struct {
	Timestamp    time.Time `json:"timestamp"`
	OK           bool      `json:"ok"`
	Regions      int       `json:"regions"`
	Stalled      int       `json:"stalled"`       // replicas with blocked writers
	StallWaiters int64     `json:"stall_waiters"` // writers blocked cluster-wide
	FlushPending int       `json:"flush_pending"` // replicas with an immutable memtable
	ReadDepth    int       `json:"read_depth"`    // deepest replica: most tables overlapping at one instant

	// Admission-control and quorum-pipeline signals.
	Sheds         int64  `json:"sheds"`          // mutates refused under overload, cluster-wide
	ShedStreak    int64  `json:"shed_streak"`    // worst per-server run of consecutive sheds
	Overloaded    bool   `json:"overloaded"`     // a server's streak reached SustainedShedStreak
	CatchUpDepth  int    `json:"catchup_depth"`  // deepest member catch-up queue, in batches
	QuorumLag     uint64 `json:"quorum_lag"`     // worst member lag behind a commit watermark
	StoppedCopies int    `json:"stopped_copies"` // members whose apply worker died

	Unhealthy []RegionHealth `json:"unhealthy,omitempty"`
}

// Health reports cluster liveness: stalls, flush backlog, admission-control
// pressure and replication lag across every hosted replica. OK goes false —
// and the HTTP endpoint 503 — only on conditions that persist: blocked
// writers, dead members, or a sustained shed streak; a transient shed or a
// straggler mid-catch-up keeps the cluster healthy.
func (cl *Cluster) Health() HealthReport {
	rep := HealthReport{Timestamp: time.Now(), OK: true}
	for _, srv := range cl.Servers() {
		st := srv.Stats()
		rep.Sheds += st.Sheds
		if st.ShedStreak > rep.ShedStreak {
			rep.ShedStreak = st.ShedStreak
		}
		if st.ShedStreak >= SustainedShedStreak {
			rep.Overloaded = true
			rep.OK = false
		}
		for _, r := range srv.Regions() {
			h := r.Health()
			rep.Regions++
			if h.Stalled {
				rep.Stalled++
			}
			rep.StallWaiters += h.StallWaiters
			if h.FlushPending {
				rep.FlushPending++
			}
			if h.ReadDepth > rep.ReadDepth {
				rep.ReadDepth = h.ReadDepth
			}
			if !h.OK() {
				rep.OK = false
				rep.Unhealthy = append(rep.Unhealthy, RegionHealth{
					Region: r.Info().Name,
					Server: srv.ID(),
					Health: h,
				})
			}
		}
	}
	for _, g := range cl.groups() {
		st := g.Stats()
		if lag := st.MaxLag(); lag > rep.QuorumLag {
			rep.QuorumLag = lag
		}
		for _, q := range st.Queue {
			if q > rep.CatchUpDepth {
				rep.CatchUpDepth = q
			}
		}
		for _, stopped := range st.Stopped {
			if stopped {
				rep.StoppedCopies++
				rep.OK = false
			}
		}
	}
	sort.Slice(rep.Unhealthy, func(i, j int) bool {
		if rep.Unhealthy[i].Region != rep.Unhealthy[j].Region {
			return rep.Unhealthy[i].Region < rep.Unhealthy[j].Region
		}
		return rep.Unhealthy[i].Server < rep.Unhealthy[j].Server
	})
	return rep
}
