// Time-windowed compaction driven by read depth.
//
// IoT keys carry timestamps and every read path prunes table files by time,
// so a read pays for the tables that overlap on the time axis, not for how
// many the store holds. The picker counts read depth — the most tables whose
// [minTS, maxTS] ranges share one instant (a table without time bounds
// overlaps everything, so a timestamp-less store's depth is its table
// count) — over tables grouped into fixed-duration windows (Options.
// WindowDuration) by newest key timestamp (creation wall-clock time when
// keys carry none; both unix ms, one axis):
//
//   - A cold window (any but the newest table's) holding several tables is
//     merged once, whole, into a table that is never rewritten.
//   - The hot window's in-order flushes are time-disjoint and left alone.
//     Late, backfilled or overwritten keys widen a flush's range;
//     at depth CompactTrigger a tier of similar-sized tables merges.
//   - Disjoint tables still pin a descriptor each: past hotFileBudget the
//     hot window folds its oldest flush-sized tables, foldWidth at a time.
//   - Writers stall at store depth MaxStoreFiles; only then is a full merge
//     the escape hatch.
//
// Correctness invariant: a pick is always a contiguous span of the
// newest-first table list, and its output is installed at the span's
// position. Shadowing order is therefore preserved no matter which span is
// chosen.
package lsm

import (
	"slices"

	"tpcxiot/internal/telemetry"
)

const (
	// tierSizeRatio is the max size spread within one tier: a contiguous
	// group counts as a tier only while its largest table is at most this
	// many times its smallest. Keeps a fresh flush from being merged into a
	// settled output thousands of times its size.
	tierSizeRatio = 4
	// maxTierWidth caps the tables in one hot-tier merge. Overlapping tables
	// re-merge as tiers grow, so a narrow pass keeps each rewrite short.
	maxTierWidth = 10
	// hotFileBudget is how many tables the hot window may hold before its
	// time-disjoint flushes are folded together. Depth never forces that
	// merge — reads prune disjoint tables for free — but every open table
	// pins a file descriptor and its index and Bloom filter (~55 KB for a
	// 4 MiB table of 1 KiB rows). At 4 MiB flushes and ~40 MB/s per store a
	// 5-minute window would otherwise hold ~3 000 tables; a region server
	// hosting 9 stores (3 regions, RF 3, one process in the kit) must stay
	// well under a 4 096-descriptor limit beside WAL segments, sockets and
	// cold windows. 128 with folds of foldWidth does: ~220 tables per store
	// at that rate (128 fresh + one output per 32 flushes).
	hotFileBudget = 128
	// foldWidth is how many tables one budget fold merges. Every byte is
	// folded once whatever the width, so width only sets the burst: 32
	// tables of 4 MiB are ~0.7 s of one core, short enough that ingest does
	// not queue behind it, where a whole-budget fold (3 s per store, every
	// store of a server at once) collapsed the kit's ingest rate.
	foldWidth = hotFileBudget / 4
)

// window returns the table's time-window index on the shared unix-ms axis.
func (t *tableHandle) window(windowMS int64) int64 {
	if t.hasTS {
		return t.maxTS / windowMS
	}
	return t.created.UnixMilli() / windowMS
}

// readDepth is the most tables of the set whose [minTS, maxTS] ranges share
// one instant (touching endpoints share it). Tables without time bounds
// overlap everything.
func readDepth(tables []*tableHandle) int {
	starts := make([]int64, 0, len(tables))
	ends := make([]int64, 0, len(tables))
	unbounded := 0
	for _, t := range tables {
		if !t.hasTS {
			unbounded++
			continue
		}
		starts = append(starts, t.minTS)
		ends = append(ends, t.maxTS)
	}
	slices.Sort(starts)
	slices.Sort(ends)
	depth, closed := 0, 0
	for opened, start := range starts {
		for ends[closed] < start {
			closed++
		}
		if d := opened + 1 - closed; d > depth {
			depth = d
		}
	}
	return depth + unbounded
}

// setTablesLocked installs a new table set and the read depth that goes
// with it, so the per-batch stall check reads a field instead of sweeping
// the set. Caller holds mu.
func (s *Store) setTablesLocked(tables []*tableHandle) {
	s.tables = tables
	s.depth = readDepth(tables)
}

// compactionPick is one unit of compaction work: a contiguous span of the
// newest-first table list.
type compactionPick struct {
	start, n int // span within s.tables at pick time
	inputs   []*tableHandle
	reason   string // "cold-window", "hot-tier", "hot-budget", "backpressure" or "full"
}

// tableRun is a maximal contiguous span of tables sharing a window.
type tableRun struct {
	window   int64
	start, n int
	bytes    int64
}

// runsLocked partitions s.tables (newest first) into window runs. The hot
// window is runs[0]'s: the one holding the newest table. Caller holds mu.
func (s *Store) runsLocked() []tableRun {
	windowMS := s.opts.WindowDuration.Milliseconds()
	var runs []tableRun
	for i, t := range s.tables {
		w := t.window(windowMS)
		if len(runs) == 0 || runs[len(runs)-1].window != w {
			runs = append(runs, tableRun{window: w, start: i})
		}
		r := &runs[len(runs)-1]
		r.n++
		r.bytes += t.size
	}
	return runs
}

// hotOwesLocked reports whether the hot run has compaction work: its tables
// overlap CompactTrigger deep, or it is over the file budget.
func (s *Store) hotOwesLocked(r tableRun) (tier, budget bool) {
	tier = r.n >= s.opts.CompactTrigger &&
		readDepth(s.tables[r.start:r.start+r.n]) >= s.opts.CompactTrigger
	return tier, r.n > hotFileBudget
}

// pickCompactionLocked chooses the next compaction, or nil when the store
// is settled. Caller holds mu (read suffices; the pick is validated against
// live handles at install time by pointer identity).
//
// Priority: (1) the oldest cold window still holding several tables — one
// whole-window merge retires it forever; (2) a size tier in the hot run once
// its tables overlap CompactTrigger deep; (3) the hot run over its file
// budget; (4) under write backpressure only, a full merge as the escape
// hatch that guarantees depth collapses.
func (s *Store) pickCompactionLocked() *compactionPick {
	if len(s.tables) < 2 {
		return nil
	}
	runs := s.runsLocked()
	hot := runs[0]
	for i := len(runs) - 1; i > 0; i-- {
		if r := runs[i]; r.window != hot.window && r.n >= 2 {
			return s.pickSpanLocked(r.start, r.n, "cold-window")
		}
	}
	tier, budget := s.hotOwesLocked(hot)
	if tier {
		if p := s.pickTierLocked(hot); p != nil {
			return p
		}
	}
	if budget {
		if p := s.pickBudgetLocked(hot); p != nil {
			return p
		}
	}
	// Writers are stalled on MaxStoreFiles but no rule above lowers depth
	// (e.g. overlapping tables in a size staircase, or spread over cold
	// windows). A full merge always does.
	if s.stallWaiters.Load() > 0 {
		return s.pickSpanLocked(0, len(s.tables), "backpressure")
	}
	return nil
}

// pickTierLocked finds the newest contiguous group of at least
// CompactTrigger tables (maxTierWidth when the trigger is wider than one
// merge) within run whose sizes stay within tierSizeRatio.
func (s *Store) pickTierLocked(run tableRun) *compactionPick {
	need := min(s.opts.CompactTrigger, maxTierWidth)
	end := run.start + run.n
	for i := run.start; i < end; {
		minSz := s.tables[i].size
		maxSz := minSz
		j := i + 1
		for j < end && j-i < maxTierWidth {
			sz := s.tables[j].size
			nmin, nmax := minSz, maxSz
			if sz < nmin {
				nmin = sz
			}
			if sz > nmax {
				nmax = sz
			}
			if nmax > nmin*tierSizeRatio {
				break
			}
			minSz, maxSz = nmin, nmax
			j++
		}
		if j-i >= need {
			return s.pickSpanLocked(i, j-i, "hot-tier")
		}
		i = j
	}
	return nil
}

// pickBudgetLocked folds an over-budget hot run: the oldest foldWidth of
// its oldest contiguous span of flush-sized tables. Flush-sized means within
// tierSizeRatio of the run's median table — over budget the median is a
// flush, and an earlier fold's output is foldWidth times that, so outputs
// are skipped and each byte is folded once (once more per factor of
// foldWidth, should outputs ever outnumber flushes). In-order, the output is
// time-disjoint from every newer flush and stays out of the way until the
// window goes cold.
func (s *Store) pickBudgetLocked(run tableRun) *compactionPick {
	sizes := make([]int64, run.n)
	for i := range sizes {
		sizes[i] = s.tables[run.start+i].size
	}
	slices.Sort(sizes)
	limit := sizes[run.n/2] * tierSizeRatio
	for end := run.start + run.n; end > run.start; {
		if s.tables[end-1].size > limit {
			end--
			continue
		}
		start := end - 1
		for start > run.start && end-start < foldWidth && s.tables[start-1].size <= limit {
			start--
		}
		if end-start >= 2 {
			return s.pickSpanLocked(start, end-start, "hot-budget")
		}
		end = start
	}
	return nil
}

// pickSpanLocked materialises a span into a pick, acquiring nothing yet.
func (s *Store) pickSpanLocked(start, n int, reason string) *compactionPick {
	return &compactionPick{
		start:  start,
		n:      n,
		inputs: append([]*tableHandle(nil), s.tables[start:start+n]...),
		reason: reason,
	}
}

// compactionDebtLocked is the bytes the picker would rewrite right now: cold
// windows not yet merged to one table, plus the hot run once it overlaps
// CompactTrigger deep or exceeds the file budget. A settled store owes
// nothing however much it holds. Caller holds mu.
func (s *Store) compactionDebtLocked() int64 {
	if len(s.tables) < 2 {
		return 0
	}
	runs := s.runsLocked()
	var debt int64
	if tier, budget := s.hotOwesLocked(runs[0]); tier || budget {
		debt += runs[0].bytes
	}
	for _, r := range runs[1:] {
		if r.window != runs[0].window && r.n >= 2 {
			debt += r.bytes
		}
	}
	return debt
}

// TierStat summarises one time window of the table set for introspection:
// the /storage document and the driver report's Storage section.
type TierStat struct {
	// Window is the window index; WindowStartMS is its inclusive start on
	// the unix-ms axis (WindowStartMS + window duration is the exclusive
	// end).
	Window        int64 `json:"window"`
	WindowStartMS int64 `json:"window_start_ms"`
	Tables        int   `json:"tables"`
	Bytes         int64 `json:"bytes"`
	// Depth is the window's read depth: the most of its tables a
	// time-pruned read can have to consult at one instant.
	Depth int `json:"depth"`
	// Hot marks the window still accepting the newest data; cold windows
	// converge to a single table and are never rewritten again.
	Hot bool `json:"hot"`
	// WallClock marks a window derived from file creation time because the
	// keys carried no timestamps.
	WallClock bool `json:"wall_clock"`
}

// TierStats reports the table set grouped by time window, newest first.
func (s *Store) TierStats() []TierStat {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.tables) == 0 {
		return nil
	}
	windowMS := s.opts.WindowDuration.Milliseconds()
	hot := s.tables[0].window(windowMS)
	// Out-of-order flushes can split a window across non-adjacent runs;
	// report them as one tier, in order of first appearance.
	var out []TierStat
	var members [][]*tableHandle
	slot := map[int64]int{}
	for _, t := range s.tables {
		w := t.window(windowMS)
		i, seen := slot[w]
		if !seen {
			i = len(out)
			slot[w] = i
			out = append(out, TierStat{
				Window:        w,
				WindowStartMS: w * windowMS,
				Hot:           w == hot,
				WallClock:     !t.hasTS,
			})
			members = append(members, nil)
		}
		out[i].Tables++
		out[i].Bytes += t.size
		members[i] = append(members[i], t)
	}
	for i := range out {
		out[i].Depth = readDepth(members[i])
	}
	return out
}

// kickCompactor nudges the background compaction goroutine; a kick is
// merged into one already pending.
func (s *Store) kickCompactor() {
	select {
	case s.compactKick <- struct{}{}:
	default:
	}
}

// compactLoop is the dedicated background compaction goroutine, decoupled
// from flush: flushes (and stalls) kick it, and each kick drains the picker
// until the store owes no compaction work. Budgeting is the debt gauge
// itself — the loop runs exactly while lsm.compaction_debt_bytes is
// nonzero.
func (s *Store) compactLoop() {
	defer s.bg.Done()
	for {
		select {
		case <-s.quit:
			return
		case <-s.compactKick:
		}
		for {
			select {
			case <-s.quit:
				return
			default:
			}
			did, err := s.compactOnce()
			if err != nil {
				s.elog.Error("background compaction failed",
					telemetry.F("error", err))
				break
			}
			if !did {
				break
			}
		}
	}
}

// CompactPending runs compactions in the calling goroutine until the picker
// is satisfied — cold windows merged to one table each, hot window below
// its tier trigger. Unlike Compact it never rewrites settled cold windows,
// so calling it on a settled store is free. It is the synchronous "settle"
// used by benchmarks and tests.
func (s *Store) CompactPending() error {
	for {
		did, err := s.compactOnce()
		if err != nil || !did {
			return err
		}
	}
}
