package driver

import (
	"fmt"
	"math"

	"tpcxiot/internal/hbase"
	"tpcxiot/internal/lsm"
	"tpcxiot/internal/workload"
	"tpcxiot/internal/ycsb"
)

// ClusterSUT drives the live mini-HBase cluster as the System Under Test,
// over its loopback TCP wire protocol: every client reaches the region
// servers through the full client-to-region-server network path. The
// benchmark table is pre-split so every simulated substation owns its own
// region — the standard deployment practice for TPCx-IoT runs against HBase.
type ClusterSUT struct {
	cluster     *hbase.Cluster
	table       string
	splits      [][]byte
	writeBuffer int64
}

// NewClusterSUT starts the cluster's TCP listeners, creates the benchmark
// table for `drivers` substations and returns the SUT. writeBufferBytes
// configures each client's write buffer (hbase.client.write.buffer).
func NewClusterSUT(cl *hbase.Cluster, drivers int, writeBufferBytes int64) (*ClusterSUT, error) {
	if drivers <= 0 {
		return nil, fmt.Errorf("driver: non-positive driver count %d", drivers)
	}
	if err := cl.ServeTCP(); err != nil {
		return nil, err
	}
	s := &ClusterSUT{
		cluster:     cl,
		table:       "iot",
		splits:      workload.SplitKeys(workload.SubstationNames(drivers)),
		writeBuffer: writeBufferBytes,
	}
	if _, err := cl.CreateTable(s.table, s.splits); err != nil {
		return nil, err
	}
	return s, nil
}

// UseTCP is an idempotent ServeTCP: NewClusterSUT already started the
// listeners. It stays because bench/kit.go calls it (DESIGN §6).
func (s *ClusterSUT) UseTCP() error { return s.cluster.ServeTCP() }

// Binding implements SUT: one buffered TCP client per worker thread.
func (s *ClusterSUT) Binding(d int) ycsb.Binding {
	return workload.ClusterBinding(s.cluster, s.table, s.writeBuffer)
}

// ReplicationFactor implements SUT.
func (s *ClusterSUT) ReplicationFactor() int { return s.cluster.ReplicationFactor() }

// Quiesce implements Quiescer: it drains every region's replication
// catch-up queues so stragglers converge before counters are read.
func (s *ClusterSUT) Quiesce() error { return s.cluster.Quiesce() }

// Cleanup implements SUT: drop the table (purging all ingested data and
// temporary files) and recreate it empty, the system cleanup of Figure 6.
func (s *ClusterSUT) Cleanup() error {
	if err := s.cluster.DropTable(s.table); err != nil {
		return err
	}
	_, err := s.cluster.CreateTable(s.table, s.splits)
	return err
}

// CountRows implements RowCounter with the count-only aggregate: every
// region counts its stored readings in place (keys only, no value decoded)
// and one partial per series comes back, so the check holds O(series)
// memory however large the table is. RowsFolded is the number of rows the
// regions counted.
func (s *ClusterSUT) CountRows() (int64, error) {
	client, err := s.cluster.NewTCPClient(s.table, 0)
	if err != nil {
		return 0, err
	}
	defer client.Close()
	res, err := client.Aggregate(nil, nil, 0, math.MaxInt64, 0, lsm.AggCount)
	if err != nil {
		return 0, err
	}
	return res.RowsFolded, nil
}

// Describe implements SUT.
func (s *ClusterSUT) Describe() string {
	return fmt.Sprintf("mini-HBase cluster (loopback TCP): %d region servers, %d-way replication, table %q with %d regions",
		s.cluster.NodeCount(), s.cluster.ReplicationFactor(), s.table, len(s.splits)+1)
}
