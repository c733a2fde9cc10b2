package hbase

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"

	"tpcxiot/internal/lsm"
	"tpcxiot/internal/telemetry"
)

// ErrNoTCP is returned when TCP clients are requested before ServeTCP.
var ErrNoTCP = errors.New("hbase: cluster is not serving TCP")

// tcpState holds the cluster's network listeners.
type tcpState struct {
	listeners []net.Listener
	addrs     []string
	wg        sync.WaitGroup
}

// ServeTCP starts one loopback TCP listener per region server, making the
// cluster reachable over the wire protocol. Call before creating TCP
// clients; Close (or the returned stop function) shuts the listeners down.
func (cl *Cluster) ServeTCP() error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.closed {
		return ErrClusterClosed
	}
	if cl.tcp != nil {
		return nil
	}
	st := &tcpState{}
	for _, srv := range cl.servers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			st.stop()
			return fmt.Errorf("hbase: listen for server %d: %w", srv.ID(), err)
		}
		st.listeners = append(st.listeners, ln)
		st.addrs = append(st.addrs, ln.Addr().String())
		st.wg.Add(1)
		go cl.acceptLoop(st, ln, srv)
	}
	cl.tcp = st
	return nil
}

func (st *tcpState) stop() {
	for _, ln := range st.listeners {
		ln.Close()
	}
}

// ServerAddrs returns the TCP address of each region server, index-aligned
// with Servers(). Empty until ServeTCP.
func (cl *Cluster) ServerAddrs() []string {
	cl.mu.RLock()
	defer cl.mu.RUnlock()
	if cl.tcp == nil {
		return nil
	}
	return append([]string(nil), cl.tcp.addrs...)
}

func (cl *Cluster) acceptLoop(st *tcpState, ln net.Listener, srv *RegionServer) {
	defer st.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		go cl.serveConn(conn, srv)
	}
}

// serveConn handles one client connection: a loop of request frames.
func (cl *Cluster) serveConn(conn net.Conn, srv *RegionServer) {
	defer conn.Close()
	r := bufio.NewReaderSize(conn, connReadBuf)
	var req frameReader
	var resp frameWriter
	for {
		if err := req.readFrame(r); err != nil {
			return // EOF or broken frame: drop the connection
		}
		cl.dispatch(&req, &resp, srv)
		if err := resp.flush(conn); err != nil {
			return
		}
	}
}

// dispatch executes one request against the server and builds the response:
// results go into the frame as the handler produces them; fail starts it
// over. A sampled request (trace header present) gets its server-side work
// collected in a joined trace whose spans are shipped back on the response
// frame, right after the status, for client-side stitching.
func (cl *Cluster) dispatch(req *frameReader, resp *frameWriter, srv *RegionServer) {
	fail := func(err error) {
		var over *OverloadedError
		if errors.As(err, &over) {
			resp.reset(statusOverloaded)
			resp.uvarint(uint64(over.RetryAfter.Microseconds()))
			return
		}
		resp.reset(statusErr)
		resp.str(err.Error())
	}
	tctx, err := req.traceContext()
	if err != nil {
		fail(err)
		return
	}
	rop := telemetry.JoinRemote(tctx)
	parent := rop.RemoteParent(tctx)
	resp.reset(statusOK)
	regionName, err := req.str()
	if err != nil {
		fail(err)
		return
	}
	tr := cl.findRegion(regionName)
	if tr == nil {
		fail(fmt.Errorf("hbase: unknown region %q", regionName))
		return
	}

	switch req.op {
	case opMutate:
		n, err := req.count(3) // a mutation is at least a flag and two lengths
		if err != nil {
			fail(err)
			return
		}
		batch := make([]Mutation, 0, n)
		for i := uint64(0); i < n; i++ {
			del, err := req.uvarint()
			if err != nil {
				fail(err)
				return
			}
			key, err := req.bytes()
			if err != nil {
				fail(err)
				return
			}
			value, err := req.bytes()
			if err != nil {
				fail(err)
				return
			}
			batch = append(batch, Mutation{
				Key:    append([]byte(nil), key...),
				Value:  append([]byte(nil), value...),
				Delete: del == 1,
			})
		}
		if err := srv.mutate(tr.group, batch, parent); err != nil {
			fail(err)
			return
		}

	case opGet:
		key, err := req.bytes()
		if err != nil {
			fail(err)
			return
		}
		v, found, err := srv.get(tr.replicas[0], key, parent)
		if err != nil {
			fail(err)
			return
		}
		if found {
			resp.uvarint(1)
			resp.bytes(v)
		} else {
			resp.uvarint(0)
		}

	case opScanOpen:
		lo, err := req.optBytes()
		if err != nil {
			fail(err)
			return
		}
		hi, err := req.optBytes()
		if err != nil {
			fail(err)
			return
		}
		limit, err := req.uvarint()
		if err != nil {
			fail(err)
			return
		}
		id, err := srv.openScanner(tr.replicas[0], lo, hi, wireCount(limit), parent)
		if err != nil {
			fail(err)
			return
		}
		resp.uvarint(id)

	case opScanNext:
		id, err := req.uvarint()
		if err != nil {
			fail(err)
			return
		}
		chunk, err := req.uvarint()
		if err != nil {
			fail(err)
			return
		}
		head := resp.beginChunk()
		n, more, err := srv.next(id, wireCount(chunk), resp.row, parent)
		if err != nil {
			fail(err)
			return
		}
		resp.endChunk(head, n, more)

	case opAggregate:
		lo, err := req.optBytes()
		if err != nil {
			fail(err)
			return
		}
		hi, err := req.optBytes()
		if err != nil {
			fail(err)
			return
		}
		var minTS, maxTS, windowMS uint64
		for _, dst := range []*uint64{&minTS, &maxTS, &windowMS} {
			if *dst, err = req.uvarint(); err != nil {
				fail(err)
				return
			}
		}
		funcs, err := req.uvarint()
		if err != nil {
			fail(err)
			return
		}
		res, err := srv.aggregate(tr.replicas[0], lo, hi,
			int64(minTS), int64(maxTS), int64(windowMS), lsm.AggFuncs(funcs), parent)
		if err != nil {
			fail(err)
			return
		}
		resp.uvarint(uint64(res.RowsFolded))
		resp.uvarint(uint64(len(res.Windows)))
		for i := range res.Windows {
			w := &res.Windows[i]
			resp.bytes(w.Series)
			resp.uvarint(uint64(w.WindowStart))
			resp.uvarint(uint64(w.Count))
			resp.uvarint(math.Float64bits(w.Min))
			resp.uvarint(math.Float64bits(w.Max))
			resp.uvarint(math.Float64bits(w.Sum))
		}

	case opScanClose:
		id, err := req.uvarint()
		if err != nil {
			fail(err)
			return
		}
		if err := srv.closeScanner(id); err != nil {
			fail(err)
			return
		}

	default:
		fail(fmt.Errorf("hbase: unknown opcode %d", req.op))
		return
	}
	resp.spans(rop.TakeSpans())
}

// wireCount turns a row count off the wire into an int. One too large for
// int is, for any range a region can hold, the same as the largest int.
func wireCount(v uint64) int {
	return int(min(v, math.MaxInt))
}

// findRegion resolves a region name to its routing entry.
func (cl *Cluster) findRegion(name string) *tableRegion {
	cl.mu.RLock()
	defer cl.mu.RUnlock()
	for _, t := range cl.tables {
		for _, tr := range t.regions {
			if tr.info.Name == name {
				return tr
			}
		}
	}
	return nil
}

// stopTCPLocked closes listeners; caller holds cl.mu.
func (cl *Cluster) stopTCPLocked() {
	if cl.tcp != nil {
		cl.tcp.stop()
		cl.tcp = nil
	}
}
