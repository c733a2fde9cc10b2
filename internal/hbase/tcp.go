package hbase

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"

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
		if req.readFrame(r); req.err != nil {
			return // EOF or broken frame: drop the connection
		}
		cl.dispatch(&req, &resp, srv)
		if err := resp.flush(conn); err != nil {
			return
		}
	}
}

// dispatch executes one request against the server and builds the response:
// results go into the frame as the handler produces them; a failure starts
// it over. A sampled request (trace header present) gets its server-side
// work collected in a joined trace whose spans are shipped back on the
// response frame, right after the status, for client-side stitching.
func (cl *Cluster) dispatch(req *frameReader, resp *frameWriter, srv *RegionServer) {
	tctx, region := req.request()
	rop := telemetry.JoinRemote(tctx)
	resp.reset(statusOK)
	if err := cl.serve(req, resp, srv, region, rop.RemoteParent(tctx)); err != nil {
		resp.failure(err)
		return
	}
	resp.spans(rop.TakeSpans())
}

// serve decodes the op's fields, runs its handler and encodes what the
// handler returns. A request that does not decode, or names no region this
// cluster holds, reaches no handler; on a handler error the results already
// encoded are dropped with the rest of the frame.
func (cl *Cluster) serve(req *frameReader, resp *frameWriter, srv *RegionServer, region string, parent telemetry.TSpan) error {
	tr := cl.findRegion(region)
	if tr == nil && req.err == nil {
		return fmt.Errorf("hbase: unknown region %q", region)
	}
	switch req.op {
	case opMutate:
		batch := req.batch()
		if req.err != nil {
			return req.err
		}
		return srv.mutate(tr, batch, parent)
	case opScanOpen:
		lo, hi, limit := req.scanOpen()
		if req.err != nil {
			return req.err
		}
		id, err := srv.openScanner(tr, lo, hi, limit, parent)
		resp.uvarint(id)
		return err
	case opScanNext:
		id, chunk := req.scanNext()
		if req.err != nil {
			return req.err
		}
		head := resp.beginChunk()
		n, more, err := srv.next(id, chunk, resp.row, parent)
		resp.endChunk(head, n, more)
		return err
	case opScanClose:
		id := req.uvarint()
		if req.err != nil {
			return req.err
		}
		return srv.closeScanner(id)
	case opAggregate:
		lo, hi, minTS, maxTS, windowMS, funcs := req.aggregate()
		if req.err != nil {
			return req.err
		}
		res, err := srv.aggregate(tr, lo, hi, minTS, maxTS, windowMS, funcs, parent)
		resp.aggResult(res)
		return err
	}
	return fmt.Errorf("hbase: unknown opcode %d", req.op)
}

// findRegion resolves a region name to its routing entry.
func (cl *Cluster) findRegion(name string) *tableRegion {
	cl.mu.RLock()
	defer cl.mu.RUnlock()
	for _, t := range cl.tables {
		for _, tr := range t.regions {
			if tr.name == name {
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
