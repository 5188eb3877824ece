package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"freecursive"
	"freecursive/client"
	"freecursive/internal/backend"
	"freecursive/internal/backend/bhoram"
	"freecursive/internal/bucketd"
	"freecursive/internal/core"
	"freecursive/internal/frameserver"
	"freecursive/internal/mem"
	"freecursive/internal/store"
	"freecursive/internal/tree"
)

// memKind is where a workload's untrusted memory lives.
type memKind int

const (
	memMap    memKind = iota // in-process map
	memRemote                // in-process bucketd over loopback
	memFile                  // page files under the data directory
)

// Sizing shared by the workloads: one process, at most two store shards
// and two client connections (the binary transport's default pool).
const (
	blocks     = 1 << 18
	blockBytes = 64
	remoteRTT  = time.Millisecond
)

// env is a workload's serving stack, from the untrusted memory up to the
// executor the generator drives.
type env struct {
	w   *workload
	dir string // data directory (durable workloads)
	cfg store.Config

	st   *store.Store
	exec executor

	bd       *bucketd.Server
	bdAddr   string
	bdDone   chan struct{}
	bdBucket atomic.Uint64 // bucket operations bucketd has applied

	fs     *frameserver.Server
	fsDone chan struct{}
	cl     *client.Client
	tt     *tracedTransport
}

// open builds the workload's stack: bucketd and its listener, the store
// (and its page files), the frame server and the client. It returns once
// the first operation can be issued.
func open(w *workload, seed uint64, dataRoot string, clk *clock) (*env, error) {
	e := &env{w: w}
	e.cfg = store.Config{
		Shards: w.shards,
		Blocks: w.gen.Blocks,
		ORAM: freecursive.Config{
			Scheme:     freecursive.PIC,
			Backend:    w.backend,
			BlockBytes: blockBytes,
			Seed:       seed,
		},
	}
	switch w.mem {
	case memRemote:
		e.bd = bucketd.New(bucketd.Config{
			RTT:   remoteRTT,
			Trace: func(byte, uint64, uint64) { e.bdBucket.Add(1) },
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		e.bdAddr = ln.Addr().String()
		e.bdDone = make(chan struct{})
		go func() {
			defer close(e.bdDone)
			e.bd.Serve(ln)
		}()
		e.cfg.MemAddr = e.bdAddr
		e.cfg.MemNamespace = "orambench"
	case memFile:
		dir, err := os.MkdirTemp(dataRoot, w.name+"-")
		if err != nil {
			return nil, err
		}
		e.dir = dir
		e.cfg.DataDir = filepath.Join(dir, "store")
	}
	st, err := store.New(e.cfg)
	if err != nil {
		e.close()
		return nil, err
	}
	e.st = st
	e.exec = &storeExec{st: st, clk: clk}
	if w.served {
		e.fs = frameserver.New(st)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			e.close()
			return nil, err
		}
		e.fsDone = make(chan struct{})
		go func() {
			defer close(e.fsDone)
			e.fs.Serve(ln)
		}()
		e.tt = &tracedTransport{inner: client.Binary(ln.Addr().String()), clk: clk}
		cl, err := client.New(client.Config{Transport: e.tt})
		if err != nil {
			e.close()
			return nil, err
		}
		e.cl = cl
		e.exec = clientExec{c: cl}
	}
	return e, nil
}

// reopen makes a clean durable shutdown and resumes the store from its
// snapshots and page files.
func (e *env) reopen(clk *clock) error {
	if err := e.st.Snapshot(); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := e.st.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	e.st = nil
	st, err := store.New(e.cfg)
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	e.st = st
	e.exec = &storeExec{st: st, clk: clk}
	return nil
}

// close tears the stack down top to bottom, waits for every server
// goroutine it started, and removes the data directory.
func (e *env) close() error {
	var errs []error
	if e.cl != nil {
		errs = append(errs, e.cl.Close())
	}
	if e.fs != nil {
		errs = append(errs, e.fs.Close())
		<-e.fsDone
	}
	if e.st != nil {
		errs = append(errs, e.st.Close())
	}
	if e.bd != nil {
		errs = append(errs, e.bd.Close())
		<-e.bdDone
	}
	if e.dir != "" {
		errs = append(errs, os.RemoveAll(e.dir))
	}
	return errors.Join(errs...)
}

// diskBytes is the space allocated under the data directory.
func (e *env) diskBytes() int64 {
	if e.dir == "" {
		return 0
	}
	var total int64
	filepath.WalkDir(e.dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				total += allocatedBytes(info)
			}
		}
		return nil
	})
	return total
}

// stackMem returns the opener for a shard stack's memory: the same kind
// of untrusted memory the workload's store uses, in its own namespace or
// file.
func (e *env) stackMem(backendKind string, stashCap int) (memOpener, error) {
	switch e.w.mem {
	case memRemote:
		return func(tree.Geometry) (mem.Backend, error) {
			return mem.DialRemote(mem.RemoteConfig{Addr: e.bdAddr, Namespace: "orambench-stack"})
		}, nil
	case memFile:
		dir := filepath.Join(e.dir, "stack")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		return func(g tree.Geometry) (mem.Backend, error) {
			slot, buckets := backend.SealedBucketBytes(g), uint64(0)
			if backendKind == core.BackendBucketHash {
				slot, buckets = bhoram.SealedBucketBytes(g), bhoram.NumBuckets(g, stashCap)
			}
			return mem.OpenFile(mem.FileConfig{
				Path:      filepath.Join(dir, "tree-0.oram"),
				Geometry:  g,
				SlotBytes: slot,
				Buckets:   buckets,
			})
		}, nil
	}
	return func(tree.Geometry) (mem.Backend, error) { return mem.NewStore(), nil }, nil
}

// storeExec drives the store directly. It records when the submit call
// returned, which is how long backpressure from a full shard queue held
// the caller.
type storeExec struct {
	st  *store.Store
	clk *clock
}

func (x *storeExec) get(rec *opRec) ([]byte, error) {
	f := x.st.SubmitGet(rec.addr)
	rec.submitted = x.clk.now()
	return f.Wait()
}

func (x *storeExec) put(rec *opRec, data []byte) error {
	f := x.st.SubmitPut(rec.addr, data)
	rec.submitted = x.clk.now()
	_, err := f.Wait()
	return err
}

// clientExec drives the batching client; concurrent operations share its
// micro-batches.
type clientExec struct{ c *client.Client }

func (x clientExec) get(rec *opRec) ([]byte, error) { return x.c.Get(rec.addr) }

func (x clientExec) put(rec *opRec, data []byte) error { return x.c.Put(rec.addr, data) }

// roundTrip is one traced client.Transport round trip.
type roundTrip struct {
	start, end int64
	ops        int32
}

// tracedTransport wraps the client's transport and, while on, records
// each round trip into a buffer allocated before the phase. Round trips
// past the buffer's end are counted, not recorded.
type tracedTransport struct {
	inner client.Transport
	clk   *clock
	on    atomic.Bool
	trips []roundTrip
	n     atomic.Int64
	errs  atomic.Int64
}

func (t *tracedTransport) RoundTrip(ctx context.Context, ops []client.BatchOp) ([]client.OpResult, error) {
	if !t.on.Load() {
		return t.inner.RoundTrip(ctx, ops)
	}
	start := t.clk.now()
	res, err := t.inner.RoundTrip(ctx, ops)
	end := t.clk.now()
	if err != nil {
		t.errs.Add(1)
	}
	if i := t.n.Add(1) - 1; i < int64(len(t.trips)) {
		t.trips[i] = roundTrip{start: start, end: end, ops: int32(len(ops))}
	}
	return res, err
}

func (t *tracedTransport) Close() error { return t.inner.Close() }

// start arms the transport with room for capacity round trips.
func (t *tracedTransport) start(capacity int) {
	t.trips = make([]roundTrip, capacity)
	t.n.Store(0)
	t.errs.Store(0)
	t.on.Store(true)
}

// stop disarms the transport and returns the recorded round trips.
func (t *tracedTransport) stop() []roundTrip {
	t.on.Store(false)
	return t.trips[:min(t.n.Load(), int64(len(t.trips)))]
}

// allocatedBytes is the disk space a file occupies, which for the sparse
// page files is far less than their size.
func allocatedBytes(info os.FileInfo) int64 {
	if st, ok := info.Sys().(*syscall.Stat_t); ok {
		return st.Blocks * 512
	}
	return info.Size()
}
