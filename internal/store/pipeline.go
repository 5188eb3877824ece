package store

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"freecursive"
)

// This file is the store's asynchronous per-shard pipeline. Each shard is
// owned by exactly one goroutine — the goroutine IS the serialization, so
// the single-controller contract of freecursive.ORAM holds with no mutex
// on the access path. Callers feed the owner through a bounded queue and
// get a Future back; the blocking Get/Put/Batch* API is a thin layer over
// SubmitGet/SubmitPut.
//
// The owner drains the queue in windows of up to coalesceWindow requests.
// Within a window, duplicate-address reads coalesce: the first read pays
// the physical ORAM access, later reads of the same address fan out the
// same value without touching the tree (a write to the address in between
// invalidates the window cache, preserving read-your-writes). This is the
// serving-layer analogue of the paper's PLB hit — a repeated address skips
// untrusted-memory traffic, and what the adversary learns is comparable to
// what any cache in front of an ORAM already reveals (§4.1): the store
// admits that *some* requests repeated, never which address they named.

// result is what a request resolves to.
type result struct {
	data []byte
	err  error
}

// Future is the pending outcome of a SubmitGet or SubmitPut. Wait blocks
// until the shard's owner goroutine resolves it; it may be called any
// number of times and from any goroutine, and always returns the same
// values.
type Future struct {
	ch   chan result
	once sync.Once
	res  result
}

// Wait blocks until the request completes and returns its result: the
// block's (previous) contents for gets and puts respectively, or an error.
func (f *Future) Wait() ([]byte, error) {
	f.once.Do(func() { f.res = <-f.ch })
	return f.res.data, f.res.err
}

// newFuture returns an unresolved future.
func newFuture() *Future { return &Future{ch: make(chan result, 1)} }

// resolvedFuture returns a future that already carries its result —
// validation failures and fast-failed requests never visit a queue.
func resolvedFuture(data []byte, err error) *Future {
	f := newFuture()
	f.ch <- result{data: data, err: err}
	return f
}

// resolve completes the future. Each request is resolved exactly once, by
// the shard owner; the buffered channel makes it non-blocking.
func (f *Future) resolve(data []byte, err error) {
	f.ch <- result{data: data, err: err}
}

// request is one unit of work in a shard's queue: a data operation
// (read or write) carrying its future, or a control operation — a closure
// the owner runs with exclusive access to the ORAM. Control operations
// (stats, snapshots) execute even on a quarantined shard.
type request struct {
	write bool
	inner uint64 // in-shard address
	data  []byte // write payload; nil for reads
	fut   *Future
	fn    func(*freecursive.ORAM) // control operation; nil for data ops
}

// shard pairs one ORAM instance with the goroutine that owns it.
type shard struct {
	oram *freecursive.ORAM

	reqs chan request
	done chan struct{} // closed when the owner goroutine has exited

	// mu serializes submits against shutdown: senders hold it shared while
	// enqueueing, shutdown holds it exclusively to seal the queue. The
	// owner goroutine never takes it, so a full queue cannot deadlock.
	mu     sync.RWMutex
	closed bool

	health    health
	window    int // max requests coalesced per drain window
	enqueued  atomic.Uint64
	coalesced atomic.Uint64

	// finalStats is the ORAM's last counter snapshot, written by the owner
	// goroutine just before it exits (happens-before close(done)), so
	// ShardStats keeps working on a closed store.
	finalStats freecursive.Stats
}

func newShard(o *freecursive.ORAM, queueDepth, window int) *shard {
	sh := &shard{
		oram:   o,
		reqs:   make(chan request, queueDepth),
		done:   make(chan struct{}),
		window: window,
	}
	go sh.run()
	return sh
}

// submit enqueues a data request and returns its future. Quarantined
// shards fail fast without a queue round-trip; requests already queued
// when the quarantine latched are failed by the owner in order.
func (sh *shard) submit(req request) *Future {
	if sh.health.State() == StateQuarantined {
		return resolvedFuture(nil, sh.health.err())
	}
	req.fut = newFuture()
	if !sh.enqueue(req) {
		return resolvedFuture(nil, errClosed())
	}
	sh.enqueued.Add(1)
	return req.fut
}

// control enqueues fn to run on the owner goroutine with exclusive ORAM
// access. It reports false if the shard is already closed (fn will never
// run).
func (sh *shard) control(fn func(*freecursive.ORAM)) bool {
	return sh.enqueue(request{fn: fn})
}

// enqueue performs the guarded send. The send may block on a full queue;
// that is the pipeline's backpressure, and it is safe because the owner
// drains continuously and never takes sh.mu.
func (sh *shard) enqueue(req request) bool {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sh.closed {
		return false
	}
	sh.reqs <- req
	return true
}

// shutdown seals the queue: no new requests are accepted, the owner
// finishes the ones already queued and exits. Idempotent.
func (sh *shard) shutdown() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return
	}
	sh.closed = true
	sh.health.drain()
	close(sh.reqs)
}

// run is the owner goroutine: it drains the queue in windows and serves
// each window with read coalescing. Between windows, while the queue is
// empty and the backend has deamortized maintenance queued (bucket-hash
// rebuild work), the owner runs bounded maintenance quanta — requests
// always preempt at quantum granularity, so rebuilds drain off the
// request path without ever blocking it. The owner yields the processor
// after each quantum: it never blocks while maintenance is pending, so
// with as many busy shards as processors nothing else (submitters, the
// transport) would run until the scheduler preempted one, up to 10 ms
// later.
func (sh *shard) run() {
	batch := make([]request, 0, sh.window)
	cache := make(map[uint64][]byte, sh.window)
	for {
		var req request
		var ok bool
		if sh.maintainPending() {
			select {
			case req, ok = <-sh.reqs:
			default:
				sh.maintainStep()
				runtime.Gosched()
				continue
			}
		} else {
			req, ok = <-sh.reqs
		}
		if !ok {
			break
		}
		batch = append(batch[:0], req)
		// Opportunistically drain whatever else is already queued, up to
		// the coalescing window, without blocking.
	fill:
		for len(batch) < sh.window {
			select {
			case more, open := <-sh.reqs:
				if !open {
					sh.process(batch, cache)
					sh.exit()
					return
				}
				batch = append(batch, more)
			default:
				break fill
			}
		}
		sh.process(batch, cache)
	}
	sh.exit()
}

// exit records the final counters and signals completion. Runs exactly
// once, after the queue is drained.
func (sh *shard) exit() {
	sh.finalStats = sh.oram.Stats()
	close(sh.done)
}

// process serves one drained window in arrival order. cache maps an
// in-shard address to the value already read for it within this window;
// it is cleared between windows so a resolved caller's view can never go
// stale across them.
func (sh *shard) process(batch []request, cache map[uint64][]byte) {
	clear(cache)
	for _, req := range batch {
		switch {
		case req.fn != nil:
			req.fn(sh.oram)
			// A control op has exclusive ORAM access and may mutate state
			// (snapshot restore hooks, test tampering); later reads in the
			// window must not be served from before it ran.
			clear(cache)
		case sh.health.State() == StateQuarantined:
			req.fut.resolve(nil, sh.health.err())
		case req.write:
			prev, err := sh.oram.Write(req.inner, req.data)
			if err != nil {
				err = sh.noteError(err)
			}
			// The block changed; later reads in this window must pay a
			// real access (or coalesce among themselves afresh).
			delete(cache, req.inner)
			req.fut.resolve(prev, err)
		default:
			if v, hit := cache[req.inner]; hit {
				sh.coalesced.Add(1)
				req.fut.resolve(bytes.Clone(v), nil)
				continue
			}
			v, err := sh.oram.Read(req.inner)
			if err != nil {
				req.fut.resolve(nil, sh.noteError(err))
				continue
			}
			//oramlint:allow bufferown ORAM.Read returns a caller-owned copy per the Frontend contract, not backend scratch; the window cache holds it deliberately
			cache[req.inner] = v
			// Every waiter gets its own copy; the cached slice stays
			// canonical for the rest of the window.
			req.fut.resolve(bytes.Clone(v), nil)
		}
	}
}

// maintainPending reports whether the owner should spend idle time on
// backend maintenance. A quarantined shard does no maintenance — its
// trusted state may have diverged from untrusted memory, and maintenance
// performs untrusted I/O.
func (sh *shard) maintainPending() bool {
	return sh.health.State() != StateQuarantined && sh.oram.MaintainPending()
}

// maintainStep runs one inline maintenance quantum. A maintenance fault is
// a storage fault like any other: it quarantines the shard via noteError.
func (sh *shard) maintainStep() {
	if _, err := sh.oram.Maintain(0); err != nil {
		sh.noteError(err)
	}
}

// noteError inspects an ORAM error: an integrity violation or an untrusted-
// memory I/O fault quarantines the shard (fail-stop, matching the
// controller's own latch) and is rewrapped so callers see both
// ErrQuarantined and the cause; anything else passes through as an
// ordinary internal error.
//
// Storage faults quarantine for the same reason integrity violations do:
// after a failed page-file write or a bucketd connection lost with
// write-backs in flight, the controller's trusted state and remote memory
// may have diverged unverifiably, and a shard that kept retrying would
// wedge every caller behind its queue. Quarantine keeps the failure to one
// slice of the address space — every other shard keeps serving.
func (sh *shard) noteError(err error) error {
	if errors.Is(err, freecursive.ErrIntegrity) || errors.Is(err, freecursive.ErrStorage) {
		sh.health.quarantine(err)
		return sh.health.err()
	}
	return err
}

// stats returns a counter snapshot serialized through the owner goroutine,
// falling back to the final snapshot once the shard has closed.
func (sh *shard) stats() freecursive.Stats {
	ch := make(chan freecursive.Stats, 1)
	if !sh.control(func(o *freecursive.ORAM) { ch <- o.Stats() }) {
		<-sh.done
		return sh.finalStats
	}
	return <-ch
}

func errClosed() error { return fmt.Errorf("store: %w", ErrClosed) }
