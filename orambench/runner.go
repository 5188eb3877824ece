package main

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// clock reads monotonic nanoseconds since the run's base instant. Every
// timestamp the benchmark records is on this clock.
type clock struct {
	base time.Time
	sl   *sleeper // nil: pace with time.Sleep
}

func (c *clock) now() int64 { return int64(time.Since(c.base)) }

// waitUntil blocks until the clock reaches due and returns the time it
// woke.
func (c *clock) waitUntil(due int64) int64 {
	for {
		now := c.now()
		if now >= due {
			return now
		}
		c.sl.sleep(time.Duration(due - now))
	}
}

// opRec is one generated operation and what happened to it. A write's
// sequence number is its index in the run's record slice plus one, and is
// what its payload carries.
type opRec struct {
	due       int64 // scheduled send time
	issued    int64 // call into the program began
	submitted int64 // store submit returned (traced store runs only)
	done      int64 // call returned
	addr      uint64
	got       uint64 // reads: sequence number read back (0: never written)
	write     bool
	launched  bool // false: dropped by an aborted capacity probe
	failed    bool // the call returned an error
	bad       bool // the read returned bytes no write produced
}

// executor issues one operation into the program and blocks until it
// completes. Implementations are safe for concurrent use.
type executor interface {
	get(rec *opRec) ([]byte, error)
	put(rec *opRec, data []byte) error
}

// runner is the open-loop generator: operations are launched at their
// scheduled times whatever the program's state, each on its own
// goroutine, and latency is counted from the scheduled time.
type runner struct {
	clk        *clock
	exec       executor
	gen        *generator
	blockBytes int
	recs       []opRec
	lag        []int64 // pacer lateness per launched op
	inflight   atomic.Int64
}

// phase is one stretch of the schedule at one offered rate.
type phase struct {
	first, end int   // recs[first:end]
	start      int64 // instant the schedule's clock started
	stop       int64 // instant the last operation completed
	aborted    bool  // the in-flight cap was hit; later ops were not sent
	// backlog is the median number of operations in flight at the
	// checkpoints 6/10, 7/10, ... 10/10 of the way through the sends. A
	// backlog that grows shows at every checkpoint; one stall in the
	// program, at only one or two.
	backlog float64
}

// run sends a Poisson stream at rate for dur and waits for every launched
// operation. With maxInflight > 0 it stops sending once that many
// operations are outstanding: a capacity probe that far over its backlog
// bound has failed, and sending more would only grow memory.
func (r *runner) run(rate float64, dur time.Duration, maxInflight int64) phase {
	ph := phase{first: len(r.recs)}
	for t := 0.0; ; {
		o := r.gen.next()
		t += o.Gap / rate
		if t >= dur.Seconds() {
			break
		}
		r.recs = append(r.recs, opRec{due: int64(t * 1e9), addr: o.Addr, write: o.Write})
	}
	ph.end = len(r.recs)
	r.lag = append(r.lag, make([]int64, ph.end-ph.first)...)
	ph.start = r.clk.now() + int64(time.Millisecond)
	for i := ph.first; i < ph.end; i++ {
		r.recs[i].due += ph.start
	}
	var wg sync.WaitGroup
	n, next := ph.end-ph.first, 6
	var inflight []float64
	for i := ph.first; i < ph.end; i++ {
		rec := &r.recs[i]
		now := r.clk.waitUntil(rec.due)
		if maxInflight > 0 && r.inflight.Load() >= maxInflight {
			ph.aborted = true
			break
		}
		r.lag[i] = now - rec.due
		rec.launched = true
		r.inflight.Add(1)
		wg.Add(1)
		go func(seq uint64) {
			defer wg.Done()
			r.do(rec, seq)
		}(uint64(i) + 1)
		for ; next <= 10 && (i-ph.first+1)*10 >= n*next; next++ {
			inflight = append(inflight, float64(r.inflight.Load()))
		}
	}
	if len(inflight) == 0 {
		inflight = append(inflight, float64(r.inflight.Load()))
	}
	ph.backlog = median(inflight)
	wg.Wait()
	ph.stop = r.clk.now()
	return ph
}

func (r *runner) do(rec *opRec, seq uint64) {
	defer r.inflight.Add(-1)
	if rec.write {
		data := make([]byte, r.blockBytes)
		fillPayload(data, rec.addr, seq)
		rec.issued = r.clk.now()
		err := r.exec.put(rec, data)
		rec.done = r.clk.now()
		rec.failed = err != nil
		return
	}
	rec.issued = r.clk.now()
	data, err := r.exec.get(rec)
	rec.done = r.clk.now()
	if err != nil {
		rec.failed = true
		return
	}
	var ok bool
	rec.got, ok = decodePayload(data, rec.addr, r.blockBytes)
	rec.bad = !ok
}

// opTimeout is the latency past which a completed operation counts as
// failed (timed out).
const opTimeout = 10 * time.Second

// phaseStats summarizes a phase's launched operations.
type phaseStats struct {
	attempted, failed int
	lat               []float64 // ms from due time, sorted; failures are +Inf
	lagMs             []float64 // pacer lateness, sorted
	throughput        float64   // completed ops per second of the phase
}

func (r *runner) stats(ph phase) phaseStats {
	var s phaseStats
	for i := ph.first; i < ph.end; i++ {
		rec := &r.recs[i]
		if !rec.launched {
			continue
		}
		s.attempted++
		d := rec.done - rec.due
		if rec.failed || d > int64(opTimeout) {
			s.failed++
			s.lat = append(s.lat, math.Inf(1))
		} else {
			s.lat = append(s.lat, float64(d)/1e6)
		}
		s.lagMs = append(s.lagMs, float64(r.lag[i])/1e6)
	}
	slices.Sort(s.lat)
	slices.Sort(s.lagMs)
	if el := ph.stop - ph.start; el > 0 {
		s.throughput = float64(s.attempted-s.failed) / (float64(el) / 1e9)
	}
	return s
}

// latWindow is the length of the windows windowQuantile splits a phase
// into.
const latWindow = 500 * time.Millisecond

// windowQuantiles returns, for each consecutive latWindow window of a
// phase's schedule, the window's q-quantile latency in ms (failures count
// as +Inf). Reporting the median over windows means a short burst of
// interference on the shared machine moves one window, not the result.
func (r *runner) windowQuantiles(ph phase, q float64) []float64 {
	var per, lat []float64
	flush := func() {
		if len(lat) > 0 {
			slices.Sort(lat)
			per = append(per, quantile(lat, q))
			lat = lat[:0]
		}
	}
	end := ph.start + int64(latWindow)
	for i := ph.first; i < ph.end; i++ {
		rec := &r.recs[i]
		if !rec.launched {
			continue
		}
		for rec.due >= end {
			flush()
			end += int64(latWindow)
		}
		if d := rec.done - rec.due; rec.failed || d > int64(opTimeout) {
			lat = append(lat, math.Inf(1))
		} else {
			lat = append(lat, float64(d)/1e6)
		}
	}
	flush()
	return per
}

// quantile returns the nearest-rank q-quantile of sorted values (0 when
// empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
