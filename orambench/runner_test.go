package main

import (
	"sync"
	"testing"
	"time"
)

// stallExec is a one-at-a-time server that stalls once, for stall, on the
// first operation it serves at or after stallAt.
type stallExec struct {
	clk      *clock
	stallAt  int64
	stall    time.Duration
	mu       sync.Mutex
	stalled  bool
	stallEnd int64
}

func (x *stallExec) serve() {
	x.mu.Lock()
	defer x.mu.Unlock()
	if !x.stalled && x.clk.now() >= x.stallAt {
		x.stalled = true
		time.Sleep(x.stall)
		x.stallEnd = x.clk.now()
	}
}

func (x *stallExec) get(*opRec) ([]byte, error) {
	x.serve()
	return make([]byte, blockBytes), nil
}

func (x *stallExec) put(*opRec, []byte) error {
	x.serve()
	return nil
}

// TestOpenLoopCountsStalls checks the generator against coordinated
// omission: while the program stalls, arrivals keep their schedule, and
// every operation due during the stall carries the rest of the stall in
// its latency.
func TestOpenLoopCountsStalls(t *testing.T) {
	clk := &clock{base: time.Now(), sl: newSleeper()}
	defer clk.sl.close()
	const rate, stall = 2000.0, 50 * time.Millisecond
	x := &stallExec{clk: clk, stallAt: clk.now() + int64(100*time.Millisecond), stall: stall}
	r := &runner{clk: clk, exec: x, gen: newGenerator(genConfig{Blocks: 64}, 3), blockBytes: blockBytes}
	ph := r.run(rate, 400*time.Millisecond, 0)
	if !x.stalled {
		t.Fatal("the executor never stalled")
	}
	stallStart := x.stallEnd - int64(stall)
	during := 0
	for i := ph.first; i < ph.end; i++ {
		rec := &r.recs[i]
		if !rec.launched {
			t.Fatalf("op %d was not sent", i)
		}
		if late := rec.issued - rec.due; late > int64(10*time.Millisecond) {
			t.Errorf("op %d sent %v late: the stall held back arrivals", i, time.Duration(late))
		}
		if rec.due > stallStart && rec.due < x.stallEnd-int64(time.Millisecond) {
			during++
			if rec.done < x.stallEnd {
				t.Errorf("op %d due during the stall completed before it ended", i)
			}
			if lat, rest := rec.done-rec.due, x.stallEnd-rec.due; lat < rest {
				t.Errorf("op %d latency %v < remaining stall %v", i, time.Duration(lat), time.Duration(rest))
			}
		}
	}
	if want := int(rate * stall.Seconds() / 2); during < want {
		t.Errorf("%d ops due during the stall, want at least %d", during, want)
	}
}

// slowExec serves one operation at a time, each taking per.
type slowExec struct {
	per time.Duration
	mu  sync.Mutex
}

func (x *slowExec) get(*opRec) ([]byte, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	time.Sleep(x.per)
	return make([]byte, blockBytes), nil
}

func (x *slowExec) put(*opRec, []byte) error {
	_, err := x.get(nil)
	return err
}

// TestBacklog checks the capacity probe's backlog: one stall just before
// sending ends leaves many operations in flight at the end, but does not
// make the backlog large, while a program slower than the offered rate
// does.
func TestBacklog(t *testing.T) {
	clk := &clock{base: time.Now(), sl: newSleeper()}
	defer clk.sl.close()
	const rate, dur = 2000.0, 400 * time.Millisecond

	x := &stallExec{clk: clk, stallAt: clk.now() + int64(dur) - int64(30*time.Millisecond), stall: 50 * time.Millisecond}
	r := &runner{clk: clk, exec: x, gen: newGenerator(genConfig{Blocks: 64}, 5), blockBytes: blockBytes}
	ph := r.run(rate, dur, 0)
	if !x.stalled {
		t.Fatal("the executor never stalled")
	}
	if ph.backlog > 10 {
		t.Errorf("backlog %v after one stall at the end, want at most 10", ph.backlog)
	}

	r = &runner{clk: clk, exec: &slowExec{per: time.Millisecond}, gen: newGenerator(genConfig{Blocks: 64}, 5), blockBytes: blockBytes}
	ph = r.run(rate, dur, 0)
	// Served at most 1000/s against 2000/s offered, the backlog at 8/10 of
	// the sends is at least a third of them.
	if want := rate * dur.Seconds() / 3; ph.backlog < want {
		t.Errorf("backlog %v from a program at half the offered rate, want at least %v", ph.backlog, want)
	}
}

func TestVerify(t *testing.T) {
	// Op i writes sequence number i+1. Times are arbitrary clock units.
	w := func(addr uint64, issued, done int64) opRec {
		return opRec{write: true, launched: true, addr: addr, issued: issued, done: done}
	}
	rd := func(addr, got uint64, issued, done int64) opRec {
		return opRec{launched: true, addr: addr, got: got, issued: issued, done: done}
	}
	history := []opRec{
		w(5, 10, 20),                         // seq 1
		w(5, 25, 40),                         // seq 2
		w(6, 10, 20),                         // seq 3
		rd(5, 1, 30, 35),                     // fine: write 2 not acknowledged yet
		rd(5, 2, 30, 35),                     // fine: write 2 in flight
		rd(6, 3, 30, 35),                     // fine
		rd(7, 0, 30, 35),                     // fine: never written
		rd(5, 2, 45, 50),                     // fine
		rd(5, 1, 45, 50),                     // stale: write 2 acknowledged at 40
		rd(5, 0, 30, 35),                     // stale: write 1 acknowledged at 20
		rd(5, 3, 30, 35),                     // write 3 went to another block
		rd(5, 9, 30, 35),                     // no such write
		rd(6, 3, 12, 15),                     // fine: write 3 issued before the read completed
		rd(5, 2, 12, 15),                     // write 2 issued after the read completed
		{launched: true, addr: 5, bad: true}, // garbage block
	}
	wrong, first := verify(history)
	if wrong != 6 {
		t.Fatalf("verify found %d wrong reads, want 6 (first: %s)", wrong, first)
	}
}
