// Command orambench is the repository's benchmark: an open-loop, seeded
// load generator that drives the real serving stack (store, frame server,
// bucketd, page files) on one of four workloads, checks every value it
// reads back, and prints the end-to-end metrics, or with -trace 1 the
// per-layer breakdown. See README.md for the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash orambench/run.sh --workload local-uniform --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"

	"freecursive/internal/store"
)

// After an end-to-end run the stack is set up setupBursts·setupsPerBurst
// more times, in bursts setupPause apart, to report the median of every
// set-up.
const (
	setupBursts    = 8
	setupsPerBurst = 12
	setupPause     = 100 * time.Millisecond
)

// readBackSamples is how many acknowledged writes the durable workload
// reads back after Resume.
const readBackSamples = 2000

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: local-uniform, served-zipf, remote-rtt or durable-bhoram")
	seed := flag.Uint64("seed", 1, "seed for the operation stream and the ORAM")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.Parse()
	w := workloadByName(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "orambench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	res, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "orambench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "orambench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// runWorkload sets the workload's stack up, drives it, checks every value
// read, and returns the run's metrics.
func runWorkload(w *workload, seed uint64, total time.Duration, traced bool) (*result, error) {
	clk := &clock{base: time.Now(), sl: newSleeper()}
	defer clk.sl.close()
	dataRoot := filepath.Join(".bench_build", "orambench-data")
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		return nil, err
	}
	t0 := time.Now()
	e, err := open(w, seed, dataRoot, clk)
	if err != nil {
		return nil, err
	}
	setupS := []float64{time.Since(t0).Seconds()}
	defer e.close()

	defer startTicker()()
	r := &runner{clk: clk, exec: e.exec, gen: newGenerator(w.gen, seed), blockBytes: blockBytes}
	// Warm-up: dial connections, fill the PLB and the top of the trees.
	r.run(w.rated, total*5/100, 0)

	rep := newReport()
	if traced {
		err = runTraced(w, e, r, seed, dataRoot, total, rep)
	} else {
		err = runEndToEnd(w, e, r, total, rep)
		if err == nil {
			var more []float64
			more, err = timeSetups(w, seed+1, dataRoot, clk)
			setupS = append(setupS, more...)
			rep.add("setup_s", median(setupS), "s", len(setupS))
		}
	}
	if err != nil {
		return nil, err
	}

	if w.mem == memFile {
		if err := e.reopen(clk); err != nil {
			return nil, err
		}
		r.exec = e.exec
		r.readBack(seed, readBackSamples)
	}
	res := &result{Metrics: rep.metrics}
	for i := range r.recs {
		rec := &r.recs[i]
		if !rec.launched {
			continue
		}
		res.Attempted++
		if rec.failed || rec.done-rec.due > int64(opTimeout) {
			res.Failed++
		}
	}
	wrong, first := verify(r.recs)
	res.Correct = wrong == 0
	if wrong > 0 {
		fmt.Printf("WRONG VALUES: %d reads, first %s\n", wrong, first)
	}
	failedFrac := float64(res.Failed) / float64(max(res.Attempted, 1))
	diskMB := float64(e.diskBytes()) / 1e6
	if traced {
		rep.add("harness.failed_frac", failedFrac, "1", res.Attempted)
		rep.add("mem.disk_mb", diskMB, "MB", 1)
	} else {
		// failed_frac and disk_mb are end-to-end numbers a user sees, but
		// either can be 0, so the JSON carries them as the failed count
		// and in the traced run; the table shows them here.
		rep.show("failed_frac", failedFrac, "1", res.Attempted)
		rep.show("disk_mb", diskMB, "MB", 1)
	}
	rep.print(w.name, traced)
	return res, nil
}

// timeSetups sets w's stack up and tears it down again, in bursts, and
// returns how long each set-up took. Each burst first returns the heap to
// the OS, so every set-up takes its memory from the OS, as the first one
// in a new process does, rather than from whatever the scavenger happens
// to have kept; bursts are spread out so the median reflects the set-up
// work rather than one moment when the machine was slow.
func timeSetups(w *workload, seed uint64, dataRoot string, clk *clock) ([]float64, error) {
	var out []float64
	for range setupBursts {
		debug.FreeOSMemory()
		for range setupsPerBurst {
			t0 := time.Now()
			e, err := open(w, seed, dataRoot, clk)
			if err != nil {
				return out, err
			}
			out = append(out, time.Since(t0).Seconds())
			if err := e.close(); err != nil {
				return out, err
			}
		}
		time.Sleep(setupPause)
	}
	return out, nil
}

// runEndToEnd measures latency and bandwidth at the workload's rated rate,
// then capacity on its ladder, with tracing off. The rated phase runs
// first, so the work done before mem_mb is read does not depend on how
// the capacity search went. Before each capacity probe the store drains
// the rebuild work the last one left, so a probe starts from an idle
// store.
func runEndToEnd(w *workload, e *env, r *runner, total time.Duration, rep *report) error {
	before := e.st.Stats()
	ph := r.run(w.rated, total*45/100, 0)
	after := e.st.Stats()
	memMB := peakRSSMB()
	s := r.stats(ph)
	completed := s.attempted - s.failed

	// Bisection takes steps probes, then up to a retry and a further
	// bisection above it; the budget allows for steps+2.
	ladder := w.ladder()
	steps := bits.Len(uint(len(ladder)))
	capacity := r.capacity(ladder, total*45/100/time.Duration(steps+2), w.limitMs, func() { settle(e.st) })

	rep.add("capacity_ops_s", capacity, "ops/s", steps)
	rep.add("lat_p50_ms", median(r.windowQuantiles(ph, 0.5)), "ms", len(s.lat))
	rep.add("lat_p90_ms", median(r.windowQuantiles(ph, 0.9)), "ms", len(s.lat))
	rep.add("bytes_per_op", float64(after.BytesMoved-before.BytesMoved)/float64(max(completed, 1)), "B", completed)
	rep.add("mem_mb", memMB, "MB", 1)
	rep.show("send_lag_p99_ms", quantile(s.lagMs, 0.99), "ms", len(s.lagMs))
	return nil
}

// capacity finds, by bisection over the ladder, the highest rung that
// passes: p90 latency (failures counting as missing it) within limitMs,
// and no more operations outstanding through the last part of the sends
// (phase.backlog) than that latency allows at the rung's rate, so the
// backlog is not growing. The lowest failing rung gets one more probe
// after the bisection, seconds after its first, so a burst of
// interference on the shared machine does not decide the result; if it
// passes, the bisection resumes above it. It returns the highest
// throughput measured at a passing rung (a rung that passes only just,
// draining a long backlog, measures less than the one below it), or the
// throughput at the lowest rung if none passes. between runs after every
// probe.
func (r *runner) capacity(ladder []float64, probe time.Duration, limitMs float64, between func()) float64 {
	failed := make([]bool, len(ladder))
	lo, hi := -1, len(ladder)
	var best, lowest float64
	try := func(k int) bool {
		pass, thr := r.probe(ladder[k], probe, limitMs)
		between()
		if k == 0 {
			lowest = thr
		}
		if pass {
			lo, best = k, max(best, thr)
		} else {
			failed[k] = true
		}
		return pass
	}
	for retried := false; ; retried = true {
		for hi-lo > 1 {
			if mid := (lo + hi) / 2; !try(mid) {
				hi = mid
			}
		}
		if retried || hi == len(ladder) || !try(hi) {
			break
		}
		for hi = lo + 1; hi < len(ladder) && !failed[hi]; hi++ {
		}
	}
	if lo < 0 {
		return lowest
	}
	return best
}

// probe offers rate for dur and reports whether the rung passed and the
// throughput it measured.
func (r *runner) probe(rate float64, dur time.Duration, limitMs float64) (bool, float64) {
	allowed := rate * limitMs / 1000
	ph := r.run(rate, dur, int64(4*allowed)+64)
	s := r.stats(ph)
	pass := !ph.aborted && s.failed == 0 &&
		median(r.windowQuantiles(ph, 0.9)) <= limitMs && ph.backlog <= allowed+16
	return pass, s.throughput
}

// settle waits, for up to settleMax, until the store has no background
// maintenance running: until its rebuild-step count stops changing.
func settle(st *store.Store) {
	last := st.Stats().RebuildSteps
	for deadline := time.Now().Add(settleMax); time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
		n := st.Stats().RebuildSteps
		if n == last {
			return
		}
		last = n
	}
}

// settleMax bounds how long settle waits.
const settleMax = 2 * time.Second

// readBack reads a seeded sample of the blocks that acknowledged writes
// went to, one at a time after everything else has completed; verify then
// holds each to the newest acknowledged write.
func (r *runner) readBack(seed uint64, n int) {
	seen := make(map[uint64]bool)
	var addrs []uint64
	for i := range r.recs {
		rec := &r.recs[i]
		if rec.write && rec.launched && !rec.failed && !seen[rec.addr] {
			seen[rec.addr] = true
			addrs = append(addrs, rec.addr)
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0x7e57))
	rng.Shuffle(len(addrs), func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })
	addrs = addrs[:min(n, len(addrs))]
	first := len(r.recs)
	for _, a := range addrs {
		r.recs = append(r.recs, opRec{addr: a, launched: true})
	}
	for i := first; i < len(r.recs); i++ {
		rec := &r.recs[i]
		rec.due = r.clk.now()
		r.inflight.Add(1)
		r.do(rec, 0)
	}
}

// tickEvery bounds how long the Go scheduler can sit idle. An idle
// scheduler waits for its next timer in epoll with millisecond
// granularity, so a 1 ms sleep can last up to 2 ms; the stack's own timers
// (bucketd's injected round trip, the client's flush interval) would then
// fire at times that depend on how busy the process happens to be. On a
// shared VM an idle virtual CPU can also take milliseconds to wake, which
// at low offered rates would be measured instead of the program.
const tickEvery = 200 * time.Microsecond

// startTicker wakes the scheduler every tickEvery until the returned stop
// function is called; stop returns once the ticker has exited.
func startTicker() (stop func()) {
	sl := newSleeper()
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			default:
				sl.sleep(tickEvery)
			}
		}
	}()
	return func() {
		close(quit)
		<-done
		sl.close()
	}
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

// report collects a run's metrics for the JSON line and a human-readable
// table with sample counts.
type report struct {
	metrics map[string]metric
	lines   []string
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

// add records a metric for the JSON line and the table.
func (p *report) add(name string, v float64, unit string, samples int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	p.metrics[name] = metric{Value: v, Unit: unit}
	p.show(name, v, unit, samples)
}

// show records a line of the table only.
func (p *report) show(name string, v float64, unit string, samples int) {
	p.lines = append(p.lines, fmt.Sprintf("  %-34s %14.4f %-6s n=%d", name, v, unit, samples))
}

func (p *report) print(workload string, traced bool) {
	kind := "end-to-end"
	if traced {
		kind = "per-layer (traced)"
	}
	fmt.Printf("orambench %s: %s metrics\n", workload, kind)
	for _, l := range p.lines {
		fmt.Println(l)
	}
}
