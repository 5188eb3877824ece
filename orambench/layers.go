package main

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"freecursive"
	"freecursive/internal/core"
	"freecursive/internal/httpapi"
	"freecursive/internal/store"
)

// fibMix is the store's address-permutation multiplier: the top bits of
// addr*fibMix mod Blocks pick the shard, the low bits the address within
// it. The shard stack uses it to replay one shard's share of the stream
// at the addresses that shard sees.
const fibMix = 0x9E3779B97F4A7C15

// sampleEvery is how often the traced phase samples queue lengths and
// in-flight batches.
const sampleEvery = 2 * time.Millisecond

// productTrace collects the product-path counters around a traced phase:
// store and ORAM counters, shard queues, frame-server and bucketd traffic.
type productTrace struct {
	e                  *env
	stats0, stats1     freecursive.Stats
	infos0, infos1     []store.ShardInfo
	ts0, ts1           httpapi.TransportStats
	frames0, frames1   uint64
	buckets0, buckets1 uint64

	queueSum, inflightSum float64
	samples               int
	stopc, done           chan struct{}
}

func startProductTrace(e *env) *productTrace {
	t := &productTrace{e: e, stopc: make(chan struct{}), done: make(chan struct{})}
	t.stats0, t.infos0 = e.st.Stats(), e.st.ShardInfos()
	if e.fs != nil {
		t.ts0 = e.fs.TransportStats()
	}
	if e.bd != nil {
		t.frames0, t.buckets0 = e.bd.FramesServed(), e.bdBucket.Load()
	}
	go t.sample()
	return t
}

func (t *productTrace) sample() {
	defer close(t.done)
	tick := time.NewTicker(sampleEvery)
	defer tick.Stop()
	for {
		select {
		case <-t.stopc:
			return
		case <-tick.C:
		}
		for _, in := range t.e.st.ShardInfos() {
			t.queueSum += float64(in.QueueLen)
		}
		if t.e.fs != nil {
			t.inflightSum += float64(t.e.fs.TransportStats().InFlight)
		}
		t.samples++
	}
}

func (t *productTrace) stop() {
	close(t.stopc)
	<-t.done
	e := t.e
	t.stats1, t.infos1 = e.st.Stats(), e.st.ShardInfos()
	if e.fs != nil {
		t.ts1 = e.fs.TransportStats()
	}
	if e.bd != nil {
		t.frames1, t.buckets1 = e.bd.FramesServed(), e.bdBucket.Load()
	}
}

// runTraced measures the rated rate twice, untraced and then traced, and
// replays one shard's share of the traced phase through a shard stack
// timed at every layer boundary. On a workload with the bucket-hash
// backend it then runs the two-shard probe.
func runTraced(w *workload, e *env, r *runner, seed uint64, dataRoot string, total time.Duration, rep *report) error {
	un := r.stats(r.run(w.rated, total*30/100, 0))

	expected := int(w.rated*(total*30/100).Seconds()*1.5) + 1024
	if e.tt != nil {
		e.tt.start(expected)
	}
	pt := startProductTrace(e)
	ph := r.run(w.rated, total*30/100, 0)
	pt.stop()
	var trips []roundTrip
	if e.tt != nil {
		trips = e.tt.stop()
	}
	tr := r.stats(ph)

	// One shard's share of the traced phase, at the addresses and times
	// that shard saw it.
	perShard := e.st.Blocks() / uint64(e.st.Shards())
	var ops []replayOp
	for i := ph.first; i < ph.end; i++ {
		rec := &r.recs[i]
		if !rec.launched || e.st.ShardOf(rec.addr) != 0 {
			continue
		}
		ops = append(ops, replayOp{
			due:   rec.due - ph.start,
			addr:  (rec.addr * fibMix) & (perShard - 1),
			seq:   uint64(i) + 1,
			write: rec.write,
		})
	}
	p := stackParams(w.backend, perShard, seed)
	open, err := e.stackMem(w.backend, p.StashCap)
	if err != nil {
		return err
	}
	spans := newTracer(r.clk, len(ops)*24+1<<18)
	stack, err := newShardStack(p, open, spans)
	if err != nil {
		return fmt.Errorf("shard stack: %w", err)
	}
	wrong, err := stack.replay(r.clk, ops, blockBytes)
	if cerr := stack.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("shard stack replay: %w", err)
	}
	if wrong > 0 {
		return fmt.Errorf("shard stack replay: %d reads returned a wrong value", wrong)
	}
	st := spanStats(spans.spans[:spans.n])

	completed := tr.attempted - tr.failed
	perOp := func(v uint64) float64 { return float64(v) / float64(max(completed, 1)) }

	// harness: the validity of every end-to-end number.
	rep.add("harness.send_lag_p99_ms", quantile(un.lagMs, 0.99), "ms", len(un.lagMs))
	rep.add("harness.samples", float64(len(un.lat)), "count", len(un.lat))
	rep.add("harness.lat_p99_ms", quantile(un.lat, 0.99), "ms", len(un.lat))
	rep.add("harness.lat_p999_ms", quantile(un.lat, 0.999), "ms", len(un.lat))
	rep.add("harness.trace_overhead_frac",
		quantile(tr.lat, 0.5)/quantile(un.lat, 0.5)-1, "1", len(tr.lat))
	rep.show("harness.lat_p99_beyond", float64(countAbove(un.lat, 0.99)), "count", len(un.lat))
	rep.show("harness.lat_p999_beyond", float64(countAbove(un.lat, 0.999)), "count", len(un.lat))
	rep.show("harness.spans_dropped", float64(spans.dropped), "count", spans.n)

	// client and frameserver: the served workload's transport.
	var calls, waits, clientSelf, linkedRT []float64
	var tripMs []float64
	tripOps := 0
	if e.tt != nil {
		slices.SortFunc(trips, func(a, b roundTrip) int { return cmp.Compare(a.end, b.end) })
		for _, t := range trips {
			tripMs = append(tripMs, float64(t.end-t.start)/1e6)
			tripOps += int(t.ops)
		}
		slices.Sort(tripMs)
		for i := ph.first; i < ph.end; i++ {
			rec := &r.recs[i]
			if !rec.launched || rec.failed {
				continue
			}
			call := float64(rec.done-rec.issued) / 1e3
			calls = append(calls, call/1e3)
			if t, ok := batchOf(trips, rec); ok {
				rt := float64(t.end-t.start) / 1e3
				waits = append(waits, float64(t.start-rec.issued)/1e6)
				clientSelf = append(clientSelf, call-rt)
				linkedRT = append(linkedRT, rt)
			}
		}
		slices.Sort(calls)
		slices.Sort(waits)
	}
	coreAccessUs := st.inclusiveMeanUs(layerCore)
	rep.add("client.call_p50_ms", quantile(calls, 0.5), "ms", len(calls))
	rep.add("client.batch_wait_p50_ms", quantile(waits, 0.5), "ms", len(waits))
	rep.add("client.ops_per_roundtrip", float64(tripOps)/float64(max(len(trips), 1)), "ops", len(trips))
	retries := int64(0)
	if e.tt != nil {
		retries = e.tt.errs.Load()
	}
	rep.add("client.retries_per_kop", 1000*perOp(uint64(retries)), "1/kop", completed)
	rep.add("client.self_us_mean", mean(clientSelf), "us", len(clientSelf))
	rep.add("frameserver.roundtrip_p50_ms", quantile(tripMs, 0.5), "ms", len(tripMs))
	rep.add("frameserver.roundtrip_p90_ms", quantile(tripMs, 0.9), "ms", len(tripMs))
	rep.add("frameserver.wire_bytes_per_op",
		perOp(pt.ts1.BytesRead+pt.ts1.BytesWritten-pt.ts0.BytesRead-pt.ts0.BytesWritten), "B", completed)
	rep.add("frameserver.inflight_mean", pt.inflightSum/float64(max(pt.samples, 1)), "batches", pt.samples)
	fsSelf := 0.0
	if len(linkedRT) > 0 {
		fsSelf = mean(linkedRT) - coreAccessUs
	}
	rep.add("frameserver.self_us_mean", fsSelf, "us", len(linkedRT))

	// store: shard queues and the coalescing window.
	var storeCalls, submitBlock []float64
	if e.tt == nil {
		for i := ph.first; i < ph.end; i++ {
			rec := &r.recs[i]
			if !rec.launched || rec.failed {
				continue
			}
			storeCalls = append(storeCalls, float64(rec.done-rec.issued)/1e6)
			submitBlock = append(submitBlock, float64(rec.submitted-rec.issued)/1e6)
		}
		slices.Sort(storeCalls)
		slices.Sort(submitBlock)
	}
	var enq []float64
	var coalesced uint64
	for i := range pt.infos1 {
		enq = append(enq, float64(pt.infos1[i].Enqueued-pt.infos0[i].Enqueued))
		coalesced += pt.infos1[i].CoalescedReads - pt.infos0[i].CoalescedReads
	}
	storeOverhead := 0.0
	if len(storeCalls) > 0 {
		storeOverhead = mean(storeCalls)*1e3 - coreAccessUs
	}
	rep.add("store.call_p50_ms", quantile(storeCalls, 0.5), "ms", len(storeCalls))
	rep.add("store.submit_block_p99_ms", quantile(submitBlock, 0.99), "ms", len(submitBlock))
	rep.add("store.queue_len_mean",
		pt.queueSum/float64(max(pt.samples*len(pt.infos1), 1)), "ops", pt.samples)
	rep.add("store.shard_skew", slices.Max(enq)/max(mean(enq), 1), "1", len(enq))
	rep.add("store.overhead_us_mean", storeOverhead, "us", len(storeCalls))
	rep.add("store.coalesced_frac", perOp(coalesced), "1", completed)

	// core, backend, bhoram, mem: product-path counters, plus the shard
	// stack's spans.
	d := func(f func(s freecursive.Stats) uint64) uint64 { return f(pt.stats1) - f(pt.stats0) }
	moved := d(func(s freecursive.Stats) uint64 { return s.BytesMoved })
	rep.add("core.plb_hit_rate", pt.stats1.PLBHitRate, "1", int(pt.stats1.Accesses))
	rep.add("core.backend_accesses_per_op", perOp(d(func(s freecursive.Stats) uint64 { return s.BackendAccesses })), "1", completed)
	rep.add("core.posmap_bytes_frac",
		float64(d(func(s freecursive.Stats) uint64 { return s.PosMapBytes }))/float64(max(moved, 1)), "1", completed)
	rep.add("core.group_remaps_per_kop", 1000*perOp(d(func(s freecursive.Stats) uint64 { return s.GroupRemaps })), "1/kop", completed)
	rep.add("core.access_us_p50", st.p50Us(layerCore, kindAccess), "us", st.count(layerCore, kindAccess))
	rep.add("core.self_us_mean", st.selfPerAccessUs(layerCore), "us", st.accesses)
	rep.add("backend.data_access_us_p50", st.p50Us(layerBackend, kindData), "us", st.count(layerBackend, kindData))
	rep.add("backend.posmap_access_us_p50", st.p50Us(layerBackend, kindPosMap), "us", st.count(layerBackend, kindPosMap))
	rep.add("backend.self_us_mean", st.selfPerAccessUs(layerBackend), "us", st.accesses)
	rep.add("backend.stash_max", float64(pt.stats1.StashMax), "blocks", 1)
	rep.add("bhoram.rebuild_steps_per_op", perOp(d(func(s freecursive.Stats) uint64 { return s.RebuildSteps })), "1", completed)
	rep.add("bhoram.rebuilds", float64(d(func(s freecursive.Stats) uint64 { return s.Rebuilds })), "count", 1)
	rep.add("bhoram.maintain_us_per_op", st.inclusivePerAccessUs(layerBhoram), "us", st.count(layerBhoram, kindMaintain))
	rep.add("mem.read_path_us_p50", st.p50Us(layerMem, kindReadPath), "us", st.count(layerMem, kindReadPath))
	rep.add("mem.write_path_us_p50", st.p50Us(layerMem, kindWritePath), "us", st.count(layerMem, kindWritePath))
	rep.add("mem.bucket_ops_per_op", float64(st.buckets)/float64(max(st.accesses, 1)), "1", st.accesses)
	rep.add("mem.self_us_mean", st.selfPerAccessUs(layerMem), "us", st.accesses)
	rep.add("bucketd.frames_per_op", perOp(pt.frames1-pt.frames0), "1", completed)
	rep.add("bucketd.bucket_ops_per_op", perOp(pt.buckets1-pt.buckets0), "1", completed)

	// The breakdown the workloads were chosen to show: time per client
	// operation spent in each layer itself.
	layers := []layerTime{
		{"client+frameserver", mean(clientSelf) + fsSelf},
		{"store", storeOverhead},
		{"core", st.selfPerAccessUs(layerCore)},
		{"backend", st.selfPerAccessUs(layerBackend)},
		{"bhoram", st.selfPerAccessUs(layerBhoram)},
		{"mem", st.selfPerAccessUs(layerMem)},
	}
	largest := slices.MaxFunc(layers, func(a, b layerTime) int { return cmp.Compare(a.us, b.us) })
	for _, l := range layers {
		rep.show("breakdown."+l.name+"_us_per_op", l.us, "us", completed)
	}
	rep.lines = append(rep.lines, "  largest layer: "+largest.name)

	var two phaseStats
	if w.backend == core.BackendBucketHash {
		if two, err = twoShardProbe(w, seed, dataRoot, r.clk, total*20/100); err != nil {
			return err
		}
	}
	rep.add("store.two_shard_lat_p99_ms", quantile(two.lat, 0.99), "ms", len(two.lat))
	rep.add("store.two_shard_send_lag_p99_ms", quantile(two.lagMs, 0.99), "ms", len(two.lagMs))
	return nil
}

// twoShardRate is the offered rate of the two-shard probe, in ops/s: three
// times durable-bhoram's rated rate, enough rebuild work that both shards
// have maintenance queued at once.
const twoShardRate = 3000

// twoShardProbe offers w's traffic at twoShardRate for dur to a second
// store like w's but with two shards and 2^18 blocks, the sizing w gave
// up: there, while both shards run the bucket-hash backend's maintenance
// quanta back to back on the two processors, no other goroutine runs
// until the scheduler preempts one (README.md, Findings). Its p99 latency
// and pacer lateness are where that shows, and where a fix should.
func twoShardProbe(w *workload, seed uint64, dataRoot string, clk *clock, dur time.Duration) (phaseStats, error) {
	w2 := *w
	w2.shards, w2.gen.Blocks = 2, blocks
	e2, err := open(&w2, seed, dataRoot, clk)
	if err != nil {
		return phaseStats{}, err
	}
	r2 := &runner{clk: clk, exec: e2.exec, gen: newGenerator(w2.gen, seed+2), blockBytes: blockBytes}
	s := r2.stats(r2.run(twoShardRate, dur, 0))
	if err := e2.close(); err != nil {
		return s, err
	}
	if wrong, first := verify(r2.recs); wrong > 0 {
		return s, fmt.Errorf("two-shard probe: %d reads returned a wrong value, first %s", wrong, first)
	}
	if s.failed > 0 {
		return s, fmt.Errorf("two-shard probe: %d of %d operations failed", s.failed, s.attempted)
	}
	return s, nil
}

// layerTime is one layer's own time per client operation.
type layerTime struct {
	name string
	us   float64
}

// batchOf finds the round trip that carried rec: the latest one to end
// before the call returned that began after the call did. trips is sorted
// by end time.
func batchOf(trips []roundTrip, rec *opRec) (roundTrip, bool) {
	j := sort.Search(len(trips), func(k int) bool { return trips[k].end > rec.done })
	for k := j - 1; k >= 0 && k >= j-8; k-- {
		if trips[k].start >= rec.issued {
			return trips[k], true
		}
	}
	return roundTrip{}, false
}

// countAbove is how many samples lie beyond the q-quantile.
func countAbove(sorted []float64, q float64) int {
	v := quantile(sorted, q)
	n := 0
	for _, x := range sorted {
		if x > v {
			n++
		}
	}
	return n
}

// traceStats is the shard stack's spans reduced per layer and kind.
type traceStats struct {
	self, inclusive [numLayers]float64 // ns
	durs            map[[2]uint8][]float64
	accesses        int // frontend accesses: the per-op denominator
	buckets         uint64
}

func spanStats(spans []span) *traceStats {
	st := &traceStats{durs: make(map[[2]uint8][]float64)}
	for _, s := range spans {
		d := float64(s.end - s.start)
		st.self[s.layer] += d
		st.inclusive[s.layer] += d
		if s.parent >= 0 {
			st.self[spans[s.parent].layer] -= d
		}
		k := [2]uint8{s.layer, s.kind}
		st.durs[k] = append(st.durs[k], d)
		st.buckets += uint64(s.buckets)
		if s.layer == layerCore {
			st.accesses++
		}
	}
	for _, v := range st.durs {
		slices.Sort(v)
	}
	return st
}

func (st *traceStats) p50Us(layer, kind uint8) float64 {
	return quantile(st.durs[[2]uint8{layer, kind}], 0.5) / 1e3
}

func (st *traceStats) count(layer, kind uint8) int { return len(st.durs[[2]uint8{layer, kind}]) }

func (st *traceStats) selfPerAccessUs(layer uint8) float64 {
	return st.self[layer] / float64(max(st.accesses, 1)) / 1e3
}

func (st *traceStats) inclusivePerAccessUs(layer uint8) float64 {
	return st.inclusive[layer] / float64(max(st.accesses, 1)) / 1e3
}

// inclusiveMeanUs is the mean duration of one span of the layer.
func (st *traceStats) inclusiveMeanUs(layer uint8) float64 {
	n := 0
	for k, v := range st.durs {
		if k[0] == layer {
			n += len(v)
		}
	}
	return st.inclusive[layer] / float64(max(n, 1)) / 1e3
}
