package main

import (
	"bytes"
	"math/rand/v2"
	"testing"
	"time"

	"freecursive/internal/backend"
	"freecursive/internal/core"
	"freecursive/internal/mem"
	"freecursive/internal/tree"
)

// TestShardStackIsCoreBuild checks that the timed shard stack is the
// program core.Build makes: on one op sequence, with equal Params, both
// return the same values and end with identical counters, for both
// backends. The peak cache occupancy (StashMax, StashOverflow) is left
// out: the bucket-hash backend's depends on Go map iteration order, so two
// core.Build instances differ there too.
func TestShardStackIsCoreBuild(t *testing.T) {
	for _, kind := range core.BackendKinds() {
		t.Run(kind, func(t *testing.T) {
			p := stackParams(kind, 1<<14, 11)
			// A small on-chip PosMap, PLB and counter width, and one hot
			// block, so recursion, PLB misses and group remaps all happen
			// within a short sequence.
			p.OnChipBudgetBytes = 1 << 9
			p.PLBCapacityBytes = 1 << 10
			p.BetaBits = 7
			sys, err := core.Build(p)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			tr := newTracer(&clock{base: time.Now()}, 1<<20)
			stack, err := newShardStack(p, func(tree.Geometry) (mem.Backend, error) { return mem.NewStore(), nil }, tr)
			if err != nil {
				t.Fatal(err)
			}
			defer stack.close()
			if sys.H < 2 {
				t.Fatalf("recursion depth %d: the sequence would not touch PosMap blocks", sys.H)
			}

			rng := rand.New(rand.NewPCG(5, 5))
			buf := make([]byte, p.DataBytes)
			for i := range 6000 {
				addr := rng.Uint64N(p.NBlocks)
				if rng.IntN(5) == 0 {
					addr = 0
				}
				write := rng.IntN(2) == 0
				var data []byte
				if write {
					fillPayload(buf, addr, uint64(i)+1)
					data = buf
				}
				want, err1 := sys.Frontend.Access(addr, write, data)
				got, err2 := stack.access(addr, write, data)
				if err1 != nil || err2 != nil {
					t.Fatalf("op %d: core.Build %v, shard stack %v", i, err1, err2)
				}
				if !bytes.Equal(want, got) {
					t.Fatalf("op %d: values differ", i)
				}
				if i%64 == 63 {
					for range 4 {
						p1, err1 := sys.Maintain(0)
						p2, err2 := stack.be.Maintain(0)
						if err1 != nil || err2 != nil || p1 != p2 {
							t.Fatalf("op %d: Maintain (%v, %v) vs (%v, %v)", i, p1, err1, p2, err2)
						}
					}
				}
			}
			want, got := *sys.Counters, *stack.ctr
			want.StashMax, want.StashOverflow = 0, 0
			got.StashMax, got.StashOverflow = 0, 0
			if want != got {
				t.Fatalf("counters differ:\ncore.Build  %+v\nshard stack %+v", want, got)
			}
			c := stack.ctr
			if c.PLBHits == 0 || c.PLBMisses == 0 || c.GroupRemap == 0 || c.PosMapBytes == 0 || c.MACChecks == 0 {
				t.Fatalf("sequence did not exercise the frontend: %+v", *c)
			}
			if kind == core.BackendBucketHash && (c.Rebuilds == 0 || c.RebuildSteps == 0) {
				t.Fatalf("sequence did not exercise rebuilds: %+v", *c)
			}
		})
	}
}

// TestWrappersKeepCapabilities checks that the timing wrappers still offer
// batched path I/O and maintenance, and that the backend above them uses
// the batched calls. A wrapper that dropped them would silently measure
// serial I/O.
func TestWrappersKeepCapabilities(t *testing.T) {
	var m mem.Backend = &timedMem{Backend: mem.NewStore()}
	if _, ok := m.(mem.PathReader); !ok {
		t.Error("timedMem is not a mem.PathReader")
	}
	if _, ok := m.(mem.PathWriter); !ok {
		t.Error("timedMem is not a mem.PathWriter")
	}
	for _, kind := range core.BackendKinds() {
		tr := newTracer(&clock{base: time.Now()}, 1<<16)
		stack, err := newShardStack(stackParams(kind, 1<<12, 3), func(tree.Geometry) (mem.Backend, error) { return mem.NewStore(), nil }, tr)
		if err != nil {
			t.Fatal(err)
		}
		var be backend.Backend = stack.be
		if _, ok := be.(backend.Maintainer); !ok {
			t.Errorf("%s: timedBackend is not a backend.Maintainer", kind)
		}
		for i := range uint64(2000) {
			if _, err := stack.access(i%(1<<12), true, []byte{1}); err != nil {
				t.Fatal(err)
			}
		}
		st := spanStats(tr.spans[:tr.n])
		if st.count(layerMem, kindReadPath) == 0 || st.count(layerMem, kindWritePath) == 0 {
			t.Errorf("%s: no batched path I/O through the wrapper", kind)
		}
		if kind == core.BackendPath && (st.count(layerMem, kindRead) > 0 || st.count(layerMem, kindWrite) > 0) {
			t.Errorf("%s: bucket-at-a-time I/O through the wrapper", kind)
		}
		stack.close()
	}
}
