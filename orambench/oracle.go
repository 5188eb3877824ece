package main

import (
	"cmp"
	"fmt"
	"slices"
)

// verify checks every completed read in recs against the write history,
// using only real-time order. A read must return a write to its own
// address that was issued before the read completed, and must not return
// a value older than a write acknowledged before the read was issued:
// returning write s is stale when some write w to the address was
// acknowledged before the read began and s was itself acknowledged before
// w began. A never-written (zero) block is stale once any write to the
// address was acknowledged before the read began. Writes that failed may
// or may not have landed, so they are never proof of staleness.
//
// It returns the number of wrong reads and a description of the first.
// The description names operations by index only, never by address.
func verify(recs []opRec) (wrong int, first string) {
	acked := make(map[uint64][]int32) // addr -> acknowledged writes
	for i := range recs {
		w := &recs[i]
		if w.write && w.launched && !w.failed {
			acked[w.addr] = append(acked[w.addr], int32(i))
		}
	}
	// Per address: writes sorted by acknowledgement time, with the running
	// maximum of their issue times.
	type ackIndex struct {
		done, maxIssued []int64
	}
	index := make(map[uint64]ackIndex, len(acked))
	for addr, ws := range acked {
		slices.SortFunc(ws, func(a, b int32) int {
			return cmp.Compare(recs[a].done, recs[b].done)
		})
		ix := ackIndex{done: make([]int64, len(ws)), maxIssued: make([]int64, len(ws))}
		var m int64
		for j, w := range ws {
			ix.done[j] = recs[w].done
			m = max(m, recs[w].issued)
			ix.maxIssued[j] = m
		}
		index[addr] = ix
	}
	fail := func(i int, why string) {
		wrong++
		if wrong == 1 {
			first = fmt.Sprintf("op %d: %s", i, why)
		}
	}
	for i := range recs {
		r := &recs[i]
		if r.write || !r.launched || r.failed {
			continue
		}
		if r.bad {
			fail(i, "read returned a block no write produced")
			continue
		}
		ix := index[r.addr]
		// n acknowledged writes completed before the read was issued.
		n, _ := slices.BinarySearch(ix.done, r.issued)
		if r.got == 0 {
			if n > 0 {
				fail(i, "read a never-written block after a write was acknowledged")
			}
			continue
		}
		s := int(r.got - 1)
		if s >= len(recs) || !recs[s].write || recs[s].addr != r.addr || !recs[s].launched {
			fail(i, "read a sequence number no write to this block carried")
			continue
		}
		if recs[s].issued > r.done {
			fail(i, "read a write issued after the read completed")
			continue
		}
		if n > 0 && !recs[s].failed && recs[s].done < ix.maxIssued[n-1] {
			fail(i, "read a value older than an acknowledged write")
		}
	}
	return wrong, first
}
