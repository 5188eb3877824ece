package main

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"time"

	"freecursive/internal/backend"
	"freecursive/internal/backend/bhoram"
	"freecursive/internal/core"
	"freecursive/internal/crypt"
	"freecursive/internal/mem"
	"freecursive/internal/posmap"
	"freecursive/internal/stats"
	"freecursive/internal/tree"
)

// Layers and span kinds of the shard stack's trace.
const (
	layerCore uint8 = iota
	layerBackend
	layerBhoram
	layerMem
	numLayers
)

const (
	kindAccess uint8 = iota
	kindData
	kindPosMap
	kindMaintain
	kindRead
	kindWrite
	kindReadPath
	kindWritePath
)

// span is one timed call across a layer boundary of the shard stack.
type span struct {
	start, end  int64
	parent      int32 // index of the enclosing span, -1 at the top
	layer, kind uint8
	buckets     uint32 // bucket operations a mem span performed
}

// maxDepth bounds span nesting: core -> backend -> mem, or bhoram -> mem.
const maxDepth = 8

// tracer records the shard stack's spans into a buffer allocated before
// the run. The stack is driven by one goroutine, so the tracer is
// single-threaded; spans past the buffer's end are counted and dropped.
type tracer struct {
	clk     *clock
	spans   []span
	n       int
	open    [maxDepth]int32
	depth   int
	dropped int
}

func newTracer(clk *clock, capacity int) *tracer {
	return &tracer{clk: clk, spans: make([]span, capacity)}
}

func (t *tracer) begin(layer, kind uint8, buckets int) int32 {
	parent := int32(-1)
	if t.depth > 0 {
		parent = t.open[t.depth-1]
	}
	i := int32(-1)
	if t.n < len(t.spans) && t.depth < maxDepth {
		i = int32(t.n)
		t.n++
		t.spans[i] = span{start: t.clk.now(), parent: parent, layer: layer, kind: kind, buckets: uint32(buckets)}
	} else {
		t.dropped++
	}
	if t.depth < maxDepth {
		t.open[t.depth] = i
	}
	t.depth++
	return i
}

func (t *tracer) end(i int32) {
	t.depth--
	if i >= 0 {
		t.spans[i].end = t.clk.now()
	}
}

// timedMem times every call into the untrusted memory. It implements
// mem.PathReader and mem.PathWriter, so the backend above keeps its
// batched path I/O. Every memory the benchmark wraps (mem.Store,
// mem.FileStore, mem.Remote) reads paths in one call; only mem.Remote
// writes them in one, so the others are written bucket by bucket, as the
// backend itself would.
type timedMem struct {
	mem.Backend
	tr *tracer
}

func (m *timedMem) Read(idx uint64) ([]byte, error) {
	s := m.tr.begin(layerMem, kindRead, 1)
	data, err := m.Backend.Read(idx)
	m.tr.end(s)
	return data, err
}

func (m *timedMem) Write(idx uint64, data []byte) error {
	s := m.tr.begin(layerMem, kindWrite, 1)
	err := m.Backend.Write(idx, data)
	m.tr.end(s)
	return err
}

func (m *timedMem) ReadPath(idxs []uint64, out [][]byte) error {
	s := m.tr.begin(layerMem, kindReadPath, len(idxs))
	err := m.Backend.(mem.PathReader).ReadPath(idxs, out)
	m.tr.end(s)
	return err
}

func (m *timedMem) WritePath(idxs []uint64, data [][]byte) error {
	s := m.tr.begin(layerMem, kindWritePath, len(idxs))
	err := m.writePath(idxs, data)
	m.tr.end(s)
	return err
}

func (m *timedMem) writePath(idxs []uint64, data [][]byte) error {
	if pw, ok := m.Backend.(mem.PathWriter); ok {
		return pw.WritePath(idxs, data)
	}
	for i, idx := range idxs {
		if err := m.Backend.Write(idx, data[i]); err != nil {
			return err
		}
	}
	return nil
}

// timedBackend times every backend access, split by whether it moves a
// PosMap block, and every maintenance quantum. It implements
// backend.Maintainer whatever the wrapped backend supports; a backend
// without maintenance never has any pending.
type timedBackend struct {
	backend.Backend
	tr *tracer
}

func (b *timedBackend) Access(req backend.Request) (backend.Result, error) {
	kind := kindData
	if req.PosMap {
		kind = kindPosMap
	}
	s := b.tr.begin(layerBackend, kind, 0)
	res, err := b.Backend.Access(req)
	b.tr.end(s)
	return res, err
}

func (b *timedBackend) Maintain(budget int) (bool, error) {
	m, ok := b.Backend.(backend.Maintainer)
	if !ok {
		return false, nil
	}
	s := b.tr.begin(layerBhoram, kindMaintain, 0)
	pending, err := m.Maintain(budget)
	b.tr.end(s)
	return pending, err
}

func (b *timedBackend) MaintainPending() bool {
	m, ok := b.Backend.(backend.Maintainer)
	return ok && m.MaintainPending()
}

var (
	_ mem.PathReader     = (*timedMem)(nil)
	_ mem.PathWriter     = (*timedMem)(nil)
	_ backend.Maintainer = (*timedBackend)(nil)
)

// memOpener builds one tree's untrusted memory for the geometry the
// backend needs.
type memOpener func(g tree.Geometry) (mem.Backend, error)

// shardStack is one shard's ORAM, assembled from the same constructors
// core.Build uses, with a timing wrapper at each layer boundary: the
// frontend's Access, the backend's Access and Maintain, and every call
// into untrusted memory. store.Store hides its ORAMs; this is how the
// layers below it are measured.
type shardStack struct {
	fe  *core.PLBFrontend
	be  *timedBackend
	ctr *stats.Counters
	tr  *tracer
}

// deriveKey mirrors core.Build's per-purpose key derivation, so a stack
// built with the same Params makes the same PRF outputs, leaves and
// bucket choices as core.Build.
func deriveKey(seed uint64, purpose byte) []byte {
	k := make([]byte, 16)
	binary.BigEndian.PutUint64(k, seed)
	k[8] = purpose
	k[9] = ^purpose
	k[15] = 0x5a
	return k
}

// newShardStack builds the PIC configuration core.Build makes for p, over
// memory from open. p must have every field core.Build would default set
// explicitly.
func newShardStack(p core.Params, open memOpener, tr *tracer) (*shardStack, error) {
	if p.Scheme != core.SchemePIC || !p.Functional || p.EncScheme != crypt.SeedGlobal {
		return nil, fmt.Errorf("shard stack: only functional PIC with global seeds is built")
	}
	x, err := p.X()
	if err != nil {
		return nil, err
	}
	ctr := &stats.Counters{}
	rng := rand.New(rand.NewPCG(p.Seed, 0x0ca7))
	prf, err := crypt.NewPRF(deriveKey(p.Seed, 'P'))
	if err != nil {
		return nil, err
	}
	unified := tree.LevelsForCapacity(p.NBlocks, p.Z) + 1
	mac, err := crypt.NewMAC(deriveKey(p.Seed, 'M'), crypt.DefaultTagBytes)
	if err != nil {
		return nil, err
	}
	g, err := tree.NewGeometry(unified, p.Z, p.DataBytes+mac.TagBytes())
	if err != nil {
		return nil, err
	}
	ciph, err := crypt.NewBucketCipher(deriveKey(p.Seed, 'E'), p.EncScheme)
	if err != nil {
		return nil, err
	}
	m, err := open(g)
	if err != nil {
		return nil, err
	}
	tm := &timedMem{Backend: m, tr: tr}
	var inner backend.Backend
	switch p.Backend {
	case core.BackendPath:
		inner, err = backend.NewPathORAM(backend.Config{
			Geometry:      g,
			Store:         tm,
			Cipher:        ciph,
			StashCapacity: p.StashCap,
			Counters:      ctr,
		})
	case core.BackendBucketHash:
		var hash *crypt.PRF
		if hash, err = crypt.NewPRF(deriveKey(p.Seed, 'H')); err == nil {
			inner, err = bhoram.New(bhoram.Config{
				Geometry:      g,
				Store:         tm,
				Cipher:        ciph,
				Hash:          hash,
				CacheCapacity: p.StashCap,
				Counters:      ctr,
			})
		}
	default:
		err = fmt.Errorf("shard stack: unknown backend %q", p.Backend)
	}
	if err != nil {
		m.Close()
		return nil, err
	}
	be := &timedBackend{Backend: inner, tr: tr}
	format, err := posmap.NewCompressedFormat(x, p.BetaBits, prf, unified)
	if err != nil {
		be.Close()
		return nil, err
	}
	fe, err := core.NewPLB(core.PLBConfig{
		Backend:          be,
		NBlocks:          p.NBlocks,
		DataBytes:        p.DataBytes,
		Format:           format,
		LogX:             uint(bits.TrailingZeros(uint(x))),
		MaxOnChipEntries: max(uint64(p.OnChipBudgetBytes)*8/64, 1),
		H:                p.HOverride,
		PLBCapacityBytes: p.PLBCapacityBytes,
		PLBWays:          p.PLBWays,
		MAC:              mac,
		Rand:             rng,
		PRF:              prf,
		Counters:         ctr,
	})
	if err != nil {
		be.Close()
		return nil, err
	}
	return &shardStack{fe: fe, be: be, ctr: ctr, tr: tr}, nil
}

// access runs one frontend access inside a core span.
func (s *shardStack) access(addr uint64, write bool, data []byte) ([]byte, error) {
	sp := s.tr.begin(layerCore, kindAccess, 0)
	out, err := s.fe.Access(addr, write, data)
	s.tr.end(sp)
	return out, err
}

func (s *shardStack) close() error { return s.be.Close() }

// stackParams is the shard configuration store.New gives each shard of a
// workload's store, with core.Build's defaults spelled out.
func stackParams(backendKind string, blocks, seed uint64) core.Params {
	return core.Params{
		Scheme:            core.SchemePIC,
		Backend:           backendKind,
		NBlocks:           blocks,
		DataBytes:         64,
		Z:                 4,
		StashCap:          200,
		BetaBits:          14,
		PosMapBlkB:        32,
		OnChipBudgetBytes: 128 << 10,
		PLBCapacityBytes:  64 << 10,
		PLBWays:           1,
		Functional:        true,
		EncScheme:         crypt.SeedGlobal,
		Seed:              seed,
	}
}

// replayOp is one shard's share of a traced phase, with its due time
// relative to the phase start.
type replayOp struct {
	due   int64
	addr  uint64 // address within the shard
	seq   uint64 // writes: payload sequence number
	write bool
}

// replay serves ops on one owner goroutine at their scheduled times, as a
// store shard does: requests are taken in arrival order, and while none
// is waiting and the backend has maintenance queued, the owner runs one
// maintenance quantum at a time. Every read is checked against the exact
// sequential value. It returns the number of wrong reads.
func (s *shardStack) replay(clk *clock, ops []replayOp, blockBytes int) (wrong int, err error) {
	queue := make(chan int, len(ops)) // sized to the whole schedule: the pacer never blocks
	errc := make(chan error, 1)
	wrongc := make(chan int, 1)
	go func() {
		last := make(map[uint64]uint64)
		buf := make([]byte, blockBytes)
		bad := 0
		var ferr error
		for {
			var i int
			var ok bool
			select {
			case i, ok = <-queue:
			default:
				if ferr == nil && s.be.MaintainPending() {
					if _, err := s.be.Maintain(0); err != nil {
						ferr = err
					}
					continue
				}
				i, ok = <-queue
			}
			if !ok {
				break
			}
			if ferr != nil {
				continue
			}
			o := ops[i]
			if o.write {
				fillPayload(buf, o.addr, o.seq)
				if _, err := s.access(o.addr, true, buf); err != nil {
					ferr = err
				}
				last[o.addr] = o.seq
				continue
			}
			data, err := s.access(o.addr, false, nil)
			if err != nil {
				ferr = err
				continue
			}
			if got, ok := decodePayload(data, o.addr, blockBytes); !ok || got != last[o.addr] {
				bad++
			}
		}
		wrongc <- bad
		errc <- ferr
	}()
	start := clk.now() + int64(time.Millisecond)
	for i := range ops {
		clk.waitUntil(start + ops[i].due)
		queue <- i
	}
	close(queue)
	return <-wrongc, <-errc
}
