package main

import (
	"encoding/binary"
	"math/rand/v2"
)

// mix is the SplitMix64 finalizer. It derives independent streams from the
// run seed and fills payload bodies.
func mix(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// genConfig shapes a workload's operation stream.
type genConfig struct {
	Blocks    uint64  // address space [0, Blocks)
	WriteFrac float64 // share of operations that are writes
	ZipfS     float64 // 0: uniform addresses; > 1: Zipf exponent over ranks
}

// op is one generated operation. Gap is a unit-mean exponential draw; the
// runner divides it by the offered rate, so one seeded stream serves every
// rate of the ladder with Poisson arrivals.
type op struct {
	Gap   float64
	Write bool
	Addr  uint64
}

// generator is the seeded open-loop operation source. The program under
// test only ever sees the operations it yields.
type generator struct {
	cfg  genConfig
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newGenerator(cfg genConfig, seed uint64) *generator {
	rng := rand.New(rand.NewPCG(seed, mix(seed)))
	g := &generator{cfg: cfg, rng: rng}
	if cfg.ZipfS > 0 {
		// Rank r is drawn with probability proportional to (1+r)^-s and
		// used directly as the address: the store's address hash spreads
		// the hot ranks over its shards.
		g.zipf = rand.NewZipf(rng, cfg.ZipfS, 1, cfg.Blocks-1)
	}
	return g
}

func (g *generator) next() op {
	o := op{Gap: g.rng.ExpFloat64(), Write: g.rng.Float64() < g.cfg.WriteFrac}
	if g.zipf != nil {
		o.Addr = g.zipf.Uint64()
	} else {
		o.Addr = g.rng.Uint64N(g.cfg.Blocks)
	}
	return o
}

// payloadHeader is the (address, sequence) prefix every written block
// carries; the rest of the block is a keyed fill, so a torn or misplaced
// block cannot pass for a valid one.
const payloadHeader = 16

// fillPayload writes the block for write number seq (>= 1) to addr.
func fillPayload(dst []byte, addr, seq uint64) {
	binary.LittleEndian.PutUint64(dst[0:], addr)
	binary.LittleEndian.PutUint64(dst[8:], seq)
	x := mix(addr ^ mix(seq))
	for i := payloadHeader; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], x)
		x = mix(x)
	}
}

// decodePayload returns the write sequence number a block read from addr
// carries: 0 for a never-written (all-zero) block. ok is false when the
// block is not exactly a payload fillPayload wrote for addr.
func decodePayload(b []byte, addr uint64, blockBytes int) (seq uint64, ok bool) {
	if len(b) != blockBytes {
		return 0, false
	}
	seq = binary.LittleEndian.Uint64(b[8:])
	if seq == 0 {
		for _, c := range b {
			if c != 0 {
				return 0, false
			}
		}
		return 0, true
	}
	if binary.LittleEndian.Uint64(b[0:]) != addr {
		return 0, false
	}
	x := mix(addr ^ mix(seq))
	for i := payloadHeader; i+8 <= len(b); i += 8 {
		if binary.LittleEndian.Uint64(b[i:]) != x {
			return 0, false
		}
		x = mix(x)
	}
	return seq, true
}
