package main

import (
	"math"
	"testing"
)

func TestSameSeedSameStream(t *testing.T) {
	cfg := genConfig{Blocks: 1 << 18, WriteFrac: 0.1, ZipfS: 1.2}
	a, b, c := newGenerator(cfg, 7), newGenerator(cfg, 7), newGenerator(cfg, 8)
	differ := false
	for i := 0; i < 10000; i++ {
		x, y, z := a.next(), b.next(), c.next()
		if x != y {
			t.Fatalf("op %d: seed 7 gave %+v and %+v", i, x, y)
		}
		differ = differ || x != z
	}
	if !differ {
		t.Fatal("seeds 7 and 8 gave the same stream")
	}
}

func TestGeneratorConverges(t *testing.T) {
	const n = 400000
	for _, cfg := range []genConfig{
		{Blocks: 1 << 18, WriteFrac: 0.5},
		{Blocks: 1 << 18, WriteFrac: 0.1, ZipfS: 1.2},
		{Blocks: 1 << 16, WriteFrac: 0.9},
	} {
		g := newGenerator(cfg, 1)
		writes, hot, gaps := 0, 0, 0.0
		for range n {
			o := g.next()
			if o.Addr >= cfg.Blocks {
				t.Fatalf("%+v: address out of range", cfg)
			}
			if o.Write {
				writes++
			}
			if o.Addr == 0 {
				hot++
			}
			gaps += o.Gap
		}
		if got := float64(writes) / n; math.Abs(got-cfg.WriteFrac) > 0.005 {
			t.Errorf("%+v: write fraction %.4f", cfg, got)
		}
		if got := gaps / n; math.Abs(got-1) > 0.01 {
			t.Errorf("%+v: mean gap %.4f, want 1", cfg, got)
		}
		// The hottest key's share: 1/Σ(1+k)^-s under Zipf, 1/Blocks
		// under uniform addresses.
		want := 1 / float64(cfg.Blocks)
		if cfg.ZipfS > 0 {
			sum := 0.0
			for k := range cfg.Blocks {
				sum += math.Pow(float64(1+k), -cfg.ZipfS)
			}
			want = 1 / sum
		}
		got := float64(hot) / n
		tol := 0.03 * want
		if cfg.ZipfS == 0 {
			tol = 5 * math.Sqrt(want/n) // a handful of hits: allow sampling noise
		}
		if math.Abs(got-want) > tol {
			t.Errorf("%+v: hottest-key share %.6f, want %.6f", cfg, got, want)
		}
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	b := make([]byte, blockBytes)
	fillPayload(b, 42, 9)
	if seq, ok := decodePayload(b, 42, blockBytes); !ok || seq != 9 {
		t.Fatalf("decode = %d, %v", seq, ok)
	}
	if _, ok := decodePayload(b, 43, blockBytes); ok {
		t.Fatal("a block written for another address decoded")
	}
	b[40] ^= 1
	if _, ok := decodePayload(b, 42, blockBytes); ok {
		t.Fatal("a torn block decoded")
	}
	if seq, ok := decodePayload(make([]byte, blockBytes), 42, blockBytes); !ok || seq != 0 {
		t.Fatal("zero block is not the never-written value")
	}
}
