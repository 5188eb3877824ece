package crypt

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func testKey(b byte) []byte {
	k := make([]byte, 16)
	for i := range k {
		k[i] = b + byte(i)
	}
	return k
}

func TestPRFKeyValidation(t *testing.T) {
	if _, err := NewPRF([]byte("short")); err == nil {
		t.Fatal("expected error for short key")
	}
	if _, err := NewPRF(testKey(1)); err != nil {
		t.Fatalf("valid key rejected: %v", err)
	}
}

func TestPRFDeterministic(t *testing.T) {
	p1, _ := NewPRF(testKey(1))
	p2, _ := NewPRF(testKey(1))
	for i := uint64(0); i < 100; i++ {
		if p1.Eval(i, i*3) != p2.Eval(i, i*3) {
			t.Fatalf("PRF not deterministic at %d", i)
		}
	}
}

func TestPRFKeySeparation(t *testing.T) {
	p1, _ := NewPRF(testKey(1))
	p2, _ := NewPRF(testKey(2))
	same := 0
	for i := uint64(0); i < 256; i++ {
		if p1.Eval(i, 0) == p2.Eval(i, 0) {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between different keys", same)
	}
}

// TestPRFLeafRange is the §5.2.1 requirement: leaves must be valid labels
// for a tree with 2^levels leaves, for every input.
func TestPRFLeafRange(t *testing.T) {
	p, _ := NewPRF(testKey(3))
	f := func(a, c uint64, lraw uint8) bool {
		levels := int(lraw % 64)
		leaf := p.Leaf(a, c, levels)
		if levels == 0 {
			return leaf == 0
		}
		return leaf < 1<<uint(levels)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPRFLeafUniform checks the low bits look balanced — the property the
// Path ORAM security argument rests on.
func TestPRFLeafUniform(t *testing.T) {
	p, _ := NewPRF(testKey(4))
	const n = 20000
	ones := 0
	for i := 0; i < n; i++ {
		ones += int(p.Leaf(uint64(i), 7, 20) & 1)
	}
	if ones < n*45/100 || ones > n*55/100 {
		t.Fatalf("leaf LSB biased: %d/%d ones", ones, n)
	}
}

func TestMACValidation(t *testing.T) {
	if _, err := NewMAC(nil, 16); err == nil {
		t.Fatal("empty key accepted")
	}
	if _, err := NewMAC(testKey(1), 4); err == nil {
		t.Fatal("tiny tag accepted")
	}
	if _, err := NewMAC(testKey(1), 64); err == nil {
		t.Fatal("oversized tag accepted")
	}
}

func TestMACRoundTrip(t *testing.T) {
	m, _ := NewMAC(testKey(5), 16)
	d := []byte("some block data")
	tag := m.Sum(9, 42, d)
	if len(tag) != 16 {
		t.Fatalf("tag length %d", len(tag))
	}
	if !m.Verify(tag, 9, 42, d) {
		t.Fatal("genuine tag rejected")
	}
}

// TestMACRejects covers every field PMMAC binds: counter, address, data,
// and the tag itself (§6.2.1: h = MAC_K(c||a||d)).
func TestMACRejects(t *testing.T) {
	m, _ := NewMAC(testKey(5), 16)
	d := []byte("some block data")
	tag := m.Sum(9, 42, d)

	if m.Verify(tag, 10, 42, d) {
		t.Error("accepted wrong counter (replay!)")
	}
	if m.Verify(tag, 9, 43, d) {
		t.Error("accepted wrong address")
	}
	d2 := bytes.Clone(d)
	d2[0] ^= 1
	if m.Verify(tag, 9, 42, d2) {
		t.Error("accepted tampered data")
	}
	tag2 := bytes.Clone(tag)
	tag2[5] ^= 0x80
	if m.Verify(tag2, 9, 42, d) {
		t.Error("accepted tampered tag")
	}
	if m.Verify(tag[:8], 9, 42, d) {
		t.Error("accepted truncated tag")
	}
}

func TestMACKeySeparation(t *testing.T) {
	m1, _ := NewMAC(testKey(1), 16)
	m2, _ := NewMAC(testKey(9), 16)
	tag := m1.Sum(1, 2, []byte("x"))
	if m2.Verify(tag, 1, 2, []byte("x")) {
		t.Fatal("tag verified under a different key")
	}
}

func TestBucketCipherRoundTrip(t *testing.T) {
	for _, scheme := range []SeedScheme{SeedPerBucket, SeedGlobal} {
		bc, err := NewBucketCipher(testKey(7), scheme)
		if err != nil {
			t.Fatal(err)
		}
		body := []byte("bucket contents with some slack....")
		sealed := bc.Seal(3, 0, body)
		got, seed, err := bc.Open(3, sealed)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("%v: roundtrip mismatch", scheme)
		}
		if seed == 0 {
			t.Fatalf("%v: zero seed on first seal", scheme)
		}
	}
}

// TestProbabilisticEncryption: resealing the same plaintext must give a
// different ciphertext (the §3.1 indistinguishability requirement).
func TestProbabilisticEncryption(t *testing.T) {
	for _, scheme := range []SeedScheme{SeedPerBucket, SeedGlobal} {
		bc, _ := NewBucketCipher(testKey(7), scheme)
		body := []byte("same plaintext body")
		c1 := bc.Seal(3, 0, body)
		_, seed1, _ := bc.Open(3, c1)
		c2 := bc.Seal(3, seed1, body)
		if bytes.Equal(c1[SeedBytes:], c2[SeedBytes:]) {
			t.Fatalf("%v: identical ciphertexts for same plaintext", scheme)
		}
	}
}

// TestSeedReplayPadReuse demonstrates the §6.4 attack surface: under
// SeedPerBucket, a replayed seed reuses the one-time pad; under SeedGlobal
// it cannot.
func TestSeedReplayPadReuse(t *testing.T) {
	xorLeak := func(scheme SeedScheme) bool {
		bc, _ := NewBucketCipher(testKey(7), scheme)
		d1 := []byte("AAAAAAAAAAAAAAAA")
		d2 := []byte("BBBBBBBBBBBBBBBB")
		c1 := bc.Seal(7, 0, d1)
		// Adversary makes the controller believe the previous seed was 0
		// again, so the per-bucket scheme re-derives the same pad.
		c2 := bc.Seal(7, 0, d2)
		for i := range d1 {
			if c1[SeedBytes+i]^c2[SeedBytes+i] != d1[i]^d2[i] {
				return false
			}
		}
		return true
	}
	if !xorLeak(SeedPerBucket) {
		t.Error("per-bucket scheme should exhibit pad reuse under seed replay")
	}
	if xorLeak(SeedGlobal) {
		t.Error("global-seed scheme must never reuse a pad")
	}
}

func TestOpenTooShort(t *testing.T) {
	bc, _ := NewBucketCipher(testKey(7), SeedGlobal)
	if _, _, err := bc.Open(0, []byte{1, 2, 3}); err == nil {
		t.Fatal("short ciphertext accepted")
	}
}

func TestGlobalSeedMonotonic(t *testing.T) {
	bc, _ := NewBucketCipher(testKey(7), SeedGlobal)
	prev := uint64(0)
	for i := 0; i < 50; i++ {
		sealed := bc.Seal(uint64(i%3), 12345, []byte("x")) // prevSeed ignored
		_, seed, _ := bc.Open(uint64(i%3), sealed)
		if seed <= prev {
			t.Fatalf("global seed not monotonic: %d after %d", seed, prev)
		}
		prev = seed
	}
}

// TestPadMatchesStdlibCTR pins the hand-rolled keystream loop to
// cipher.NewCTR's output byte for byte, for every scheme and for bodies that
// are shorter than, equal to, and longer than whole AES blocks. Sealed
// buckets written by earlier builds (durable page files) must keep
// decrypting, so this equivalence is part of the on-disk format.
func TestPadMatchesStdlibCTR(t *testing.T) {
	key := testKey(7)
	blk, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []SeedScheme{SeedPerBucket, SeedGlobal} {
		bc, _ := NewBucketCipher(key, scheme)
		for _, n := range []int{0, 1, 15, 16, 17, 31, 32, 388, 1000} {
			body := make([]byte, n)
			for i := range body {
				body[i] = byte(i*31 + n)
			}
			const bucketID, seed = 0x1234, 0x9999
			got := make([]byte, n)
			bc.pad(bucketID, seed, body, got)

			ivID := uint64(bucketID)
			if scheme == SeedGlobal {
				ivID = 0
			}
			var iv [16]byte
			putUint48(iv[0:6], ivID)
			putUint48(iv[6:12], seed)
			want := make([]byte, n)
			cipher.NewCTR(blk, iv[:]).XORKeyStream(want, body)

			if !bytes.Equal(got, want) {
				t.Fatalf("%v n=%d: pad diverges from stdlib CTR", scheme, n)
			}
		}
	}
}

// padGeneric runs pad through the one-block-at-a-time loop whatever the
// CPU, so tests can compare it with the kernel pad dispatches to.
func padGeneric(bc *BucketCipher, bucketID, seed uint64, body, out []byte) {
	bc.setIV(bucketID, seed)
	bc.xorGeneric(body, out)
}

// stdlibPad is the reference keystream: cipher.NewCTR under the IV layout
// bucketID (48 bits) || seed (48 bits) || counter (32 bits), built here
// from shifts and masks rather than through setIV.
func stdlibPad(t testing.TB, key []byte, scheme SeedScheme, bucketID, seed uint64, body []byte) []byte {
	blk, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	if scheme == SeedGlobal {
		bucketID = 0
	}
	const mask48 = SeedLimit - 1
	var iv [16]byte
	binary.BigEndian.PutUint64(iv[0:8], (bucketID&mask48)<<16|(seed&mask48)>>32)
	binary.BigEndian.PutUint64(iv[8:16], (seed&mask48)<<32)
	want := make([]byte, len(body))
	cipher.NewCTR(blk, iv[:]).XORKeyStream(want, body)
	return want
}

// checkPad compares pad (the kernel where the CPU has one), the generic
// loop and cipher.NewCTR on one input.
func checkPad(t testing.TB, scheme SeedScheme, bucketID, seed uint64, body []byte) {
	key := testKey(7)
	bc, err := NewBucketCipher(key, scheme)
	if err != nil {
		t.Fatal(err)
	}
	want := stdlibPad(t, key, scheme, bucketID, seed, body)
	got := make([]byte, len(body))
	bc.pad(bucketID, seed, body, got)
	if !bytes.Equal(got, want) {
		t.Fatalf("%v id=%#x seed=%#x n=%d: pad (kernel %v) diverges from cipher.NewCTR", scheme, bucketID, seed, len(body), hasKernel)
	}
	clear(got)
	padGeneric(bc, bucketID, seed, body, got)
	if !bytes.Equal(got, want) {
		t.Fatalf("%v id=%#x seed=%#x n=%d: generic loop diverges from cipher.NewCTR", scheme, bucketID, seed, len(body))
	}
}

// TestKeystreamDifferential: the kernel, the generic loop and cipher.NewCTR
// agree for both seed schemes, at every kernel tail shape (0-3 full blocks
// after the 8- and 4-block calls, with and without a partial block), and at
// seeds and bucket IDs where the 48-bit fields straddle the IV's 64-bit
// halves or are truncated.
func TestKeystreamDifferential(t *testing.T) {
	t.Logf("amd64 kernel in use: %v", hasKernel)
	lengths := []int{0, 1, 15, 16, 17, 127, 128, 129, 255, 256, 257, 324, 1000}
	seeds := []uint64{1, 0x9999, 1<<32 - 1, 1 << 32, 1<<32 + 1, SeedLimit - 2, SeedLimit - 1, SeedLimit, 1<<64 - 1}
	ids := []uint64{0, 0x1234, SeedLimit - 1, SeedLimit + 3}
	for _, scheme := range []SeedScheme{SeedPerBucket, SeedGlobal} {
		for _, n := range lengths {
			body := make([]byte, n)
			for i := range body {
				body[i] = byte(i*31 + n)
			}
			for _, seed := range seeds {
				for _, id := range ids {
					checkPad(t, scheme, id, seed, body)
				}
			}
		}
	}
}

// TestKeystreamCounterCarry: unreachable from pad (its 32-bit chunk
// counter starts at zero), but the kernel's counter must still carry
// across its 64-bit limbs and wrap at 2^128 exactly as cipher.NewCTR's.
// The low limb starts k blocks short of wrapping, for every k the
// 1000-byte body reaches, so the carry lands in each lane of each kernel
// call and on each boundary between calls.
func TestKeystreamCounterCarry(t *testing.T) {
	key := testKey(7)
	blk, _ := aes.NewCipher(key)
	bc, _ := NewBucketCipher(key, SeedGlobal)
	body := make([]byte, 1000)
	for i := range body {
		body[i] = byte(i)
	}
	for k := uint64(1); k <= uint64(len(body)+aes.BlockSize-1)/aes.BlockSize; k++ {
		lo := -k
		for _, hi := range []uint64{0, 1<<64 - 1} {
			var iv [16]byte
			binary.BigEndian.PutUint64(iv[0:8], hi)
			binary.BigEndian.PutUint64(iv[8:16], lo)
			want := make([]byte, len(body))
			cipher.NewCTR(blk, iv[:]).XORKeyStream(want, body)
			for name, xor := range map[string]func(body, out []byte){
				"kernel": bc.xorKeyStream, "generic": bc.xorGeneric,
			} {
				bc.iv = iv
				got := make([]byte, len(body))
				xor(body, got)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: counter %#x%016x: keystream diverges from cipher.NewCTR", name, hi, lo)
				}
			}
		}
	}
}

// FuzzPad is TestKeystreamDifferential over fuzzer-chosen inputs.
func FuzzPad(f *testing.F) {
	f.Add(false, uint64(0x1234), uint64(0x9999), make([]byte, 324))
	f.Add(true, uint64(0), uint64(1<<32-1), []byte("seed crosses the IV's 64-bit halves"))
	f.Fuzz(func(t *testing.T, global bool, bucketID, seed uint64, body []byte) {
		scheme := SeedPerBucket
		if global {
			scheme = SeedGlobal
		}
		checkPad(t, scheme, bucketID, seed, body)
	})
}

// TestSealToOpenToReuse: the dst-based variants must reuse caller capacity,
// round-trip, and agree with the allocating forms.
func TestSealToOpenToReuse(t *testing.T) {
	bc, _ := NewBucketCipher(testKey(7), SeedGlobal)
	body := []byte("bucket contents with some slack....")
	sealedBuf := make([]byte, 0, SeedBytes+len(body))
	bodyBuf := make([]byte, 0, len(body))

	for i := 0; i < 10; i++ {
		sealed := bc.SealTo(sealedBuf[:0], 3, 0, body)
		if cap(sealed) != cap(sealedBuf) || &sealed[0] != &sealedBuf[:1][0] {
			t.Fatal("SealTo did not reuse the provided buffer")
		}
		got, _, err := bc.OpenTo(bodyBuf[:0], 3, sealed)
		if err != nil {
			t.Fatal(err)
		}
		if &got[0] != &bodyBuf[:1][0] {
			t.Fatal("OpenTo did not reuse the provided buffer")
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("round-trip mismatch on iteration %d", i)
		}
	}
	// Undersized dst still works by allocating.
	sealed := bc.SealTo(make([]byte, 0, 1), 3, 0, body)
	got, _, err := bc.OpenTo(make([]byte, 0, 1), 3, sealed)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("undersized-dst round trip failed: %v", err)
	}
}

// TestAppendTagMatchesSum: AppendTag and Sum must agree, and AppendTag must
// extend dst in place when capacity allows.
func TestAppendTagMatchesSum(t *testing.T) {
	m, _ := NewMAC(testKey(5), 16)
	d := []byte("some block data")
	want := m.Sum(9, 42, d)
	buf := make([]byte, 0, 64)
	got := m.AppendTag(buf, 9, 42, d)
	if !bytes.Equal(got, want) {
		t.Fatal("AppendTag diverges from Sum")
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("AppendTag did not append in place")
	}
	// Appending after a prefix keeps the prefix.
	got2 := m.AppendTag(append(buf[:0], 0xAB), 9, 42, d)
	if got2[0] != 0xAB || !bytes.Equal(got2[1:], want) {
		t.Fatal("AppendTag clobbered the prefix")
	}
}

// TestHotPathAllocs pins the steady-state allocation behavior of the crypto
// primitives the per-access loop leans on: zero for MAC tag+verify and for
// SealTo/OpenTo with adequate buffers.
func TestHotPathAllocs(t *testing.T) {
	m, _ := NewMAC(testKey(5), 16)
	d := make([]byte, 80)
	tagBuf := make([]byte, 0, 32)
	var tag []byte
	if n := testing.AllocsPerRun(500, func() {
		tag = m.AppendTag(tagBuf[:0], 9, 42, d)
		if !m.Verify(tag, 9, 42, d) {
			t.Fatal("verify failed")
		}
	}); n != 0 {
		t.Fatalf("MAC AppendTag+Verify allocates %.1f/op, want 0", n)
	}

	bc, _ := NewBucketCipher(testKey(7), SeedGlobal)
	body := make([]byte, 388)
	sealedBuf := make([]byte, 0, SeedBytes+len(body))
	bodyBuf := make([]byte, 0, len(body))
	if n := testing.AllocsPerRun(500, func() {
		sealed := bc.SealTo(sealedBuf[:0], 3, 0, body)
		if _, _, err := bc.OpenTo(bodyBuf[:0], 3, sealed); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("SealTo+OpenTo allocates %.1f/op, want 0", n)
	}
}

func TestSeedSchemeString(t *testing.T) {
	if SeedPerBucket.String() != "per-bucket" || SeedGlobal.String() != "global" {
		t.Fatal("unexpected scheme names")
	}
	if SeedScheme(9).String() == "" {
		t.Fatal("unknown scheme should still print")
	}
}

// BenchmarkSealOpen is one bucket's reseal plus reopen at the Path ORAM
// body size for 64-byte blocks: Z=4 slots of a 17-byte header and the
// block, 324 B.
func BenchmarkSealOpen(b *testing.B) {
	bc, _ := NewBucketCipher(testKey(7), SeedGlobal)
	body := make([]byte, 324)
	sealedBuf := make([]byte, 0, SeedBytes+len(body))
	bodyBuf := make([]byte, 0, len(body))
	b.SetBytes(int64(2 * len(body)))
	b.ReportAllocs()
	for b.Loop() {
		sealed := bc.SealTo(sealedBuf[:0], 3, 0, body)
		if _, _, err := bc.OpenTo(bodyBuf[:0], 3, sealed); err != nil {
			b.Fatal(err)
		}
	}
}
