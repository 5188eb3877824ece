package crypt

import (
	"crypto/aes"
	"encoding/binary"
	"math/bits"
)

// The pipelined AES-NI CTR kernel in ctr_amd64.s (copied from the Go
// toolchain's crypto/internal/fips140/aes). It runs 8, 4 or 1 AES blocks
// per call and needs AES-NI, SSSE3 (PSHUFB) and SSE4.1 (PINSRQ). A 324-byte
// bucket body (20 blocks and 4 bytes) takes 8+8+4 and one partial block;
// the stdlib's 2-block routine measured no faster there and is left out.

//go:noescape
func ctrBlocks1Asm(xk *[44]uint32, dst, src *[aes.BlockSize]byte, ivlo, ivhi uint64)

//go:noescape
func ctrBlocks4Asm(xk *[44]uint32, dst, src *[4 * aes.BlockSize]byte, ivlo, ivhi uint64)

//go:noescape
func ctrBlocks8Asm(xk *[44]uint32, dst, src *[8 * aes.BlockSize]byte, ivlo, ivhi uint64)

//go:noescape
func expandKeyAsm(key *[16]byte, enc *[44]uint32)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// hasKernel reports whether the CPU runs the kernel: CPUID leaf 1, ECX
// bits 9 (SSSE3), 19 (SSE4.1) and 25 (AES).
var hasKernel = func() bool {
	const need = 1<<9 | 1<<19 | 1<<25
	_, _, ecx, _ := cpuid(1, 0)
	return ecx&need == need
}()

// expandKey fills the kernel's AES-128 round keys. It is a no-op where the
// kernel does not run.
func (bc *BucketCipher) expandKey(key []byte) {
	if hasKernel {
		expandKeyAsm((*[16]byte)(key), &bc.enc)
	}
}

// xorKeyStream XORs body with the CTR keystream starting at bc.iv into
// out, through the kernel when the CPU has one and the generic loop
// otherwise. The counter advances as a 128-bit big-endian integer, exactly
// as in xorGeneric and cipher.NewCTR.
//
//oram:hotpath
func (bc *BucketCipher) xorKeyStream(body, out []byte) {
	if !hasKernel {
		bc.xorGeneric(body, out)
		return
	}
	out = out[:len(body)]
	hi := binary.BigEndian.Uint64(bc.iv[0:8])
	lo := binary.BigEndian.Uint64(bc.iv[8:16])
	for len(body) >= 8*aes.BlockSize {
		ctrBlocks8Asm(&bc.enc, (*[8 * aes.BlockSize]byte)(out), (*[8 * aes.BlockSize]byte)(body), lo, hi)
		body, out = body[8*aes.BlockSize:], out[8*aes.BlockSize:]
		lo, hi = add128(lo, hi, 8)
	}
	if len(body) >= 4*aes.BlockSize {
		ctrBlocks4Asm(&bc.enc, (*[4 * aes.BlockSize]byte)(out), (*[4 * aes.BlockSize]byte)(body), lo, hi)
		body, out = body[4*aes.BlockSize:], out[4*aes.BlockSize:]
		lo, hi = add128(lo, hi, 4)
	}
	for len(body) >= aes.BlockSize {
		ctrBlocks1Asm(&bc.enc, (*[aes.BlockSize]byte)(out), (*[aes.BlockSize]byte)(body), lo, hi)
		body, out = body[aes.BlockSize:], out[aes.BlockSize:]
		lo, hi = add128(lo, hi, 1)
	}
	if len(body) != 0 {
		// The kernel loads src in full before storing dst, so the partial
		// last block can run in place in one buffer.
		var buf [aes.BlockSize]byte
		copy(buf[:], body)
		ctrBlocks1Asm(&bc.enc, &buf, &buf, lo, hi)
		copy(out, buf[:])
	}
}

func add128(lo, hi, x uint64) (uint64, uint64) {
	lo, c := bits.Add64(lo, x, 0)
	hi, _ = bits.Add64(hi, 0, c)
	return lo, hi
}
