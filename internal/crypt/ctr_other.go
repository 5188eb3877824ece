//go:build !amd64

package crypt

// Without the amd64 kernel the generic loop is the only keystream path.

const hasKernel = false

func (bc *BucketCipher) expandKey([]byte) {}

//oram:hotpath
func (bc *BucketCipher) xorKeyStream(body, out []byte) { bc.xorGeneric(body, out) }
