package adal

import (
	"bytes"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"encoding/hex"
	"hash"

	"repro/internal/units"
)

// ChainBlock is the spacing of SHA-256 checkpoints in a Digest, and
// with it the read cache's block size: a block can only be verified
// where the writer took a checkpoint.
const ChainBlock = 256 << 10

// Digest is what one hash pass over an object records: its size, its
// SHA-256, and the checkpoint chain — the hash's 32-byte chaining value
// at every ChainBlock boundary strictly inside the object. Not a second
// list of per-block digests: the one hash's own intermediate states, so
// taking them costs no extra hashing, and block j is checked by resuming
// the state at checkpoint j, hashing the block and comparing with
// checkpoint j+1 — the digest for the last block.
type Digest struct {
	Size  units.Bytes `json:"size"`
	Sum   string      `json:"sum"` // hex SHA-256 of the content
	Chain []byte      `json:"chain,omitempty"`
}

// newHash is sha256.New; tests swap it to count hash passes.
var newHash = sha256.New

// A checkpoint is the chaining value alone. At a block boundary the
// rest of crypto/sha256's marshalled state is fixed — its magic, an
// empty block buffer and a length the block index implies — so
// blockState rebuilds it, and the chain holds no toolchain-private
// format. TestBlockStateIsMarshalBinary pins the layout.
const (
	cvLen      = sha256.Size
	stateMagic = "sha\x03"
	stateLen   = len(stateMagic) + cvLen + sha256.BlockSize + 8
)

// blockState fills st with the marshalled state of a SHA-256 that has
// hashed n bytes, a multiple of its block size, and stands at chaining
// value cv.
func blockState(st *[stateLen]byte, cv []byte, n int64) {
	copy(st[:], stateMagic)
	copy(st[len(stateMagic):], cv)
	clear(st[len(stateMagic)+cvLen : stateLen-8])
	binary.BigEndian.PutUint64(st[stateLen-8:], uint64(n))
}

// appendCV appends h's chaining value to b through a marshal into st,
// which it reuses when the hash can append its state in place.
func appendCV(b []byte, h hash.Hash, st []byte) []byte {
	var err error
	if a, ok := h.(interface{ AppendBinary([]byte) ([]byte, error) }); ok {
		st, err = a.AppendBinary(st[:0])
	} else {
		st, err = h.(encoding.BinaryMarshaler).MarshalBinary()
	}
	if err != nil || len(st) != stateLen {
		panic("adal: unexpected SHA-256 state layout") // crypto/sha256 cannot fail to marshal
	}
	return append(b, st[len(stateMagic):len(stateMagic)+cvLen]...)
}

// Blocks is the number of blocks the object spans; the last may be short.
func (d Digest) Blocks() int64 { return (int64(d.Size) + ChainBlock - 1) / ChainBlock }

// BlockLen is the length of block j.
func (d Digest) BlockLen(j int64) int64 { return min(ChainBlock, int64(d.Size)-j*ChainBlock) }

// Chained reports whether single blocks can be verified: there is a
// digest, and a checkpoint for every inner boundary.
func (d Digest) Chained() bool {
	return d.Sum != "" && int64(len(d.Chain)) == (d.Blocks()-1)*cvLen
}

// VerifyBlock reports whether blk is block j of the object d describes:
// full SHA-256 strength for one block's worth of hashing.
func (d Digest) VerifyBlock(j int64, blk []byte) bool {
	last := d.Blocks() - 1
	if !d.Chained() || j < 0 || j > last || int64(len(blk)) != d.BlockLen(j) {
		return false
	}
	h := sha256.New()
	var st [stateLen]byte
	at := int(j) * cvLen // checkpoint j+1 starts here, checkpoint j ends here
	if j > 0 {
		blockState(&st, d.Chain[at-cvLen:at], j*ChainBlock)
		if h.(encoding.BinaryUnmarshaler).UnmarshalBinary(st[:]) != nil {
			return false
		}
	}
	h.Write(blk)
	if j == last {
		return hex.EncodeToString(h.Sum(st[:0])) == d.Sum
	}
	return bytes.Equal(appendCV(st[:0], h, st[:]), d.Chain[at:at+cvLen])
}

// ChainHasher is a SHA-256 that records its checkpoint chain in the
// same pass over the bytes.
type ChainHasher struct {
	h     hash.Hash
	n     int64
	chain []byte
	st    [stateLen]byte // scratch for the marshalled state
}

func NewChainHasher() *ChainHasher { return &ChainHasher{h: newHash()} }

// Write never fails. A checkpoint is taken as each block fills.
func (c *ChainHasher) Write(p []byte) (int, error) {
	for rest := p; len(rest) > 0; {
		k := min(int64(len(rest)), ChainBlock-c.n%ChainBlock)
		c.h.Write(rest[:k])
		c.n += k
		rest = rest[k:]
		if c.n%ChainBlock == 0 {
			c.chain = appendCV(c.chain, c.h, c.st[:])
		}
	}
	return len(p), nil
}

// Digest reports what has been hashed so far. A boundary the stream
// ends on is not inside the object, so its checkpoint is left out.
func (c *ChainHasher) Digest() Digest {
	chain := c.chain
	if c.n > 0 && c.n%ChainBlock == 0 {
		chain = chain[: len(chain)-cvLen : len(chain)-cvLen]
	}
	return Digest{Size: units.Bytes(c.n), Sum: hex.EncodeToString(c.h.Sum(nil)), Chain: chain}
}

// prefixOf reports whether the bytes hashed so far can still grow into
// the object want describes: no longer than it and, at a block boundary
// inside a chained want, on its checkpoint. The end of the stream is
// for Digest to judge.
func (c *ChainHasher) prefixOf(want Digest) bool {
	if c.n > int64(want.Size) {
		return false
	}
	if c.n == 0 || c.n%ChainBlock != 0 || c.n == int64(want.Size) || !want.Chained() {
		return true
	}
	at := int(c.n/ChainBlock) * cvLen
	return bytes.Equal(c.chain[at-cvLen:at], want.Chain[at-cvLen:at])
}
