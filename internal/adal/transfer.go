package adal

import (
	"context"
	"errors"
	"fmt"
	"io"
)

// ErrChecksum is returned when transferred bytes are not the object
// their recorded digest describes.
var ErrChecksum = errors.New("adal: checksum mismatch")

// Transfer is the one loop that moves hashed bytes: it copies src into
// dst a ChainBlock at a time through the pooled buffer, hashing what
// dst accepted, and returns the digest of that — also beside an error,
// when it covers what was written before it. When want carries a sum
// the stream is checked against it as it lands: its checkpoint at every
// block boundary when want is chained — a corrupt block is the last one
// written — and its size and sum at the end; a stream that is not want
// fails with ErrChecksum. A zero want checks nothing and learns the
// digest (copy to Discard to hash or scrub an object). ctx is checked
// between blocks.
//
// A *ChecksumWriter dst hashes for itself: its hasher is read instead
// of feeding a second one, so it must be given the whole stream.
// Creating dst, closing it and clearing it after a failure stay with
// the caller.
func Transfer(ctx context.Context, dst io.Writer, src io.Reader, want Digest) (Digest, error) {
	var h *ChainHasher
	if cw, ok := dst.(*ChecksumWriter); ok {
		h = cw.h
	} else {
		h = NewChainHasher()
		dst = io.MultiWriter(dst, h)
	}
	bp := copyBufPool.Get().(*[]byte)
	defer copyBufPool.Put(bp)
	for {
		if err := ctx.Err(); err != nil {
			return h.Digest(), err
		}
		// Not io.ReadFull: its ErrUnexpectedEOF would hide a source's own
		// (a request body cut short of its Content-Length ends in one).
		n, rerr := 0, error(nil)
		for n < ChainBlock && rerr == nil {
			var k int
			k, rerr = src.Read((*bp)[n:ChainBlock])
			n += k
		}
		if n > 0 {
			if _, err := dst.Write((*bp)[:n]); err != nil {
				return h.Digest(), fmt.Errorf("adal: transfer: write at byte %d: %w", h.n, err)
			}
			if want.Sum != "" && !h.prefixOf(want) {
				return h.Digest(), fmt.Errorf("%w: within the %d bytes before byte %d", ErrChecksum, n, h.n)
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return h.Digest(), fmt.Errorf("adal: transfer: read at byte %d: %w", h.n, rerr)
		}
	}
	got := h.Digest()
	if want.Sum != "" && (got.Size != want.Size || got.Sum != want.Sum) {
		return got, fmt.Errorf("%w: got %d bytes, sha256 %.12s; want %d, %.12s", ErrChecksum, got.Size, got.Sum, want.Size, want.Sum)
	}
	return got, nil
}
