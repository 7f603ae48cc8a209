package adal

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"testing"
)

// faultReader serves data in ragged reads and, at byte failAt (when not
// negative), either fails with errSource or — when cancel is set —
// cancels the transfer's context and keeps serving.
type faultReader struct {
	data   []byte
	off    int
	step   int
	failAt int
	cancel context.CancelFunc
}

var errSource = errors.New("source: injected failure")

func (r *faultReader) Read(p []byte) (int, error) {
	if r.failAt >= 0 && r.off >= r.failAt {
		if r.cancel == nil {
			return 0, errSource
		}
		r.cancel()
	}
	if r.off == len(r.data) {
		return 0, io.EOF
	}
	end := min(len(r.data), r.off+min(len(p), r.step))
	if r.failAt > r.off {
		end = min(end, r.failAt)
	}
	n := copy(p, r.data[r.off:end])
	r.off += n
	return n, nil
}

func digestOf(data []byte) Digest {
	h := NewChainHasher()
	h.Write(data)
	return h.Digest()
}

func sameDigest(a, b Digest) bool {
	return a.Size == b.Size && a.Sum == b.Sum && bytes.Equal(a.Chain, b.Chain)
}

// transferCase is one row of the shared loop's table: what the source
// serves in place of the object, and where it fails.
type transferCase struct {
	name    string
	serve   func(obj []byte) []byte
	failAt  int // byte at which the source fails or the context is cancelled; -1: never
	cancel  bool
	corrupt int // the block serve corrupted; -1: none
}

func transferCases(size int) []transferCase {
	k := (size - 1) / ChainBlock / 2 // a block in the middle
	intact := func(o []byte) []byte { return o }
	return []transferCase{
		{name: "clean", serve: intact, failAt: -1, corrupt: -1},
		{name: "block corrupted", serve: func(o []byte) []byte {
			c := bytes.Clone(o)
			c[k*ChainBlock+ChainBlock/3] ^= 0x40
			return c
		}, failAt: -1, corrupt: k},
		{name: "one byte short", serve: func(o []byte) []byte { return o[:len(o)-1] }, failAt: -1, corrupt: -1},
		{name: "one byte long", serve: func(o []byte) []byte { return append(bytes.Clone(o), 7) }, failAt: -1, corrupt: -1},
		{name: "source error", serve: intact, failAt: ChainBlock + 100, corrupt: -1},
		{name: "context cancelled", serve: intact, failAt: ChainBlock + 100, cancel: true, corrupt: -1},
	}
}

// TestTransfer walks {chained, sum-only, no digest} x the table over a
// ragged object and one that ends on a block boundary. Whatever
// happens, the digest returned is that of the bytes the destination
// holds; a stream that is not the object fails with ErrChecksum when
// there is a digest to say so — in the corrupted block's own round when
// the digest is chained; a source error and a cancellation come back as
// themselves, within a block of where they struck.
func TestTransfer(t *testing.T) {
	for _, size := range []int{20*ChainBlock + 1234, 16 * ChainBlock} {
		obj := seededBytes(int64(size), size)
		full := digestOf(obj)
		wants := []struct {
			name string
			d    Digest
		}{
			{"chained", full},
			{"sum-only", Digest{Size: full.Size, Sum: full.Sum}},
			{"no digest", Digest{}},
		}
		for _, want := range wants {
			for _, tc := range transferCases(size) {
				t.Run(fmt.Sprintf("%d/%s/%s", size, want.name, tc.name), func(t *testing.T) {
					served := tc.serve(obj)
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					src := &faultReader{data: served, step: 100_003, failAt: tc.failAt}
					if tc.cancel {
						src.cancel = cancel
					}
					var dst bytes.Buffer
					got, err := Transfer(ctx, &dst, src, want.d)

					if !bytes.HasPrefix(served, dst.Bytes()) {
						t.Fatal("the destination holds bytes the source never served")
					}
					if !sameDigest(got, digestOf(dst.Bytes())) {
						t.Fatalf("returned digest (%d, %.12s) is not that of the %d bytes written", got.Size, got.Sum, dst.Len())
					}
					switch {
					case tc.cancel:
						if !errors.Is(err, context.Canceled) {
							t.Fatalf("err = %v, want context.Canceled", err)
						}
						if dst.Len() < tc.failAt || dst.Len() > tc.failAt+ChainBlock {
							t.Fatalf("cancelled at byte %d, %d bytes written", tc.failAt, dst.Len())
						}
					case tc.failAt >= 0:
						if !errors.Is(err, errSource) || dst.Len() != tc.failAt {
							t.Fatalf("err = %v with %d bytes written, want the source's error after %d", err, dst.Len(), tc.failAt)
						}
					case bytes.Equal(served, obj) || want.d.Sum == "":
						if err != nil || dst.Len() != len(served) {
							t.Fatalf("err = %v with %d of %d bytes written", err, dst.Len(), len(served))
						}
					default:
						if !errors.Is(err, ErrChecksum) {
							t.Fatalf("err = %v, want ErrChecksum", err)
						}
						if len(served) > size && dst.Len() > (size/ChainBlock+1)*ChainBlock {
							t.Fatalf("%d bytes written of a stream longer than the %d-byte object", dst.Len(), size)
						}
						if tc.corrupt >= 0 && want.d.Chained() && dst.Len() > (tc.corrupt+1)*ChainBlock {
							t.Fatalf("block %d corrupt, %d bytes written: want <= %d", tc.corrupt, dst.Len(), (tc.corrupt+1)*ChainBlock)
						}
					}
				})
			}
		}
	}
}

// TestTransferDestinationError: a destination that fails stops the
// loop with its error and the digest of what it had accepted.
func TestTransferDestinationError(t *testing.T) {
	obj := seededBytes(9, 3*ChainBlock)
	errDst := errors.New("destination: full")
	dst := &limitedWriter{left: 2 * ChainBlock, err: errDst}
	got, err := Transfer(context.Background(), dst, bytes.NewReader(obj), digestOf(obj))
	if !errors.Is(err, errDst) || !sameDigest(got, digestOf(obj[:2*ChainBlock])) {
		t.Fatalf("err = %v, digest of %d bytes", err, got.Size)
	}
}

type limitedWriter struct {
	left int
	err  error
}

func (w *limitedWriter) Write(p []byte) (int, error) {
	if len(p) > w.left {
		return 0, w.err
	}
	w.left -= len(p)
	return len(p), nil
}

// FuzzTransfer: whatever stream is served in place of an object —
// bytes flipped, cut short, run long, read in any step — Transfer never
// panics, returns the digest of what it wrote, and never returns nil
// for a stream that is not the object its digest describes.
func FuzzTransfer(f *testing.F) {
	for _, size := range []int{5*ChainBlock + 1234, 4 * ChainBlock} {
		for _, chained := range []bool{true, false} {
			f.Add(int64(size), uint32(size), uint32(0), false, int8(0), uint32(100_003), chained)             // clean
			f.Add(int64(size), uint32(size), uint32(2*ChainBlock+5), true, int8(0), uint32(100_003), chained) // block corrupted
			f.Add(int64(size), uint32(size), uint32(0), false, int8(-1), uint32(100_003), chained)            // one byte short
			f.Add(int64(size), uint32(size), uint32(0), false, int8(1), uint32(100_003), chained)             // one byte long
		}
	}
	f.Add(int64(0), uint32(0), uint32(0), false, int8(1), uint32(1), true)
	f.Fuzz(func(t *testing.T, seed int64, size, flipAt uint32, flip bool, grow int8, step uint32, chained bool) {
		obj := seededBytes(seed, int(size%(6*ChainBlock)))
		want := digestOf(obj)
		if !chained {
			want.Chain = nil
		}
		served := bytes.Clone(obj)
		if flip && len(served) > 0 {
			served[int(flipAt)%len(served)] ^= 1
		}
		switch {
		case grow > 0:
			served = append(served, make([]byte, grow)...)
		case grow < 0:
			served = served[:max(0, len(served)+int(grow))]
		}
		var dst bytes.Buffer
		src := &faultReader{data: served, step: 1 + int(step%(2*ChainBlock)), failAt: -1}
		got, err := Transfer(context.Background(), &dst, src, want)
		if !sameDigest(got, digestOf(dst.Bytes())) {
			t.Fatalf("returned digest (%d, %.12s) is not that of the %d bytes written", got.Size, got.Sum, dst.Len())
		}
		if same := bytes.Equal(served, obj); same != (err == nil) || (err != nil && !errors.Is(err, ErrChecksum)) {
			t.Fatalf("stream is the object: %v, err = %v", same, err)
		}
	})
}
