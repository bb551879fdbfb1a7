package tpm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"slices"
)

// ErrShortBuffer is returned when a command body ends before a field.
var ErrShortBuffer = errors.New("tpm: short buffer")

// Writer builds big-endian TPM wire structures.
type Writer struct {
	buf []byte
}

// NewWriter returns an empty Writer.
func NewWriter() *Writer { return &Writer{} }

// NewWriterBuf returns a Writer that appends to buf, reusing its capacity.
// Pass buf[:0] of a scratch slice to serialize without allocating.
func NewWriterBuf(buf []byte) *Writer { return &Writer{buf: buf} }

// Bytes returns the accumulated buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// Reset empties the writer, keeping its capacity for reuse.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Len returns the number of bytes written.
func (w *Writer) Len() int { return len(w.buf) }

// U8 appends a byte.
func (w *Writer) U8(v byte) *Writer { w.buf = append(w.buf, v); return w }

// U16 appends a big-endian uint16.
func (w *Writer) U16(v uint16) *Writer {
	w.buf = binary.BigEndian.AppendUint16(w.buf, v)
	return w
}

// U32 appends a big-endian uint32.
func (w *Writer) U32(v uint32) *Writer {
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
	return w
}

// U64 appends a big-endian uint64.
func (w *Writer) U64(v uint64) *Writer {
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
	return w
}

// Raw appends bytes verbatim.
func (w *Writer) Raw(b []byte) *Writer { w.buf = append(w.buf, b...); return w }

// B32 appends a length-prefixed (uint32) byte string.
func (w *Writer) B32(b []byte) *Writer { return w.U32(uint32(len(b))).Raw(b) }

// bigB32 appends x's minimal big-endian bytes as a length-prefixed (uint32)
// byte string — the encoding of B32(x.Bytes()) — filled in place, without
// the intermediate copy x.Bytes would allocate. x must be non-negative.
func (w *Writer) bigB32(x *big.Int) *Writer {
	n := (x.BitLen() + 7) / 8
	w.U32(uint32(n))
	at := len(w.buf)
	w.buf = slices.Grow(w.buf, n)[:at+n]
	x.FillBytes(w.buf[at:])
	return w
}

// B16 appends a length-prefixed (uint16) byte string.
func (w *Writer) B16(b []byte) *Writer { return w.U16(uint16(len(b))).Raw(b) }

// Reader parses big-endian TPM wire structures.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps a buffer for parsing.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Reset repoints the reader at b and clears its position and error, reusing
// the Reader value.
func (r *Reader) Reset(b []byte) { r.buf, r.off, r.err = b, 0, nil }

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the unread byte count.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Rest returns all unread bytes (copied) and advances to the end.
func (r *Reader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	out := append([]byte(nil), r.buf[r.off:]...)
	r.off = len(r.buf)
	return out
}

func (r *Reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.Remaining() < n {
		r.err = fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrShortBuffer, n, r.off, len(r.buf))
		return false
	}
	return true
}

// U8 reads a byte.
func (r *Reader) U8() byte {
	if !r.need(1) {
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := binary.BigEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// Raw reads exactly n bytes (copied).
func (r *Reader) Raw(n int) []byte {
	if n < 0 {
		r.err = fmt.Errorf("%w: negative length %d", ErrShortBuffer, n)
		return nil
	}
	if !r.need(n) {
		return nil
	}
	out := append([]byte(nil), r.buf[r.off:r.off+n]...)
	r.off += n
	return out
}

// RawView reads exactly n bytes without copying. The returned slice aliases
// the reader's buffer and is valid only while that buffer is; hot-path
// handlers use it for inputs they consume before returning.
func (r *Reader) RawView(n int) []byte {
	if n < 0 {
		r.err = fmt.Errorf("%w: negative length %d", ErrShortBuffer, n)
		return nil
	}
	if !r.need(n) {
		return nil
	}
	out := r.buf[r.off : r.off+n]
	r.off += n
	return out
}

// B32 reads a uint32-length-prefixed byte string.
func (r *Reader) B32() []byte {
	n := r.U32()
	if r.err != nil {
		return nil
	}
	return r.Raw(int(n))
}

// B16 reads a uint16-length-prefixed byte string.
func (r *Reader) B16() []byte {
	n := r.U16()
	if r.err != nil {
		return nil
	}
	return r.Raw(int(n))
}

// Digest reads a fixed 20-byte SHA-1 digest.
func (r *Reader) Digest() [DigestSize]byte {
	var d [DigestSize]byte
	copy(d[:], r.Raw(DigestSize))
	return d
}
