// Package wire is the byte-level vocabulary of the three durable formats —
// the write-ahead-log record and the checkpoint envelope (internal/server) and
// the engine snapshot (internal/core): integers as uvarints (zig-zag when
// signed), float64 as eight little-endian bytes, strings and blobs behind a
// uvarint length. The append side is plain functions over a []byte; the read
// side is a Cursor with a sticky error, so a decoder reads a whole layout
// straight through and checks once.
//
// The encoding is canonical: Cursor refuses a uvarint that is longer than it
// needs to be, so bytes that decode are the bytes the value encodes to. Every
// length and count is checked against the bytes that remain before anything is
// sized from it, so a decoder never allocates more than a constant multiple of
// its input.
package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// ReadAll reads r to its end, like io.ReadAll, but sizes the buffer once when
// r says how much it holds (a bytes.Reader or bytes.Buffer, which is what a
// checkpoint arrives in): the decoders work on whole buffers, and a multi-
// megabyte snapshot should not be copied a dozen times on its way into one.
func ReadAll(r io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// IsGob reports whether b opens like an encoding/gob stream, which is what the
// durable formats were before they were built from this package. A gob stream
// starts with its first message's length, written as one byte below 0x80 or as
// a negated byte count in 0xF8–0xFF; every layout built here opens with a magic
// byte between the two ranges, so a decoder tells the generations apart by the
// first byte, and one log may hold both.
func IsGob(b []byte) bool { return len(b) > 0 && (b[0] < 0x80 || b[0] >= 0xF8) }

// AppendFloat64 appends f's IEEE-754 bits, little-endian.
func AppendFloat64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendBytes appends p behind its uvarint length.
func AppendBytes[T ~string | ~[]byte](b []byte, p T) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// Cursor reads a buffer front to back. The first failure sticks: every later
// read returns a zero value and leaves the cursor where it was, and Err (or
// Finish) reports it.
type Cursor struct {
	b   []byte
	err error
}

// NewCursor returns a cursor over b. Bytes views returned by the cursor alias b.
func NewCursor(b []byte) *Cursor { return &Cursor{b: b} }

// Failf records a decoding error, unless one is already recorded.
func (c *Cursor) Failf(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// Err returns the first failure, or nil.
func (c *Cursor) Err() error { return c.err }

// Len returns the number of unread bytes.
func (c *Cursor) Len() int { return len(c.b) }

// Finish returns the first failure, or an error if unread bytes remain.
func (c *Cursor) Finish() error {
	if c.err == nil && len(c.b) != 0 {
		c.Failf("%d trailing bytes", len(c.b))
	}
	return c.err
}

// take returns the next n bytes, or nil after recording a failure.
func (c *Cursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n > len(c.b) {
		c.Failf("truncated: need %d bytes, %d remain", n, len(c.b))
		return nil
	}
	p := c.b[:n:n]
	c.b = c.b[n:]
	return p
}

// Byte reads one byte.
func (c *Cursor) Byte() byte {
	if p := c.take(1); p != nil {
		return p[0]
	}
	return 0
}

// Magic reads one byte and fails unless it is want, the byte a what opens with.
func (c *Cursor) Magic(want byte, what string) {
	if got := c.Byte(); got != want {
		c.Failf("first byte %#x is not %s", got, what)
	}
}

// Uvarint reads an unsigned integer in its shortest encoding.
func (c *Cursor) Uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b)
	switch {
	case n == 0:
		c.Failf("truncated uvarint")
		return 0
	case n < 0:
		c.Failf("uvarint overflows 64 bits")
		return 0
	case n > 1 && c.b[n-1] == 0:
		c.Failf("uvarint is not in its shortest form")
		return 0
	}
	c.b = c.b[n:]
	return v
}

// Varint reads a zig-zag signed integer.
func (c *Cursor) Varint() int64 {
	u := c.Uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// Float64 reads eight little-endian bytes as a float64.
func (c *Cursor) Float64() float64 {
	if p := c.take(8); p != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(p))
	}
	return 0
}

// Bytes reads a length-prefixed blob as a view into the cursor's buffer.
func (c *Cursor) Bytes() []byte {
	n := c.Uvarint()
	if n > uint64(len(c.b)) {
		c.Failf("truncated: blob of %d bytes, %d remain", n, len(c.b))
		return nil
	}
	return c.take(int(n))
}

// Count reads the number of items in a column group whose items take at least
// minEach (> 0) bytes apiece, failing if that many cannot fit in what remains
// — the check that makes it safe to size a slice from the result.
func (c *Cursor) Count(minEach int) int {
	n := c.Uvarint()
	if n > uint64(len(c.b)/minEach) {
		c.Failf("count %d needs at least %d bytes each, %d remain", n, minEach, len(c.b))
		return 0
	}
	return int(n)
}
