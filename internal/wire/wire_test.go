package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"io"
	"math"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	uvs := []uint64{0, 1, 127, 128, 1 << 32, math.MaxUint64}
	vs := []int64{0, -1, 1, 63, -64, 64, math.MinInt64, math.MaxInt64}
	fs := []float64{0, math.Copysign(0, -1), 1.5, math.Inf(-1), math.Float64frombits(0x7ff8000000000123)}
	var b []byte
	for _, v := range uvs {
		b = binary.AppendUvarint(b, v)
	}
	for _, v := range vs {
		b = binary.AppendVarint(b, v)
	}
	for _, f := range fs {
		b = AppendFloat64(b, f)
	}
	b = AppendBytes(b, "name")
	b = AppendBytes(b, []byte{})
	b = append(b, 0xAB)

	c := NewCursor(b)
	for _, want := range uvs {
		if got := c.Uvarint(); got != want {
			t.Errorf("Uvarint = %d, want %d", got, want)
		}
	}
	for _, want := range vs {
		if got := c.Varint(); got != want {
			t.Errorf("Varint = %d, want %d", got, want)
		}
	}
	for _, want := range fs {
		if got := c.Float64(); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("Float64 = %x, want %x", math.Float64bits(got), math.Float64bits(want))
		}
	}
	if got := c.Bytes(); string(got) != "name" {
		t.Errorf("Bytes = %q, want name", got)
	}
	if got := c.Bytes(); got == nil || len(got) != 0 {
		t.Errorf("empty Bytes = %v, want an empty view", got)
	}
	if got := c.Byte(); got != 0xAB {
		t.Errorf("Byte = %#x", got)
	}
	if err := c.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestCanonicalUvarint: a value has one accepted encoding, the shortest.
func TestCanonicalUvarint(t *testing.T) {
	for _, b := range [][]byte{
		{0x80, 0x00},       // 0 in two bytes
		{0xFF, 0x80, 0x00}, // 127 in three
		{0x80},             // cut short
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02}, // 65 bits
	} {
		c := NewCursor(b)
		if v := c.Uvarint(); c.Err() == nil || v != 0 {
			t.Errorf("% x decoded to %d, err %v; want an error", b, v, c.Err())
		}
	}
}

// TestLengthsCheckedBeforeUse: a count or a blob length larger than the input
// can hold is an error before anything is sized from it.
func TestLengthsCheckedBeforeUse(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<32)
	huge = append(huge, bytes.Repeat([]byte{1}, 40)...)
	if c := NewCursor(huge); c.Count(1) != 0 || c.Err() == nil {
		t.Errorf("Count accepted 2^32 one-byte items in %d bytes", len(huge))
	}
	if c := NewCursor(huge); c.Bytes() != nil || c.Err() == nil {
		t.Errorf("Bytes accepted a 2^32-byte blob in %d bytes", len(huge))
	}
	c := NewCursor([]byte{3, 1, 2, 3, 4, 5, 6})
	if n := c.Count(2); n != 3 || c.Err() != nil {
		t.Errorf("Count(2) over six bytes = %d, %v; want 3", n, c.Err())
	}
	c = NewCursor([]byte{4, 1, 2, 3, 4, 5, 6})
	if n := c.Count(2); n != 0 || c.Err() == nil {
		t.Errorf("Count(2) accepted four two-byte items in six bytes")
	}
}

// TestStickyError: after the first failure every read is a zero value, the
// first error is the one reported, and trailing bytes are an error of their own.
func TestStickyError(t *testing.T) {
	c := NewCursor([]byte{1, 2, 3})
	c.Float64() // needs eight bytes
	first := c.Err()
	if first == nil {
		t.Fatal("short Float64 did not fail")
	}
	if c.Byte() != 0 || c.Uvarint() != 0 || c.Varint() != 0 || c.Bytes() != nil || c.Count(1) != 0 {
		t.Error("reads after a failure returned data")
	}
	c.Failf("later")
	if c.Err() != first || c.Finish() != first {
		t.Errorf("first error was replaced: %v", c.Err())
	}
	c = NewCursor([]byte{1, 2})
	c.Byte()
	if c.Finish() == nil {
		t.Error("Finish accepted a trailing byte")
	}
}

func TestReadAll(t *testing.T) {
	want := bytes.Repeat([]byte("disc"), 5000)
	for name, r := range map[string]io.Reader{
		"sized":   bytes.NewReader(want),
		"unsized": io.MultiReader(bytes.NewReader(want[:7]), bytes.NewReader(want[7:])),
	} {
		if got, err := ReadAll(r); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: read %d bytes, %v; want %d", name, len(got), err, len(want))
		}
	}
}

// TestIsGob: whatever gob writes first — a message length of any size — is on
// the gob side of the rule, and every byte a layout may use as magic is not.
func TestIsGob(t *testing.T) {
	for _, n := range []int{1, 100, 127, 128, 70000, 1 << 25} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		// The first message is the type-free []byte value: its length prefix
		// opens the stream.
		if !IsGob(buf.Bytes()) {
			t.Errorf("a gob stream whose first message carries %d bytes opens with %#x", n, buf.Bytes()[0])
		}
	}
	for m := 0x80; m < 0xF8; m++ {
		if IsGob([]byte{byte(m)}) {
			t.Errorf("magic byte %#x reads as gob", m)
		}
	}
	if IsGob(nil) {
		t.Error("an empty input reads as gob")
	}
}
