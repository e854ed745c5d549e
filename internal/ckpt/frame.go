// Package ckpt turns the in-memory engine/service snapshot into crash-safe
// persistence. It has three layers:
//
//   - A framed on-disk format (frame.go): a fixed header of magic, format
//     version, payload length, and a CRC32-C checksum wrapped around an
//     opaque payload (in practice the server's checkpoint envelope, whose
//     byte layout internal/server/codec.go defines). Any torn write — truncation at any byte, a flipped bit,
//     a short write — is detected at read time instead of being decoded
//     into a silently wrong engine.
//   - An atomic generational store (store.go): each checkpoint is written
//     to a temp file, fsynced, and renamed into place as the next
//     generation; the previous generation is retained, so recovery can
//     fall back when the newest file is torn or corrupt.
//   - A runner per stream (runner.go): the batch that crosses every Nth
//     stride hands it a capture, with backoff after a failed save and an
//     Observer hook for the disc_checkpoint_* metrics family; one Writer
//     goroutine persists the captures of every runner of a process.
//
// Everything is stdlib-only, matching the repository rule.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame layout (big-endian):
//
//	offset 0  magic   "DCKP" (4 bytes)
//	offset 4  version uint32 (currently 1)
//	offset 8  length  uint64 payload bytes
//	offset 16 crc32c  uint32 Castagnoli checksum of the payload
//	offset 20 payload
const (
	frameMagic   = "DCKP"
	frameVersion = 1
	// HeaderSize is the size of the fixed frame header in bytes.
	HeaderSize = 20
)

// Errors distinguishing why a frame was rejected. Torn files (shorter than
// the header, or shorter than the declared payload) surface as errors
// wrapping io.ErrUnexpectedEOF.
var (
	ErrBadMagic   = errors.New("ckpt: bad frame magic")
	ErrBadVersion = errors.New("ckpt: unsupported frame version")
	ErrTooLarge   = errors.New("ckpt: frame payload exceeds limit")
	ErrChecksum   = errors.New("ckpt: frame checksum mismatch")
)

// castagnoli is the CRC32-C table; Castagnoli has hardware support on
// amd64/arm64 and better error-detection properties than IEEE.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WriteFrame writes one framed payload to w. The header carries the
// payload's length and CRC32-C, so a reader can detect truncation and
// corruption. Returns the total number of bytes written (useful for byte
// accounting even on short-write failures).
func WriteFrame(w io.Writer, payload []byte) (int, error) {
	var hdr [HeaderSize]byte
	copy(hdr[0:4], frameMagic)
	binary.BigEndian.PutUint32(hdr[4:8], frameVersion)
	binary.BigEndian.PutUint64(hdr[8:16], uint64(len(payload)))
	binary.BigEndian.PutUint32(hdr[16:20], crc32.Checksum(payload, castagnoli))
	n, err := w.Write(hdr[:])
	if err != nil {
		return n, fmt.Errorf("ckpt: writing frame header: %w", err)
	}
	m, err := w.Write(payload)
	n += m
	if err != nil {
		return n, fmt.Errorf("ckpt: writing frame payload: %w", err)
	}
	return n, nil
}

// ReadFrame reads and verifies one framed payload from r. maxPayload caps
// the declared payload length before any allocation, so a corrupted length
// field cannot trigger a giant allocation; maxPayload <= 0 means no limit.
func ReadFrame(r io.Reader, maxPayload int64) ([]byte, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("ckpt: truncated frame header: %w", io.ErrUnexpectedEOF)
		}
		return nil, fmt.Errorf("ckpt: reading frame header: %w", err)
	}
	if string(hdr[0:4]) != frameMagic {
		return nil, fmt.Errorf("%w: %q", ErrBadMagic, hdr[0:4])
	}
	if v := binary.BigEndian.Uint32(hdr[4:8]); v != frameVersion {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrBadVersion, v, frameVersion)
	}
	length := binary.BigEndian.Uint64(hdr[8:16])
	if maxPayload > 0 && length > uint64(maxPayload) {
		return nil, fmt.Errorf("%w: %d bytes declared, limit %d", ErrTooLarge, length, maxPayload)
	}
	payload := make([]byte, length)
	if n, err := io.ReadFull(r, payload); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("ckpt: truncated frame payload (%d of %d bytes): %w",
				n, length, io.ErrUnexpectedEOF)
		}
		return nil, fmt.Errorf("ckpt: reading frame payload: %w", err)
	}
	want := binary.BigEndian.Uint32(hdr[16:20])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, fmt.Errorf("%w: computed %08x, header %08x", ErrChecksum, got, want)
	}
	return payload, nil
}
