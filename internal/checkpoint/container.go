// Package checkpoint provides crash-safe per-epoch snapshots of training
// cells. A checkpoint file captures everything the remainder of a run
// depends on — network weights and BN statistics, SGD momentum, both RNG
// streams, the chip (task mapping, per-crossbar fault masks and endurance
// write counters, and the fault coverage the policy installed), and the
// partial result — so an interrupted experiment resumes bit-identically to
// an uninterrupted one.
//
// File container:
//
//	"RMCK" | u32 version | u32 sectionCount
//	per section: u32 nameLen | name | u64 payloadLen | payload
//	u64 crc64(ECMA) over every preceding byte
//
// Writes are atomic (temp file in the same directory, fsync, rename,
// directory fsync), so a crash — including SIGINT mid-write — leaves
// either the previous complete snapshot or the new one, never a torn
// file. Reads verify the checksum before any byte is interpreted;
// corruption surfaces as ErrCorrupt and the affected cell restarts from
// epoch 0 while the rest of the grid is unaffected.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"
	"path/filepath"
)

const (
	containerMagic   = "RMCK"
	containerVersion = 2 // v2: fault coverage in the chip section, no policy section
	// maxSectionName bounds name lengths so a corrupt count cannot drive
	// a huge allocation before the length check against remaining input.
	maxSectionName = 256
	// minSectionLen is the smallest encoded section: name length, a
	// one-byte name, payload length, empty payload.
	minSectionLen = 4 + 1 + 8
)

// ErrCorrupt marks a checkpoint file that is truncated, bit-flipped, or
// otherwise structurally unreadable. Callers treat it as "no checkpoint"
// rather than a fatal error.
var ErrCorrupt = errors.New("checkpoint: corrupt or truncated")

var crcTable = crc64.MakeTable(crc64.ECMA)

// section is one named payload inside the container.
type section struct {
	name    string
	payload []byte
}

// packContainer serializes sections in the given order and appends the
// checksum trailer.
func packContainer(sections []section) []byte {
	var buf bytes.Buffer
	buf.WriteString(containerMagic)
	// binary.Write to a bytes.Buffer cannot fail; discards are explicit.
	_ = binary.Write(&buf, binary.LittleEndian, uint32(containerVersion))
	_ = binary.Write(&buf, binary.LittleEndian, uint32(len(sections)))
	for _, s := range sections {
		_ = binary.Write(&buf, binary.LittleEndian, uint32(len(s.name)))
		buf.WriteString(s.name)
		_ = binary.Write(&buf, binary.LittleEndian, uint64(len(s.payload)))
		buf.Write(s.payload)
	}
	sum := crc64.Checksum(buf.Bytes(), crcTable)
	_ = binary.Write(&buf, binary.LittleEndian, sum)
	return buf.Bytes()
}

// unpackContainer verifies the checksum and splits the container into its
// sections. Every structural failure wraps ErrCorrupt.
func unpackContainer(data []byte) (map[string][]byte, error) {
	const headerLen = 4 + 4 + 4
	if len(data) < headerLen+8 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the minimal container", ErrCorrupt, len(data))
	}
	body, trailer := data[:len(data)-8], data[len(data)-8:]
	want := binary.LittleEndian.Uint64(trailer)
	if got := crc64.Checksum(body, crcTable); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (got %016x, want %016x)", ErrCorrupt, got, want)
	}
	if string(body[:4]) != containerMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, body[:4])
	}
	version := binary.LittleEndian.Uint32(body[4:8])
	if version != containerVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, version)
	}
	count := binary.LittleEndian.Uint32(body[8:12])
	r := bytes.NewReader(body[12:])
	// Bound the claimed count by what the body can hold before sizing
	// anything from it: the checksum guards against accidents, not against
	// a crafted file in a shared checkpoint directory.
	if uint64(count)*minSectionLen > uint64(r.Len()) {
		return nil, fmt.Errorf("%w: %d sections claimed, %d bytes remain", ErrCorrupt, count, r.Len())
	}
	out := make(map[string][]byte, count)
	for i := uint32(0); i < count; i++ {
		var nameLen uint32
		if err := binary.Read(r, binary.LittleEndian, &nameLen); err != nil {
			return nil, fmt.Errorf("%w: section %d name length: %v", ErrCorrupt, i, err)
		}
		if nameLen == 0 || nameLen > maxSectionName {
			return nil, fmt.Errorf("%w: section %d name length %d", ErrCorrupt, i, nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			return nil, fmt.Errorf("%w: section %d name: %v", ErrCorrupt, i, err)
		}
		var payloadLen uint64
		if err := binary.Read(r, binary.LittleEndian, &payloadLen); err != nil {
			return nil, fmt.Errorf("%w: section %q payload length: %v", ErrCorrupt, name, err)
		}
		if payloadLen > uint64(r.Len()) {
			return nil, fmt.Errorf("%w: section %q claims %d bytes, %d remain", ErrCorrupt, name, payloadLen, r.Len())
		}
		payload := make([]byte, payloadLen)
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, fmt.Errorf("%w: section %q payload: %v", ErrCorrupt, name, err)
		}
		if _, dup := out[string(name)]; dup {
			return nil, fmt.Errorf("%w: duplicate section %q", ErrCorrupt, name)
		}
		out[string(name)] = payload
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after last section", ErrCorrupt, r.Len())
	}
	return out, nil
}

// writeAtomic writes data to path via a temp file in the same directory,
// fsyncing both the file and the directory so the rename is durable. A
// crash at any point leaves either the old file or the new one.
func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func() {
		// Best-effort teardown on a path that already failed.
		_ = tmp.Close()
		_ = os.Remove(tmpName)
	}
	if _, err := tmp.Write(data); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		_ = os.Remove(tmpName)
		return err
	}
	if d, err := os.Open(dir); err == nil {
		// Directory fsync makes the rename itself durable; best-effort on
		// filesystems that do not support syncing directories.
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// writer is an error-free little-endian encoder over a bytes.Buffer
// (binary.Write to a bytes.Buffer cannot fail).
type writer struct{ buf bytes.Buffer }

func (w *writer) u8(v uint8)   { w.buf.WriteByte(v) }
func (w *writer) u32(v uint32) { _ = binary.Write(&w.buf, binary.LittleEndian, v) }
func (w *writer) u64(v uint64) { _ = binary.Write(&w.buf, binary.LittleEndian, v) }
func (w *writer) i64(v int64)  { _ = binary.Write(&w.buf, binary.LittleEndian, v) }
func (w *writer) f64(v float64) {
	_ = binary.Write(&w.buf, binary.LittleEndian, math.Float64bits(v))
}
func (w *writer) boolByte(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.buf.WriteString(s)
}
func (w *writer) ints(v []int) {
	w.u32(uint32(len(v)))
	for _, x := range v {
		w.u32(uint32(x))
	}
}
func (w *writer) bytes() []byte { return w.buf.Bytes() }

// reader is a sticky-error little-endian decoder; after the first failure
// every read returns zero values and err() reports the cause.
type reader struct {
	r   *bytes.Reader
	e   error
	sec string
}

func newReader(sec string, data []byte) *reader {
	return &reader{r: bytes.NewReader(data), sec: sec}
}

func (r *reader) fail(what string, err error) {
	if r.e == nil {
		r.e = fmt.Errorf("%w: section %q: %s: %v", ErrCorrupt, r.sec, what, err)
	}
}

func (r *reader) u8() uint8 {
	if r.e != nil {
		return 0
	}
	b, err := r.r.ReadByte()
	if err != nil {
		r.fail("u8", err)
		return 0
	}
	return b
}

func (r *reader) u32() uint32 {
	if r.e != nil {
		return 0
	}
	var v uint32
	if err := binary.Read(r.r, binary.LittleEndian, &v); err != nil {
		r.fail("u32", err)
		return 0
	}
	return v
}

func (r *reader) u64() uint64 {
	if r.e != nil {
		return 0
	}
	var v uint64
	if err := binary.Read(r.r, binary.LittleEndian, &v); err != nil {
		r.fail("u64", err)
		return 0
	}
	return v
}

func (r *reader) i64() int64 {
	return int64(r.u64())
}

func (r *reader) f64() float64 {
	return math.Float64frombits(r.u64())
}

func (r *reader) boolByte() bool {
	return r.u8() != 0
}

func (r *reader) str() string {
	n := r.u32()
	if r.e != nil {
		return ""
	}
	if uint64(n) > uint64(r.r.Len()) {
		r.fail("string", fmt.Errorf("length %d exceeds %d remaining bytes", n, r.r.Len()))
		return ""
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r.r, b); err != nil {
		r.fail("string", err)
		return ""
	}
	return string(b)
}

// ints reads a u32-count-prefixed list of u32 values (nil when empty).
func (r *reader) ints(what string) []int {
	n := r.u32()
	if n == 0 || !r.checkCount(what, n, 4) {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(r.u32())
	}
	return out
}

// remaining guards count-driven loops: a claimed element count that cannot
// fit in the remaining bytes fails immediately instead of allocating.
func (r *reader) checkCount(what string, n uint32, elemSize int) bool {
	if r.e != nil {
		return false
	}
	if uint64(n)*uint64(elemSize) > uint64(r.r.Len()) {
		r.fail(what, fmt.Errorf("count %d × %dB exceeds %d remaining bytes", n, elemSize, r.r.Len()))
		return false
	}
	return true
}

// done asserts the section was fully consumed.
func (r *reader) done() {
	if r.e == nil && r.r.Len() != 0 {
		r.fail("trailer", fmt.Errorf("%d unread bytes", r.r.Len()))
	}
}

func (r *reader) err() error { return r.e }
