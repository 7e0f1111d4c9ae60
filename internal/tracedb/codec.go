// Package tracedb implements the repository's persistent trace store: an
// embedded, log-structured database that replaces the in-memory MemStore as
// the middlebox's primary sink. The paper's RATracer logs every command
// instance to a MongoDB document store (§III, Fig. 3); tracedb is that
// component made durable without an external server — append-only on-disk
// segments of checksummed record blocks, a sparse in-segment time index,
// per-segment posting lists keyed by device and command type, and a query
// API whose shapes match the analyses' sliced reads (per-device, per-run,
// per-window).
//
// # On-disk format
//
// A store is a directory of segment files named seg-00000000.seg,
// seg-00000001.seg, … Each segment starts with an 8-byte magic header and is
// followed by a sequence of blocks:
//
//	+----------------+----------------+-------------------+
//	| 4-byte big-    | 4-byte big-    | payload           |
//	| endian length  | endian CRC32C  | (length bytes)    |
//	+----------------+----------------+-------------------+
//
// One block is one flush boundary: a store.Batcher flush, an AppendBatch
// call, or the automatic flush of store.DefaultBatchSize staged appends
// lands as exactly one block (split only when it would exceed the block
// size cap). The payload is a record count followed by that many records in
// the canonical binary encoding below. Integers are varints, strings are
// length-prefixed bytes, timestamps are UnixNano:
//
//	uvarint seq
//	varint  timeNanos, endTimeNanos
//	string  device, name
//	uvarint nargs, then nargs strings
//	string  response, exception, procedure, run, mode
//
// The encoding is canonical — encoding any decoded batch reproduces the
// original bytes — which is what FuzzSegmentRoundTrip pins down.
//
// # Crash safety
//
// A block is committed once its frame is fully written; readers only ever
// see committed offsets. On Open every segment is scanned: each block's
// length is bounds-checked and its CRC32C verified, and the scan stops at
// the first torn or corrupted block, truncating the file there. Everything
// up to the last fully-flushed block survives a crash; sequence numbers
// resume from the highest recovered record.
package tracedb

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"time"

	"rad/internal/store"
)

const (
	// segMagic opens every segment file; a file without it holds no
	// committed records.
	segMagic = "RADTDB1\n"
	// blockHeaderSize is the length + checksum prefix of every block.
	blockHeaderSize = 8
	// MaxBlockBytes bounds a single block payload so a corrupted length
	// field can never force an unbounded allocation during recovery.
	MaxBlockBytes = 16 << 20
	// targetBlockBytes is the soft payload size at which a large batch is
	// split across several blocks; it keeps every block far under
	// MaxBlockBytes and bounds the unit of read amplification.
	targetBlockBytes = 1 << 20
)

// castagnoli is the CRC32C polynomial table used for block checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errCorrupt marks a block whose payload fails structural validation; the
// recovery scan treats it exactly like a failed checksum.
var errCorrupt = errors.New("tracedb: corrupt block payload")

// encodePayload appends the canonical block payload for recs to buf.
func encodePayload(buf []byte, recs []store.Record) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(recs)))
	for i := range recs {
		buf = appendRecord(buf, recs[i])
	}
	return buf
}

// appendRecord appends one record in the canonical encoding.
func appendRecord(buf []byte, r store.Record) []byte {
	buf = binary.AppendUvarint(buf, r.Seq)
	buf = binary.AppendVarint(buf, r.Time.UnixNano())
	buf = binary.AppendVarint(buf, r.EndTime.UnixNano())
	buf = appendString(buf, r.Device)
	buf = appendString(buf, r.Name)
	buf = binary.AppendUvarint(buf, uint64(len(r.Args)))
	for _, a := range r.Args {
		buf = appendString(buf, a)
	}
	buf = appendString(buf, r.Response)
	buf = appendString(buf, r.Exception)
	buf = appendString(buf, r.Procedure)
	buf = appendString(buf, r.Run)
	buf = appendString(buf, r.Mode)
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// recordSizeEstimate upper-bounds a record's encoded size, used to split
// oversized batches at block boundaries before encoding.
func recordSizeEstimate(r store.Record) int {
	n := 3*binary.MaxVarintLen64 + 8*binary.MaxVarintLen32
	n += len(r.Device) + len(r.Name) + len(r.Response) + len(r.Exception)
	n += len(r.Procedure) + len(r.Run) + len(r.Mode)
	for _, a := range r.Args {
		n += binary.MaxVarintLen32 + len(a)
	}
	return n
}

// decodePayload parses a block payload. It never panics on corrupt input:
// every length is checked against the remaining bytes before any allocation,
// and trailing garbage after the last record is rejected so that a decoded
// payload always re-encodes byte-identically.
func decodePayload(b []byte) ([]store.Record, error) {
	count, n := binary.Uvarint(b)
	if n <= 0 || count > uint64(len(b)) {
		return nil, errCorrupt
	}
	recs := make([]store.Record, 0, count)
	pos := n
	for i := uint64(0); i < count; i++ {
		r, adv, err := decodeRecord(b[pos:])
		if err != nil {
			return nil, err
		}
		pos += adv
		recs = append(recs, r)
	}
	if pos != len(b) {
		return nil, errCorrupt
	}
	return recs, nil
}

// decodeRecord parses one record, returning the bytes consumed.
func decodeRecord(b []byte) (store.Record, int, error) {
	var r store.Record
	pos := 0

	u, n := binary.Uvarint(b[pos:])
	if n <= 0 {
		return r, 0, errCorrupt
	}
	r.Seq = u
	pos += n

	v, n := binary.Varint(b[pos:])
	if n <= 0 {
		return r, 0, errCorrupt
	}
	r.Time = time.Unix(0, v)
	pos += n

	v, n = binary.Varint(b[pos:])
	if n <= 0 {
		return r, 0, errCorrupt
	}
	r.EndTime = time.Unix(0, v)
	pos += n

	readString := func() (string, bool) {
		l, n := binary.Uvarint(b[pos:])
		if n <= 0 {
			return "", false
		}
		pos += n
		if l > uint64(len(b)-pos) {
			return "", false
		}
		s := string(b[pos : pos+int(l)])
		pos += int(l)
		return s, true
	}

	var ok bool
	if r.Device, ok = readString(); !ok {
		return r, 0, errCorrupt
	}
	if r.Name, ok = readString(); !ok {
		return r, 0, errCorrupt
	}
	nargs, n := binary.Uvarint(b[pos:])
	if n <= 0 || nargs > uint64(len(b)-pos) {
		return r, 0, errCorrupt
	}
	pos += n
	if nargs > 0 {
		r.Args = make([]string, 0, nargs)
		for i := uint64(0); i < nargs; i++ {
			a, ok := readString()
			if !ok {
				return r, 0, errCorrupt
			}
			r.Args = append(r.Args, a)
		}
	}
	if r.Response, ok = readString(); !ok {
		return r, 0, errCorrupt
	}
	if r.Exception, ok = readString(); !ok {
		return r, 0, errCorrupt
	}
	if r.Procedure, ok = readString(); !ok {
		return r, 0, errCorrupt
	}
	if r.Run, ok = readString(); !ok {
		return r, 0, errCorrupt
	}
	if r.Mode, ok = readString(); !ok {
		return r, 0, errCorrupt
	}
	return r, pos, nil
}
