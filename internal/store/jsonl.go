package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// JSONLWriter streams records to w as one JSON document per line — the
// document-store-friendly export format. It implements Sink.
type JSONLWriter struct {
	w       *bufio.Writer
	nextSeq uint64
}

var _ Sink = (*JSONLWriter)(nil)

// NewJSONLWriter wraps w.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{w: bufio.NewWriter(w)}
}

// Append writes one record as a JSON line.
func (j *JSONLWriter) Append(r Record) error {
	if r.Seq == 0 {
		r.Seq = j.nextSeq
	}
	j.nextSeq = r.Seq + 1
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("store: marshal record: %w", err)
	}
	if _, err := j.w.Write(b); err != nil {
		return fmt.Errorf("store: write record: %w", err)
	}
	if err := j.w.WriteByte('\n'); err != nil {
		return fmt.Errorf("store: write newline: %w", err)
	}
	return nil
}

// AppendBatch writes the records as one burst of lines; the encoding is
// identical to per-record Append.
func (j *JSONLWriter) AppendBatch(recs []Record) error {
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			return err
		}
	}
	return j.Flush()
}

var _ BatchSink = (*JSONLWriter)(nil)

// Flush flushes buffered lines to the underlying writer.
func (j *JSONLWriter) Flush() error {
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("store: flush: %w", err)
	}
	return nil
}

// ReadJSONL parses a JSONL export produced by JSONLWriter.
func ReadJSONL(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var out []Record
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("store: jsonl line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("store: scan jsonl: %w", err)
	}
	return out, nil
}

// SeqSink is a sink that assigns sequence numbers and reports each commit
// (MemStore, tracedb.DB).
type SeqSink interface {
	Sink
	Notifier
}

// Tee logs each record to a sequencing sink and then to any further sinks,
// and writes the records the sequencing sink commits — carrying its
// sequence numbers — to its exports (the JSONL/CSV file logs). An export
// therefore numbers records exactly as the store and its live tail do,
// across restarts too, where an export fed directly would count from 0.
//
// Exports are written inside the sequencing sink's commit hook, under its
// lock, so they are serialized and cannot fail an Append: JSONLWriter and
// CSVWriter keep a write error and return it from Flush. Tee implements
// Notifier; a hook set on it runs after the exports, on the same records.
type Tee struct {
	seq     SeqSink
	sinks   []Sink
	exports []Sink
}

var (
	_ Sink     = (*Tee)(nil)
	_ Notifier = (*Tee)(nil)
)

// NewTee builds a Tee over seq, the further sinks, and the exports.
func NewTee(seq SeqSink, sinks []Sink, exports ...Sink) *Tee {
	t := &Tee{seq: seq, sinks: sinks, exports: exports}
	t.SetOnCommit(nil)
	return t
}

// Append logs r to the sequencing sink, then to every further sink in
// order, stopping at the first error.
func (t *Tee) Append(r Record) error {
	if err := t.seq.Append(r); err != nil {
		return err
	}
	for _, s := range t.sinks {
		if err := s.Append(r); err != nil {
			return err
		}
	}
	return nil
}

// SetOnCommit implements Notifier: fn (which may be nil) runs on each
// commit after the exports are written.
func (t *Tee) SetOnCommit(fn func(recs []Record)) {
	t.seq.SetOnCommit(func(recs []Record) {
		for _, r := range recs {
			for _, e := range t.exports {
				_ = e.Append(r)
			}
		}
		if fn != nil {
			fn(recs)
		}
	})
}
