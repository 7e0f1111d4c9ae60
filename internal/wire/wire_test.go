package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// roundTrip writes v through a Conn and reads it back into out.
func roundTrip(t *testing.T, v, out any) {
	t.Helper()
	var buf bytes.Buffer
	c := NewConn(&buf, nil)
	if err := c.WriteFrame(v); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	if err := c.ReadFrame(out); err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
}

func TestRoundTripRequest(t *testing.T) {
	tests := []struct {
		name string
		req  Request
	}{
		{"exec", Request{ID: 1, Op: OpExec, Device: "C9", Name: "ARM", Args: []string{"10", "20", "30"}}},
		{"trace", Request{ID: 42, Op: OpTrace, Device: "UR3e", Name: "move_joints", Value: "ok", StartNanos: 100, EndNanos: 250, Procedure: "P2"}},
		{"ping", Request{ID: 7, Op: OpPing}},
		{"error", Request{ID: 9, Op: OpTrace, Device: "Quantos", Name: "start_dosing", Error: "front door crashed"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var got Request
			roundTrip(t, tt.req, &got)
			if !reflect.DeepEqual(got, tt.req) {
				t.Errorf("round trip mismatch: got %+v want %+v", got, tt.req)
			}
		})
	}
}

func TestRoundTripReply(t *testing.T) {
	want := Reply{ID: 3, Value: "MVNG 0 0 0 0", Error: ""}
	var got Reply
	roundTrip(t, want, &got)
	if got != want {
		t.Errorf("got %+v want %+v", got, want)
	}
}

func TestMultipleFramesSequential(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf, nil)
	for i := uint64(0); i < 10; i++ {
		if err := c.WriteFrame(Request{ID: i, Op: OpExec, Name: "Q"}); err != nil {
			t.Fatalf("WriteFrame %d: %v", i, err)
		}
	}
	for i := uint64(0); i < 10; i++ {
		var got Request
		if err := c.ReadFrame(&got); err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if got.ID != i {
			t.Errorf("frame %d: got ID %d", i, got.ID)
		}
	}
}

func TestReadFrameEOFOnEmpty(t *testing.T) {
	var got Request
	err := NewConn(bytes.NewBuffer(nil), nil).ReadFrame(&got)
	if !errors.Is(err, io.EOF) {
		t.Errorf("want io.EOF, got %v", err)
	}
}

// TestReadFrameTruncatedPayload: a frame whose payload stops short of its
// announced length is a read error, not a decode of the bytes that did
// arrive.
func TestReadFrameTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := NewConn(&buf, nil).WriteFrame(Request{ID: 1, Op: OpExec, Device: "C9"}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	var got Request
	err := NewConn(bytes.NewBuffer(trunc), nil).ReadFrame(&got)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("want io.ErrUnexpectedEOF on a truncated payload, got %v", err)
	}
}

// TestReadFrameOversizedHeaderRejected pins the size gate's boundary: a
// header announcing MaxFrameSize passes it (and then fails for want of
// payload), one byte more is ErrFrameTooLarge before anything is read.
func TestReadFrameOversizedHeaderRejected(t *testing.T) {
	var got Request
	err := NewConn(bytes.NewBuffer(binary.AppendUvarint(nil, MaxFrameSize)), nil).ReadFrame(&got)
	if err == nil || errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("header at the limit: want a short-read error, got %v", err)
	}
	err = NewConn(bytes.NewBuffer(binary.AppendUvarint(nil, MaxFrameSize+1)), nil).ReadFrame(&got)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("header past the limit: want ErrFrameTooLarge, got %v", err)
	}
}

// TestWriteFrameOversizedRejected: a frame refused for size puts no bytes
// on the wire, so the connection stays in sync for the next frame.
func TestWriteFrameOversizedRejected(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf, nil)
	err := c.WriteFrame(Reply{ID: 1, Value: strings.Repeat("x", MaxFrameSize)})
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("want ErrFrameTooLarge, got %v", err)
	}
	if buf.Len() != 0 {
		t.Errorf("refused frame wrote %d bytes", buf.Len())
	}
}

func TestReadFrameGarbagePayload(t *testing.T) {
	payload := []byte("this is not a frame")
	frame := append(binary.AppendUvarint(nil, uint64(len(payload))), payload...)
	var got Request
	if err := NewConn(bytes.NewBuffer(frame), nil).ReadFrame(&got); err == nil {
		t.Error("want error on garbage payload, got nil")
	}
}

// TestRoundTripProperty checks that any request survives a frame round trip.
func TestRoundTripProperty(t *testing.T) {
	f := func(id uint64, device, name, value, errStr string, args []string) bool {
		in := Request{ID: id, Op: OpExec, Device: device, Name: name, Args: args, Value: value, Error: errStr}
		var buf bytes.Buffer
		c := NewConn(&buf, nil)
		if err := c.WriteFrame(in); err != nil {
			// Only oversized frames may fail; those are outside quick's
			// default value sizes.
			return false
		}
		var out Request
		if err := c.ReadFrame(&out); err != nil {
			return false
		}
		if len(in.Args) == 0 {
			in.Args = nil // the codec omits an empty slice
		}
		return reflect.DeepEqual(out, in)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
