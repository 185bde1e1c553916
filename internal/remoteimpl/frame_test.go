package remoteimpl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

// TestHelloFitsItsFrame keeps maxHelloFrame honest: the largest hello a
// client sends (a session id, resuming) must fit with room to spare.
func TestHelloFitsItsFrame(t *testing.T) {
	var buf bytes.Buffer
	id, err := randomHex(16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writeMsg(&buf, &request{Op: opHello, Session: id, Resume: true, Seq: 1 << 62}); err != nil {
		t.Fatal(err)
	}
	if n := buf.Len() - 4; 4*n > maxHelloFrame {
		t.Fatalf("a hello frame is %d bytes, more than a quarter of the %d-byte limit", n, maxHelloFrame)
	}
	var req request
	if _, err := readMsg(&buf, &req, maxHelloFrame); err != nil || req.Op != opHello || req.Session != id {
		t.Fatalf("hello round trip: %+v, %v", req, err)
	}
}

// TestOversizedHelloIsRefused sends a worker the 4-byte header of a 1 GiB
// first frame from a raw connection: the worker must close the connection
// without making a buffer for it.
func TestOversizedHelloIsRefused(t *testing.T) {
	addr, _, _ := startWorker(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := conn.Write(binary.BigEndian.AppendUint32(nil, 1<<30)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("after a 1 GiB hello header the worker answered %d bytes, %v; want the connection closed", n, err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("refusing the frame allocated %d bytes, want < 1 MiB", grew)
	}
}

// FuzzReadMsg feeds readMsg arbitrary bytes under an arbitrary limit: it
// must never panic, and a frame it decodes must lie within the limit and
// within the bytes given.
func FuzzReadMsg(f *testing.F) {
	frame := func(v any) []byte {
		var buf bytes.Buffer
		if _, err := writeMsg(&buf, v); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(frame(&request{Op: opHello, Session: "0123456789abcdef", Resume: true}), uint16(maxHelloFrame))
	f.Add(frame(&request{Op: opSetTipStates, Buf: 3, Ints: []int{0, 1, 2, 3, 4}}), uint16(maxHelloFrame))
	f.Add(frame(&request{Op: opPing}), uint16(8))
	f.Add(binary.BigEndian.AppendUint32(nil, 1<<30), uint16(maxHelloFrame))
	f.Add([]byte{0, 0, 0, 3, 1, 2, 3}, uint16(0xffff))
	f.Add([]byte{}, uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, limit uint16) {
		var req request
		n, err := readMsg(bytes.NewReader(data), &req, uint32(limit))
		if n > len(data) {
			t.Fatalf("read %d bytes from %d", n, len(data))
		}
		if err == nil && n > 4+int(limit) {
			t.Fatalf("decoded a %d-byte frame under a %d-byte limit", n-4, limit)
		}
	})
}
