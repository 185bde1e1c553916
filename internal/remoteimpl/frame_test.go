package remoteimpl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestHelloFitsItsFrame keeps maxHelloFrame honest: the largest hello a
// client sends (a session id, resuming) and the largest reply a worker sends
// (a 255-byte debug address) must each fit with room to spare.
func TestHelloFitsItsFrame(t *testing.T) {
	id, err := randomHex(16)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fits := func(what string, v any) {
		t.Helper()
		buf.Reset()
		if _, err := writeMsg(&buf, v); err != nil {
			t.Fatal(err)
		}
		if n := buf.Len() - 4; 4*n > maxHelloFrame {
			t.Fatalf("a hello %s is %d bytes, more than a quarter of the %d-byte limit", what, n, maxHelloFrame)
		}
	}
	fits("frame", &request{Op: opHello, Session: id, Resume: true, Seq: 1 << 62})
	var req request
	if _, err := readMsg(&buf, &req, maxHelloFrame); err != nil || req.Op != opHello || req.Session != id {
		t.Fatalf("hello round trip: %+v, %v", req, err)
	}
	addr := strings.Repeat("d", 255)
	fits("reply", &response{Seq: 1 << 62, Hello: &HelloInfo{Version: protocolVersion, Cores: 1 << 20, Resumed: true, DebugAddr: addr}})
	var resp response
	if _, err := readMsg(&buf, &resp, maxHelloFrame); err != nil || resp.Hello == nil || resp.Hello.DebugAddr != addr {
		t.Fatalf("hello reply round trip: %+v, %v", resp, err)
	}
}

// TestProbeRefusesOversizedHelloReply: a peer that answers the hello with
// the header of a 1 GiB frame is refused under the hello bound, before a
// buffer is made for it.
func TestProbeRefusesOversizedHelloReply(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var req request
		if _, err := readMsg(conn, &req, maxHelloFrame); err == nil {
			conn.Write(binary.BigEndian.AppendUint32(nil, 1<<30))
		}
		io.Copy(io.Discard, conn) // hold the connection open until the client closes it
	}()
	_, err = Probe(ln.Addr().String(), 5*time.Second)
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("Probe after a 1 GiB reply header: %v, want the frame-limit error", err)
	}
}

// TestProbeRefusesVersionOneWorker answers a probe's hello as a version-1
// worker would: the client speaks only protocolVersion and must refuse it.
func TestProbeRefusesVersionOneWorker(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var req request
		if _, err := readMsg(conn, &req, maxHelloFrame); err == nil {
			writeMsg(conn, &response{Seq: req.Seq, Hello: &HelloInfo{Version: 1, Cores: 1}})
		}
		io.Copy(io.Discard, conn) // hold the connection open until the client closes it
	}()
	info, err := Probe(ln.Addr().String(), 5*time.Second)
	if err == nil || !strings.Contains(err.Error(), "protocol version 1") {
		t.Fatalf("Probe of a version-1 worker = %+v, %v; want the version error", info, err)
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
