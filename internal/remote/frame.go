// Package remote runs MobiEyes over real TCP connections: the server is a
// network service and every moving object is a client endpoint (typically a
// separate process) speaking the binary protocol of internal/wire. It turns
// the simulated system into a deployable one — the same core.Server and
// core.Client state machines, the same messages, now crossing sockets.
//
// Time is absolute: hours since the Unix epoch, which realizes the paper's
// "moving objects have synchronized clocks" assumption (§2.1) for processes
// on NTP-synchronized hosts.
//
// Stream format: each frame is a 4-byte little-endian length followed by
// either a handshake (frame starting with the hello tag) or one
// wire-encoded protocol message.
package remote

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/wire"
)

// maxFrame guards against hostile or corrupt length prefixes. The largest
// legitimate message is a QueryInstall during a dense cell change; 1 MiB
// allows ~10,000 query states.
const maxFrame = 1 << 20

// helloTag distinguishes the one handshake frame from protocol frames.
// wire messages always start with the wire magic's low byte, which differs.
const helloTag = 0x48 // 'H'

// HelloVersion is the handshake protocol version spoken by this build.
// Version 1 was the unversioned 5-byte [tag, oid] form; version 2 added the
// version byte so incompatible peers are refused explicitly instead of
// misparsed.
const HelloVersion = 2

// HelloVersionError reports a handshake from a peer speaking a different
// protocol version. It is a typed rejection: the session is refused, but the
// caller can tell "wrong version" apart from "corrupt frame".
type HelloVersionError struct{ Got uint8 }

func (e *HelloVersionError) Error() string {
	return fmt.Sprintf("remote: peer hello is protocol version %d, this build speaks %d", e.Got, HelloVersion)
}

// WriteFrame writes a length-prefixed payload with a single Write.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("remote: frame of %d bytes exceeds limit", len(payload))
	}
	b := make([]byte, 4, 4+len(payload))
	binary.LittleEndian.PutUint32(b, uint32(len(payload)))
	_, err := w.Write(append(b, payload...))
	return err
}

// frameBatch writes a queue of frames as one vectored write — a single
// writev(2) on a TCP connection — reusing its header block and I/O vector
// across calls. Not safe for concurrent use.
type frameBatch struct {
	hdrs []byte   // length prefixes, 4 bytes per frame
	iov  [][]byte // header, payload, header, payload, …
}

// maxReusedBatch caps the frame count whose header block and vector a
// frameBatch keeps for the next call, so one burst does not pin memory for
// the connection's lifetime.
const maxReusedBatch = 1024

// write sends frames in order and returns the bytes written, length
// prefixes included. A frame over the size limit fails the whole batch
// before anything is written.
func (fb *frameBatch) write(w io.Writer, frames [][]byte) (int64, error) {
	if cap(fb.hdrs) < 4*len(frames) {
		fb.hdrs = make([]byte, 4*len(frames))
	}
	hdrs := fb.hdrs[:4*len(frames)]
	iov := fb.iov[:0]
	for i, f := range frames {
		if len(f) > maxFrame {
			return 0, fmt.Errorf("remote: frame of %d bytes exceeds limit", len(f))
		}
		h := hdrs[4*i : 4*i+4]
		binary.LittleEndian.PutUint32(h, uint32(len(f)))
		iov = append(iov, h, f)
	}
	// WriteTo consumes the Buffers value it is called on; bufs is a copy,
	// so iov keeps the backing array for reuse.
	bufs := net.Buffers(iov)
	n, err := bufs.WriteTo(w)
	clear(iov) // drop payload references until the next batch
	if len(frames) <= maxReusedBatch {
		fb.iov = iov[:0]
	} else {
		fb.hdrs, fb.iov = nil, nil
	}
	return n, err
}

// readFrameInto reads one length-prefixed payload into buf, allocating only
// when the frame outgrows buf's capacity. The payload aliases buf, so it is
// valid until the next call with the same buffer.
func readFrameInto(r *bufio.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(buf)
	if n > maxFrame {
		return nil, fmt.Errorf("remote: frame of %d bytes exceeds limit", n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// frameBuffered reports whether r already holds the whole next frame, so
// reading it cannot block.
func frameBuffered(r *bufio.Reader) bool {
	if r.Buffered() < 4 {
		return false
	}
	hdr, _ := r.Peek(4) // cannot fail: 4 bytes are buffered
	return 4+int(binary.LittleEndian.Uint32(hdr)) <= r.Buffered()
}

// ReadFrame reads one length-prefixed payload into a fresh buffer the caller
// owns.
func ReadFrame(r *bufio.Reader) ([]byte, error) { return readFrameInto(r, nil) }

// EncodeHello builds the handshake frame payload announcing an object ID:
// [tag, version, oid u32].
func EncodeHello(oid model.ObjectID) []byte {
	b := make([]byte, 6)
	b[0] = helloTag
	b[1] = HelloVersion
	binary.LittleEndian.PutUint32(b[2:], uint32(oid))
	return b
}

// decodeHello parses a handshake payload. A recognizable hello of the wrong
// protocol version — including the legacy unversioned 5-byte form, which is
// version 1 — returns a *HelloVersionError; anything else is malformed.
func decodeHello(b []byte) (model.ObjectID, error) {
	switch {
	case len(b) == 5 && b[0] == helloTag:
		return 0, &HelloVersionError{Got: 1}
	case len(b) == 6 && b[0] == helloTag:
		if b[1] != HelloVersion {
			return 0, &HelloVersionError{Got: b[1]}
		}
		return model.ObjectID(binary.LittleEndian.Uint32(b[2:])), nil
	}
	return 0, fmt.Errorf("remote: malformed hello (%d bytes)", len(b))
}

// messageFrame encodes a protocol message as a frame payload.
func messageFrame(m msg.Message) []byte { return wire.Encode(m) }

// ControlFrame reports whether a frame payload is transport-control traffic
// — the handshake hello or a Ping/Pong probe. Fault injectors must pass
// these through undisturbed: dropping a hello kills the session instead of
// degrading it, and the simulation harness's quiescence barrier relies on
// Ping/Pong surviving.
func ControlFrame(payload []byte) bool {
	// Both hello shapes pass: a wrong-version hello must reach the server so
	// it is refused with a typed error, not silently eaten by a relay.
	if (len(payload) == 5 || len(payload) == 6) && payload[0] == helloTag {
		return true
	}
	if len(payload) >= 4 && binary.LittleEndian.Uint16(payload) == wire.Magic {
		k := msg.Kind(payload[3])
		return k == msg.KindPing || k == msg.KindPong
	}
	return false
}

// nowHours returns the absolute protocol time: hours since the Unix epoch.
func nowHours() model.Time {
	return model.Time(float64(time.Now().UnixNano()) / float64(time.Hour))
}
