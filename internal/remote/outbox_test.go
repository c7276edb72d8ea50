package remote

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/obs"
	"mobieyes/internal/wire"
)

// tcpPair returns both ends of a loopback TCP connection, closed at cleanup.
func tcpPair(tb testing.TB) (server, client net.Conn) {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	server = <-accepted
	if server == nil {
		tb.Fatal("accept failed")
	}
	tb.Cleanup(func() {
		server.Close()
		client.Close()
	})
	return server, client
}

// startOutbox runs an outbox over conn with a fresh registry; the returned
// stop closes it and waits for the writer to exit.
func startOutbox(conn net.Conn) (o *outbox, stop func()) {
	o = newOutbox(conn, newRemoteObs(obs.NewRegistry()))
	var wg sync.WaitGroup
	wg.Add(1)
	go o.run(&wg)
	return o, func() {
		o.close()
		wg.Wait()
	}
}

// tagFrame is a FocalNotify frame whose OID and QID carry a sender and a
// sequence number, so a reader can check per-sender order.
func tagFrame(sender, seq int) []byte {
	return messageFrame(msg.FocalNotify{OID: model.ObjectID(sender), QID: model.QueryID(seq), Install: true})
}

// TestOutboxPongFencesQueuedUnicasts: over a real TCP session, N unicasts
// queued before a Ping arrive in order, all of them before its Pong.
func TestOutboxPongFencesQueuedUnicasts(t *testing.T) {
	s := testServer(t)
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrame(conn, EncodeHello(9)); err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, 2*time.Second, func() bool { return s.NumConnected() == 1 }) {
		t.Fatal("object never connected")
	}
	const n = 500
	down := serverDownlink{s}
	for i := 1; i <= n; i++ {
		down.Unicast(9, msg.FocalNotify{OID: 9, QID: model.QueryID(i), Install: true})
	}
	if err := WriteFrame(conn, messageFrame(msg.Ping{Token: 0xfeed})); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for want := 1; ; want++ {
		payload, err := ReadFrame(br)
		if err != nil {
			t.Fatalf("after %d unicasts: %v", want-1, err)
		}
		m, err := wire.Decode(payload)
		if err != nil {
			t.Fatal(err)
		}
		switch v := m.(type) {
		case msg.FocalNotify:
			if int(v.QID) != want {
				t.Fatalf("unicast %d arrived at position %d", v.QID, want)
			}
		case msg.Pong:
			if want != n+1 {
				t.Fatalf("pong after %d of %d unicasts", want-1, n)
			}
			return
		default:
			t.Fatalf("unexpected downlink %T", m)
		}
	}
}

// TestOutboxCountersMatchFrameSums: across coalesced batches, framesOut and
// bytesOut equal the per-frame sums, and the reader sees exactly those
// bytes.
func TestOutboxCountersMatchFrameSums(t *testing.T) {
	server, client := tcpPair(t)
	o := newOutbox(server, newRemoteObs(obs.NewRegistry()))
	var frames, bytes int64
	enqueue := func(k int) {
		for i := 0; i < k; i++ {
			f := make([]byte, 1+(i*37)%300)
			f[0] = byte(i)
			o.send(f)
			frames++
			bytes += int64(4 + len(f))
		}
	}
	// Queue a burst before the writer starts, so its first wakeup drains a
	// multi-frame batch; then more bursts while it runs.
	enqueue(200)
	var wg sync.WaitGroup
	wg.Add(1)
	go o.run(&wg)
	defer func() {
		o.close()
		wg.Wait()
	}()
	for burst := 0; burst < 20; burst++ {
		enqueue(1 + burst*7)
	}

	read := make([]byte, bytes)
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(client, read); err != nil {
		t.Fatalf("reading %d bytes: %v", bytes, err)
	}
	var got int64
	for off := 0; off < len(read); got++ {
		off += 4 + int(binary.LittleEndian.Uint32(read[off:]))
	}
	if got != frames {
		t.Errorf("reader parsed %d frames, sent %d", got, frames)
	}
	ok := waitFor(t, 2*time.Second, func() bool {
		return o.om.framesOut.Value() == frames && o.om.bytesOut.Value() == bytes
	})
	if !ok {
		t.Errorf("framesOut %d bytesOut %d, want %d and %d",
			o.om.framesOut.Value(), o.om.bytesOut.Value(), frames, bytes)
	}
}

// failConn is a net.Conn whose writes fail; it records Close.
type failConn struct {
	net.Conn
	closed atomic.Bool
}

func (c *failConn) Write([]byte) (int, error) { return 0, errors.New("injected write failure") }
func (c *failConn) Close() error              { c.closed.Store(true); return nil }

// TestOutboxWriteErrorClosesConn: a failed write closes the connection,
// stops the writer, and later sends are dropped.
func TestOutboxWriteErrorClosesConn(t *testing.T) {
	conn := &failConn{}
	o := newOutbox(conn, newRemoteObs(obs.NewRegistry()))
	var wg sync.WaitGroup
	wg.Add(1)
	go o.run(&wg)
	o.send(tagFrame(1, 1))
	o.send(tagFrame(1, 2))
	exited := make(chan struct{})
	go func() {
		wg.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		t.Fatal("writer still running after a write error")
	}
	if !conn.closed.Load() {
		t.Error("write error did not close the connection")
	}
	o.send(tagFrame(1, 3))
	o.mu.Lock()
	closed, queued := o.closed, len(o.queue)
	o.mu.Unlock()
	if !closed || queued != 0 {
		t.Errorf("after the error: closed=%v queued=%d, want closed and nothing queued", closed, queued)
	}
	if n := o.om.framesOut.Value(); n != 0 {
		t.Errorf("framesOut = %d after a failed write, want 0", n)
	}
}

// TestOutboxConcurrentSend: several goroutines sending at once lose no
// frame and keep each sender's order (run it under -race).
func TestOutboxConcurrentSend(t *testing.T) {
	server, client := tcpPair(t)
	o, stop := startOutbox(server)
	defer stop()
	const senders, each = 8, 300
	var wg sync.WaitGroup
	for g := 1; g <= senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; i <= each; i++ {
				o.send(tagFrame(g, i))
			}
		}(g)
	}
	next := make(map[model.ObjectID]model.QueryID)
	br := bufio.NewReader(client)
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < senders*each; i++ {
		payload, err := ReadFrame(br)
		if err != nil {
			t.Fatalf("after %d frames: %v", i, err)
		}
		m, err := wire.Decode(payload)
		if err != nil {
			t.Fatal(err)
		}
		fn := m.(msg.FocalNotify)
		if fn.QID != next[fn.OID]+1 {
			t.Fatalf("sender %d: frame %d after %d", fn.OID, fn.QID, next[fn.OID])
		}
		next[fn.OID] = fn.QID
	}
	wg.Wait()
}

// BenchmarkOutboxDrain measures the writer side of the device transport:
// frames queued in bursts of 32, drained over loopback TCP to a reader that
// discards them.
func BenchmarkOutboxDrain(b *testing.B) {
	server, client := tcpPair(b)
	o, stop := startOutbox(server)
	defer stop()
	frame := tagFrame(1, 1)
	total := int64(b.N) * int64(4+len(frame))
	drained := make(chan error, 1)
	go func() {
		_, err := io.CopyN(io.Discard, client, total)
		drained <- err
	}()
	b.SetBytes(int64(4 + len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.send(frame)
		if i%32 == 31 {
			runtime.Gosched() // let the writer wake between bursts
		}
	}
	if err := <-drained; err != nil {
		b.Fatal(err)
	}
}
