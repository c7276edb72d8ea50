package remote

import (
	"bufio"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"mobieyes/internal/geo"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/wire"
)

// The reader of a connection writes the frames its input burst queued at
// the burst's end; the writer goroutine serves frames other goroutines
// queue in between. These tests drive that path through a real Server.

// rawObject is a bare device socket: a hello for oid, then whatever frames
// the test writes.
type rawObject struct {
	conn net.Conn
	br   *bufio.Reader
}

// dialRaw connects a raw device to s over conn and waits until the server
// has registered it.
func dialRaw(tb testing.TB, s *Server, conn net.Conn, oid model.ObjectID) *rawObject {
	tb.Helper()
	tb.Cleanup(func() { conn.Close() })
	want := s.NumConnected() + 1
	if err := WriteFrame(conn, EncodeHello(oid)); err != nil {
		tb.Fatal(err)
	}
	if !waitFor(tb, 2*time.Second, func() bool { return s.NumConnected() == want }) {
		tb.Fatalf("object %d never connected", oid)
	}
	return &rawObject{conn: conn, br: bufio.NewReader(conn)}
}

func dialRawTCP(tb testing.TB, s *Server, oid model.ObjectID) *rawObject {
	tb.Helper()
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	return dialRaw(tb, s, conn, oid)
}

// write sends frames as one Write, so they arrive as one input burst.
func (r *rawObject) write(tb testing.TB, ms ...msg.Message) {
	tb.Helper()
	var b []byte
	for _, m := range ms {
		b = appendFrame(b, wire.Encode(m))
	}
	if _, err := r.conn.Write(b); err != nil {
		tb.Fatal(err)
	}
}

func appendFrame(b, payload []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	return append(b, payload...)
}

// next reads one downlink, failing if none arrives before the deadline.
func (r *rawObject) next(tb testing.TB, deadline time.Time) msg.Message {
	tb.Helper()
	r.conn.SetReadDeadline(deadline)
	payload, err := ReadFrame(r.br)
	if err != nil {
		tb.Fatalf("reading a downlink: %v", err)
	}
	m, err := wire.Decode(payload)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// until reads downlinks until one satisfies stop and returns it.
func (r *rawObject) until(tb testing.TB, d time.Duration, stop func(msg.Message) bool) msg.Message {
	tb.Helper()
	deadline := time.Now().Add(d)
	for {
		if m := r.next(tb, deadline); stop(m) {
			return m
		}
	}
}

func isKind(k msg.Kind) func(msg.Message) bool {
	return func(m msg.Message) bool { return m.Kind() == k }
}

// focalPos is where installFocal places its focal object.
var focalPos = geo.Pt(50, 50)

// installFocal installs a query bound to the raw object f, answers the
// server's FocalInfoRequest, and waits for the QueryInstall broadcast.
func installFocal(tb testing.TB, s *Server, f *rawObject, oid model.ObjectID) {
	tb.Helper()
	s.InstallQuery(oid, model.CircleRegion{R: 3}, acceptAll, 100000)
	f.until(tb, 2*time.Second, isKind(msg.KindFocalInfoRequest))
	f.write(tb, msg.FocalInfoResponse{OID: oid, Pos: focalPos, Tm: nowHours()})
	f.until(tb, 2*time.Second, isKind(msg.KindQueryInstall))
}

// velocityReport is the i-th velocity change of focal oid; its VelocityChange
// broadcast carries i as the X velocity.
func velocityReport(oid model.ObjectID, i int) msg.VelocityReport {
	return msg.VelocityReport{OID: oid, Pos: focalPos, Vel: geo.Vec(float64(i), 0), Tm: nowHours()}
}

// TestBurstPongFencesCausedDownlinks: N uplinks that each cause a
// broadcast, plus a Ping, written at once: every broadcast arrives in
// order, and the Pong after all of them. N spans several read buffers, so
// frames straddle buffer boundaries and the input splits into bursts.
func TestBurstPongFencesCausedDownlinks(t *testing.T) {
	s := testServer(t)
	f := dialRawTCP(t, s, 1)
	installFocal(t, s, f, 1)
	const n = 300
	var ms []msg.Message
	for i := 1; i <= n; i++ {
		ms = append(ms, velocityReport(1, i))
	}
	f.write(t, append(ms, msg.Ping{Token: 7})...)
	deadline := time.Now().Add(5 * time.Second)
	for want := 1; ; want++ {
		switch v := f.next(t, deadline).(type) {
		case msg.VelocityChange:
			if got := int(v.State.Vel.X); got != want {
				t.Fatalf("velocity change %d arrived at position %d", got, want)
			}
		case msg.Pong:
			if v.Token != 7 || want != n+1 {
				t.Fatalf("pong %d after %d of %d velocity changes", v.Token, want-1, n)
			}
			return
		default:
			t.Fatalf("unexpected downlink %T", v)
		}
	}
}

// TestBurstStalledReaderStillReceives: connection B sends a Ping and then
// only the 4-byte header of its next frame, so its reader blocks mid-frame
// with a burst just dispatched. A broadcast caused by connection A must
// still reach B: the hold on B's outbox ends before the blocking read, so
// later sends wake B's writer.
func TestBurstStalledReaderStillReceives(t *testing.T) {
	s := testServer(t)
	a := dialRawTCP(t, s, 1)
	b := dialRawTCP(t, s, 2)
	installFocal(t, s, a, 1)
	b.until(t, 2*time.Second, isKind(msg.KindQueryInstall))

	before := s.om.framesIn.Value()
	partial := binary.LittleEndian.AppendUint32(appendFrame(nil, wire.Encode(msg.Ping{Token: 1})), 40)
	if _, err := b.conn.Write(partial); err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, 2*time.Second, func() bool { return s.om.framesIn.Value() > before }) {
		t.Fatal("server never read B's ping")
	}
	a.write(t, velocityReport(1, 9))
	pong := false
	m := b.until(t, 2*time.Second, func(m msg.Message) bool {
		pong = pong || m.Kind() == msg.KindPong
		return m.Kind() == msg.KindVelocityChange
	})
	if v := m.(msg.VelocityChange); v.State.Vel.X != 9 || !pong {
		t.Fatalf("velocity change %v after pong %v, want X velocity 9 after the pong", v.State.Vel, pong)
	}
}

// pipeListener serves in-memory net.Pipe connections. A pipe write blocks
// until the peer reads, so a device that never reads stalls every write
// to it at once.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

func (l *pipeListener) dial() net.Conn {
	client, server := net.Pipe()
	l.conns <- server
	return client
}

// TestBurstStuckDeviceDoesNotDelayOthers: device X never reads, so the
// write of its Pong blocks its reader. Device Y's uplinks broadcast to X
// too, yet Y's downlinks and Pong arrive: a stuck peer blocks only its own
// connection, never the engine or other connections.
func TestBurstStuckDeviceDoesNotDelayOthers(t *testing.T) {
	ln := newPipeListener()
	s, err := Serve(ServerConfig{UoD: geo.NewRect(0, 0, 100, 100), Alpha: 5}, ln)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	x := dialRaw(t, s, ln.dial(), 1)
	y := dialRaw(t, s, ln.dial(), 2)

	before := s.om.framesIn.Value()
	go x.conn.Write(appendFrame(nil, wire.Encode(msg.Ping{Token: 1})))
	if !waitFor(t, 2*time.Second, func() bool { return s.om.framesIn.Value() > before }) {
		t.Fatal("server never read X's ping")
	}

	installFocal(t, s, y, 2)
	y.write(t, velocityReport(2, 1), velocityReport(2, 2), msg.Ping{Token: 2})
	deadline := time.Now().Add(2 * time.Second)
	for want := 1; ; want++ {
		switch v := y.next(t, deadline).(type) {
		case msg.VelocityChange:
			if int(v.State.Vel.X) != want {
				t.Fatalf("velocity change %v at position %d", v.State.Vel, want)
			}
		case msg.Pong:
			if want != 3 {
				t.Fatalf("pong after %d of 2 velocity changes", want-1)
			}
			return
		default:
			t.Fatalf("unexpected downlink %T", v)
		}
	}
}

// TestBurstDepartureFlushesQueuedFrames: frames queued in the same burst
// before a DepartureReport are written before the server closes the
// connection.
func TestBurstDepartureFlushesQueuedFrames(t *testing.T) {
	s := testServer(t)
	for round := 0; round < 20; round++ {
		d := dialRawTCP(t, s, 5)
		d.write(t, msg.Ping{Token: 1}, msg.Ping{Token: 2}, msg.DepartureReport{OID: 5})
		deadline := time.Now().Add(2 * time.Second)
		for want := uint64(1); want <= 2; want++ {
			m := d.next(t, deadline)
			if p, ok := m.(msg.Pong); !ok || p.Token != want {
				t.Fatalf("round %d: got %v, want pong %d", round, m, want)
			}
		}
		d.conn.SetReadDeadline(deadline)
		if _, err := d.br.ReadByte(); err == nil {
			t.Fatalf("round %d: data after the last pong, want the connection closed", round)
		}
		d.conn.Close()
		if !waitFor(t, 2*time.Second, func() bool { return s.NumConnected() == 0 }) {
			t.Fatalf("round %d: departed object still connected", round)
		}
	}
}

// TestBurstDepartureDoesNotWaitForPeer: a device that stopped reading
// sends a Ping and a DepartureReport in one burst. The server unregisters
// it at once, without waiting for the peer to read the Pong, and gives up
// on that write after departureFlushTimeout, so Close returns.
func TestBurstDepartureDoesNotWaitForPeer(t *testing.T) {
	ln := newPipeListener()
	s, err := Serve(ServerConfig{UoD: geo.NewRect(0, 0, 100, 100), Alpha: 5}, ln)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	d := dialRaw(t, s, ln.dial(), 1)
	bye := appendFrame(appendFrame(nil, wire.Encode(msg.Ping{Token: 1})), wire.Encode(msg.DepartureReport{OID: 1}))
	go d.conn.Write(bye)
	if !waitFor(t, departureFlushTimeout/2, func() bool { return s.NumConnected() == 0 }) {
		t.Fatal("departed object still registered while its last frames wait for the peer")
	}
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(3 * departureFlushTimeout):
		t.Fatal("Close blocked on a departed peer that never reads")
	}
}

// BenchmarkServeConnBurst measures the device transport end to end through
// a real Server over loopback TCP: a focal object writes bursts of 32
// velocity reports and a Ping, and each report's broadcast comes back on
// the same connection, written by its reader at the burst's end.
func BenchmarkServeConnBurst(b *testing.B) {
	s, err := ListenAndServe(ServerConfig{Addr: "127.0.0.1:0", UoD: geo.NewRect(0, 0, 100, 100), Alpha: 5})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	f := dialRawTCP(b, s, 1)
	installFocal(b, s, f, 1)
	const burst = 32
	bursts := (b.N + burst - 1) / burst
	var frames []byte
	for i := 1; i <= burst; i++ {
		frames = appendFrame(frames, wire.Encode(velocityReport(1, i)))
	}
	frames = appendFrame(frames, wire.Encode(msg.Ping{Token: 1}))

	done := make(chan error, 1)
	go func() {
		f.conn.SetReadDeadline(time.Now().Add(time.Minute))
		for pongs := 0; pongs < bursts; {
			payload, err := ReadFrame(f.br)
			if err != nil {
				done <- err
				return
			}
			if msg.Kind(payload[3]) == msg.KindPong {
				pongs++
			}
		}
		done <- nil
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < bursts; i++ {
		if _, err := f.conn.Write(frames); err != nil {
			b.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}

// BenchmarkServeConnFleet is the multi-connection counterpart of
// BenchmarkServeConnBurst, shaped like a real fleet: every device holds its
// own connection and is the focal object of a query. In each round every
// device writes a burst of velocity reports, and the round ends when every
// device has received the VelocityChange broadcast of every report. So
// only one downlink in fleetDevices goes back on its sender's connection;
// the others are written by the receiving connections' writer goroutines,
// or by their readers when they arrive during the receiver's own burst.
// Besides ns per report it reports reader_share, the fraction of downlinks
// written by their connection's reader, and the mean delay from a report's
// send to the receipt of its broadcast on the sender's own connection
// (own_us) and on the other connections (other_us).
func BenchmarkServeConnFleet(b *testing.B) {
	const fleetDevices, burst = 16, 8
	s, err := ListenAndServe(ServerConfig{Addr: "127.0.0.1:0", UoD: geo.NewRect(0, 0, 100, 100), Alpha: 5})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	devs := make([]*rawObject, fleetDevices)
	for i := range devs {
		oid := model.ObjectID(i + 1)
		devs[i] = dialRawTCP(b, s, oid)
		installFocal(b, s, devs[i], oid)
	}
	const perRound = fleetDevices * burst // broadcasts each device receives per round
	rounds := (b.N + perRound - 1) / perRound

	type delays struct {
		own, other   time.Duration
		nOwn, nOther int
	}
	stats := make([]delays, fleetDevices)
	roundDone := make(chan error, fleetDevices)
	for i, d := range devs {
		go func() {
			oid, st := model.ObjectID(i+1), &stats[i]
			d.conn.SetReadDeadline(time.Now().Add(time.Minute))
			for got := 0; got < rounds*perRound; {
				payload, err := ReadFrame(d.br)
				if err != nil {
					roundDone <- err
					return
				}
				if msg.Kind(payload[3]) != msg.KindVelocityChange {
					continue
				}
				m, err := wire.Decode(payload)
				if err != nil {
					roundDone <- err
					return
				}
				v := m.(msg.VelocityChange)
				delay := time.Duration(float64(nowHours()-v.State.Tm) * float64(time.Hour))
				if v.Focal == oid {
					st.own, st.nOwn = st.own+delay, st.nOwn+1
				} else {
					st.other, st.nOther = st.other+delay, st.nOther+1
				}
				if got++; got%perRound == 0 {
					roundDone <- nil
				}
			}
		}()
	}

	var frames []byte
	reader0, out0 := s.om.framesOutReader.Value(), s.om.framesOut.Value()
	b.ResetTimer()
	for r := 0; r < rounds; r++ {
		for i, d := range devs {
			frames = frames[:0]
			for j := 1; j <= burst; j++ {
				// The X velocity alternates, so every report is a change.
				frames = appendFrame(frames, wire.Encode(velocityReport(model.ObjectID(i+1), 1+j%2)))
			}
			if _, err := d.conn.Write(frames); err != nil {
				b.Fatal(err)
			}
		}
		for range devs {
			if err := <-roundDone; err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	var sum delays
	for _, st := range stats {
		sum.own, sum.other = sum.own+st.own, sum.other+st.other
		sum.nOwn, sum.nOther = sum.nOwn+st.nOwn, sum.nOther+st.nOther
	}
	b.ReportMetric(float64(s.om.framesOutReader.Value()-reader0)/float64(s.om.framesOut.Value()-out0), "reader_share")
	b.ReportMetric(sum.own.Seconds()*1e6/float64(sum.nOwn), "own_us")
	b.ReportMetric(sum.other.Seconds()*1e6/float64(sum.nOther), "other_us")
}
