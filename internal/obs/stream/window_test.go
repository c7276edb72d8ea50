package stream

// White-box tests of the gateway's batched writer: the hand-rolled frame
// encoder against the encoding/json path it replaced, and the flush
// window's behavior on bursts, idle streams, cancellation and eviction.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// jsonFrame is the gateway's frame encoder before batching: one
// json.Marshal per frame.
func jsonFrame(t *testing.T, event, id string, data any) []byte {
	t.Helper()
	payload, err := json.Marshal(data)
	if err != nil {
		t.Fatal(err)
	}
	var b []byte
	b = append(b, "event: "+event+"\n"...)
	if id != "" {
		b = append(b, "id: "+id+"\n"...)
	}
	b = append(b, "data: "...)
	b = append(b, payload...)
	return append(b, '\n', '\n')
}

func TestAppendFramesMatchJSON(t *testing.T) {
	edges := []int64{0, 1, -1, math.MaxInt64, math.MinInt64}
	var evs []Event
	for _, v := range edges {
		evs = append(evs,
			Event{QID: v, Seq: uint64(v), OID: v, Enter: true},
			Event{QID: v, Seq: math.MaxUint64, OID: -v, Enter: false})
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		evs = append(evs, Event{QID: rng.Int63() - rng.Int63(), Seq: rng.Uint64() >> uint(rng.Intn(64)),
			OID: rng.Int63n(1<<uint(1+rng.Intn(62))) - rng.Int63n(1000), Enter: rng.Intn(2) == 0})
	}
	var batch, want []byte
	for _, ev := range evs {
		ref := jsonFrame(t, "result", fmt.Sprintf("%d:%d", ev.QID, ev.Seq), ev)
		if got := appendResult(nil, ev); !bytes.Equal(got, ref) {
			t.Fatalf("appendResult(%+v):\n got %q\nwant %q", ev, got, ref)
		}
		batch = appendResult(batch, ev)
		want = append(want, ref...)
	}
	if !bytes.Equal(batch, want) {
		t.Fatal("a batch of frames differs from the concatenated single frames")
	}

	snaps := []SnapshotEntry{
		{QID: 0, Seq: 0, Members: []int64{}},
		{QID: math.MaxInt64, Seq: math.MaxUint64, Members: edges},
	}
	for i := 0; i < 200; i++ {
		e := SnapshotEntry{QID: rng.Int63(), Seq: rng.Uint64(), Members: []int64{}}
		for j := rng.Intn(20); j > 0; j-- {
			e.Members = append(e.Members, rng.Int63()-rng.Int63())
		}
		snaps = append(snaps, e)
	}
	for _, e := range snaps {
		ref := jsonFrame(t, "snapshot", fmt.Sprintf("%d:%d", e.QID, e.Seq), e)
		if got := appendSnapshot(nil, e); !bytes.Equal(got, ref) {
			t.Fatalf("appendSnapshot(%+v):\n got %q\nwant %q", e, got, ref)
		}
	}
	for _, qid := range edges {
		for _, event := range []string{"live", "evicted"} {
			ref := jsonFrame(t, event, "", map[string]int64{"qid": qid})
			if got := appendMarker(nil, event, qid); !bytes.Equal(got, ref) {
				t.Fatalf("appendMarker(%s, %d):\n got %q\nwant %q", event, qid, got, ref)
			}
		}
	}
}

// countingWriter is an http.ResponseWriter and http.Flusher that records
// the bytes, writes and flushes a handler makes. While stall is held,
// Write blocks (a client that stopped reading).
type countingWriter struct {
	header http.Header
	stall  sync.Mutex

	mu      sync.Mutex
	body    bytes.Buffer
	entered int // Write calls started
	flushes int
}

func newCountingWriter() *countingWriter { return &countingWriter{header: http.Header{}} }

func (c *countingWriter) Header() http.Header { return c.header }
func (c *countingWriter) WriteHeader(int)     {}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.entered++
	c.mu.Unlock()
	c.stall.Lock()
	defer c.stall.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.body.Write(p)
}

func (c *countingWriter) Flush() {
	c.mu.Lock()
	c.flushes++
	c.mu.Unlock()
}

func (c *countingWriter) snapshot() (body string, entered, flushes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.body.String(), c.entered, c.flushes
}

// results parses the result frames out of an SSE body.
func results(t *testing.T, body string) []Event {
	t.Helper()
	var out []Event
	for _, frame := range strings.Split(body, "\n\n") {
		if !strings.HasPrefix(frame, "event: result\n") {
			continue
		}
		var ev Event
		data := frame[strings.Index(frame, "data: ")+len("data: "):]
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatalf("result frame %q: %v", frame, err)
		}
		out = append(out, ev)
	}
	return out
}

func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// startGateway runs the gateway on cw with the given flush window and
// waits for the live marker. It returns the request's cancel and a channel
// closed when the handler returns; the test's cleanup cancels and waits.
func startGateway(t *testing.T, g *Gateway, cw *countingWriter, query string, window time.Duration) (cancel func(), done <-chan struct{}) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("GET", "/debug/stream"+query, nil).WithContext(ctx)
	ch := make(chan struct{})
	go func() {
		g.serveWindow(cw, req, window)
		close(ch)
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Error("gateway did not return after cancellation")
		}
	})
	eventually(t, "live marker", func() bool {
		body, _, _ := cw.snapshot()
		return strings.Contains(body, "event: live\n")
	})
	return cancel, ch
}

// TestGatewayBurstCoalesced pins the window: a burst published inside one
// flush window reaches the client gap-free in at most two flushes — the
// burst's first event, which finds the stream idle, and the rest. The
// events are spaced so that, without the window, the gateway would drain
// and flush them one by one.
func TestGatewayBurstCoalesced(t *testing.T) {
	const n, gap = 12, 75 * time.Microsecond
	tap := NewTap()
	g := NewGateway(tap)
	cw := newCountingWriter()
	startGateway(t, g, cw, "", flushWindow)

	for attempt := 1; ; attempt++ {
		time.Sleep(5 * flushWindow) // let the stream go idle
		_, _, before := cw.snapshot()
		start := time.Now()
		for i := 0; i < n; i++ {
			for time.Since(start) < time.Duration(i)*gap {
			}
			tap.Publish(1, int64(i), attempt%2 == 1)
		}
		took := time.Since(start)
		eventually(t, "burst delivery", func() bool {
			body, _, _ := cw.snapshot()
			return len(results(t, body)) == attempt*n
		})
		body, _, after := cw.snapshot()
		if took >= flushWindow {
			// The burst did not fit in one window, so a third flush
			// would be legitimate; try again.
			if attempt == 10 {
				t.Skipf("publishing %d events took %v, longer than the %v window, in every attempt", n, took, flushWindow)
			}
			continue
		}
		if flushes := after - before; flushes > 2 {
			t.Fatalf("burst of %d events published in %v took %d flushes, want <= 2", n, took, flushes)
		}
		for i, ev := range results(t, body) {
			if ev.QID != 1 || ev.Seq != uint64(i+1) {
				t.Fatalf("result %d = %+v, want qid 1 seq %d", i, ev, i+1)
			}
		}
		return
	}
}

// TestGatewayIdleEventNotHeld pins the other side of the window: the first
// event on an idle stream is written at once, without a window wait.
func TestGatewayIdleEventNotHeld(t *testing.T) {
	tap := NewTap()
	g := NewGateway(tap)
	cw := newCountingWriter()
	startGateway(t, g, cw, "", flushWindow)

	time.Sleep(5 * flushWindow)
	tap.Publish(1, 100, true)
	eventually(t, "event delivery", func() bool {
		body, _, _ := cw.snapshot()
		return len(results(t, body)) == 1
	})
	if w := g.windowWaits.Value(); w != 0 {
		t.Fatalf("idle stream's first event waited out %d windows, want 0", w)
	}
}

// TestGatewayCancelDuringWindow pins that a request cancelled while a
// batch waits out its window returns promptly and writes nothing more.
func TestGatewayCancelDuringWindow(t *testing.T) {
	tap := NewTap()
	g := NewGateway(tap)
	cw := newCountingWriter()
	cancel, done := startGateway(t, g, cw, "", time.Hour)

	tap.Publish(1, 100, true) // the live marker was just written: held
	eventually(t, "window wait", func() bool { return g.windowWaits.Value() == 1 })
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("gateway still waiting out its window after cancellation")
	}
	if body, _, _ := cw.snapshot(); len(results(t, body)) != 0 {
		t.Fatalf("held batch written after cancellation: %q", body)
	}
}

// TestGatewayEvictionTerminal pins that a subscriber evicted while its
// client is stalled still ends its stream with the `evicted` event.
func TestGatewayEvictionTerminal(t *testing.T) {
	tap := NewTap()
	g := NewGateway(tap)
	cw := newCountingWriter()
	_, done := startGateway(t, g, cw, "?qid=1&buf=2", flushWindow)

	cw.stall.Lock()
	time.Sleep(5 * flushWindow)
	tap.Publish(1, 100, true) // idle stream: written at once, and stalls
	eventually(t, "stalled write", func() bool {
		_, entered, _ := cw.snapshot()
		return entered == 2
	})
	for oid := int64(101); oid < 104; oid++ {
		tap.Publish(1, oid, true) // the third overflows buf=2
	}
	if _, _, _, evictions := tap.Stats(); evictions != 1 {
		t.Fatalf("evictions = %d, want 1", evictions)
	}
	cw.stall.Unlock()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("gateway did not end the evicted stream")
	}
	body, _, _ := cw.snapshot()
	if want := "event: evicted\ndata: {\"qid\":1}\n\n"; !strings.HasSuffix(body, want) {
		t.Fatalf("stream does not end with %q:\n%s", want, body)
	}
	if evs := results(t, body); len(evs) != 1 || evs[0].OID != 100 {
		t.Fatalf("results before eviction = %+v, want only oid 100", evs)
	}
	if g.evictedConns.Value() != 1 || tap.Subscribers() != 0 {
		t.Fatalf("evicted conns = %d, subscribers = %d", g.evictedConns.Value(), tap.Subscribers())
	}
}
