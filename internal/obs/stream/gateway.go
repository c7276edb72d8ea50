package stream

import (
	"net/http"
	"strconv"
	"time"

	"mobieyes/internal/obs"
)

// Gateway serves the tap over HTTP as Server-Sent Events with
// snapshot-then-delta semantics:
//
//	GET /debug/stream            firehose: every query's events
//	GET /debug/stream?qid=N      one query's events
//	GET /debug/stream?buf=N      per-connection buffer (events; clamped)
//
// On connect the client receives one `snapshot` event per query (sequenced
// members, SSE id "qid:seq"), then a `live` marker, then `result` deltas
// whose ids continue each query's sequence with no gap. A client that
// cannot keep up is evicted: it receives a final `evicted` event (best
// effort) and the connection closes; reconnecting re-snapshots.
//
// Each drain goes out as one write and one flush, and a busy stream writes
// at most once per flushWindow. Writes carry a per-write deadline so a
// stalled TCP peer cannot pin the fan-out goroutine — and the engine is
// insulated regardless, because the engine only ever appends to the
// bounded subscriber buffer.
type Gateway struct {
	tap *Tap

	// BufCap is the default per-connection event buffer (default 1024).
	BufCap int
	// WriteTimeout is the per-write deadline (default 5s).
	WriteTimeout time.Duration
	// Heartbeat is the idle keep-alive comment interval (default 15s).
	Heartbeat time.Duration

	costHook func(bytes int)

	conns        obs.Counter // connections accepted
	evictedConns obs.Counter // connections closed by eviction
	bytesOut     obs.Counter // SSE bytes written
	windowWaits  obs.Counter // result batches held to the end of a flush window
}

// NewGateway returns a gateway over tap with default limits.
func NewGateway(tap *Tap) *Gateway {
	return &Gateway{tap: tap, BufCap: 1024, WriteTimeout: 5 * time.Second, Heartbeat: 15 * time.Second}
}

// Tap returns the gateway's tap.
func (g *Gateway) Tap() *Tap {
	if g == nil {
		return nil
	}
	return g.tap
}

// SetCostHook installs the encode-boundary charging hook (e.g.
// cost.Accountant.GatewayEgress): it is called once per write with the
// exact SSE bytes of that write, which may hold many frames. Call before
// traffic; nil disables.
func (g *Gateway) SetCostHook(fn func(bytes int)) {
	if g == nil {
		return
	}
	g.costHook = fn
}

// Instrument registers gateway counters on reg (the tap is instrumented
// separately):
//
//	mobieyes_stream_connections_total         SSE connections accepted
//	mobieyes_stream_evicted_connections_total connections closed by eviction
//	mobieyes_stream_egress_bytes_total        SSE bytes written
//	mobieyes_stream_window_waits_total        result batches held by the flush window
func (g *Gateway) Instrument(reg *obs.Registry) {
	if g == nil || reg == nil {
		return
	}
	reg.RegisterCounter("mobieyes_stream_connections_total",
		"SSE stream connections accepted.", &g.conns)
	reg.RegisterCounter("mobieyes_stream_evicted_connections_total",
		"SSE stream connections closed by slow-consumer eviction.", &g.evictedConns)
	reg.RegisterCounter("mobieyes_stream_egress_bytes_total",
		"SSE bytes written to stream subscribers.", &g.bytesOut)
	reg.RegisterCounter("mobieyes_stream_window_waits_total",
		"SSE result batches held to the end of the 1 ms flush window.", &g.windowWaits)
}

// Attach mounts the gateway on mux at /debug/stream. A nil gateway answers
// 404 (streaming disabled).
func Attach(mux *http.ServeMux, g *Gateway) {
	mux.HandleFunc("/debug/stream", func(w http.ResponseWriter, req *http.Request) {
		if g == nil || g.tap == nil {
			http.Error(w, "streaming disabled", http.StatusNotFound)
			return
		}
		g.serve(w, req)
	})
}

// flushWindow is the minimum spacing of result writes on a busy stream.
// A result batch ready sooner than this after the previous write waits out
// the rest of the window, so a stream carrying thousands of events a
// second costs one write, one flush and one client wakeup per window
// rather than per event. An idle stream's first event goes out at once.
// The price is up to one window of added delivery lag (DESIGN.md §17).
const flushWindow = time.Millisecond

func (g *Gateway) serve(w http.ResponseWriter, req *http.Request) {
	g.serveWindow(w, req, flushWindow)
}

// serveWindow is serve with the flush window as a parameter, so tests can
// hold a batch open long enough to act inside the wait.
func (g *Gateway) serveWindow(w http.ResponseWriter, req *http.Request, window time.Duration) {
	qid := Firehose
	if v := req.URL.Query().Get("qid"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			http.Error(w, "bad qid parameter", http.StatusBadRequest)
			return
		}
		qid = n
	}
	bufCap := g.BufCap
	if bufCap <= 0 {
		bufCap = 1024
	}
	if v := req.URL.Query().Get("buf"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			http.Error(w, "bad buf parameter", http.StatusBadRequest)
			return
		}
		if n < bufCap {
			bufCap = n
		}
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	g.conns.Add(1)

	rc := http.NewResponseController(w)
	writeTimeout := g.WriteTimeout
	if writeTimeout <= 0 {
		writeTimeout = 5 * time.Second
	}
	var lastWrite time.Time
	// write emits a batch of whole SSE frames with one Write and one Flush
	// and charges its exact byte length at the encode boundary — the same
	// on-the-wire rule the remote transport applies to frames (DESIGN.md
	// §12).
	write := func(b []byte) error {
		rc.SetWriteDeadline(time.Now().Add(writeTimeout))
		n, err := w.Write(b)
		if n > 0 {
			g.bytesOut.Add(int64(n))
			if g.costHook != nil {
				g.costHook(n)
			}
		}
		if err != nil {
			return err
		}
		err = rc.Flush()
		lastWrite = time.Now()
		return err
	}

	sub, snap := g.tap.Subscribe(qid, bufCap)
	defer sub.Close()

	var buf []byte
	for _, e := range snap {
		buf = appendSnapshot(buf, e)
	}
	buf = appendMarker(buf, "live", qid)
	if write(buf) != nil {
		return
	}

	heartbeat := g.Heartbeat
	if heartbeat <= 0 {
		heartbeat = 15 * time.Second
	}
	ticker := time.NewTicker(heartbeat)
	defer ticker.Stop()
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for {
		select {
		case <-req.Context().Done():
			return
		case <-ticker.C:
			if write([]byte(": ping\n\n")) != nil {
				return
			}
		case <-sub.Ready():
			if wait := window - time.Since(lastWrite); wait > 0 {
				g.windowWaits.Add(1)
				timer.Reset(wait)
				select {
				case <-req.Context().Done():
					timer.Stop()
					return
				case <-timer.C:
				}
			}
			evs, evicted := sub.Drain()
			buf = buf[:0]
			for _, ev := range evs {
				buf = appendResult(buf, ev)
			}
			if evicted {
				g.evictedConns.Add(1)
				buf = appendMarker(buf, "evicted", qid)
				write(buf)
				return
			}
			if len(buf) > 0 && write(buf) != nil {
				return
			}
		}
	}
}

// appendResult appends ev's `result` frame to b, byte-identical to the
// encoding/json rendering of Event under SSE id "qid:seq".
func appendResult(b []byte, ev Event) []byte {
	b = appendHead(b, "result", ev.QID, ev.Seq)
	b = append(b, `,"oid":`...)
	b = strconv.AppendInt(b, ev.OID, 10)
	b = append(b, `,"enter":`...)
	b = strconv.AppendBool(b, ev.Enter)
	return append(b, "}\n\n"...)
}

// appendSnapshot appends e's `snapshot` frame to b, byte-identical to the
// encoding/json rendering of SnapshotEntry under SSE id "qid:seq" for the
// non-nil Members that Subscribe always returns.
func appendSnapshot(b []byte, e SnapshotEntry) []byte {
	b = appendHead(b, "snapshot", e.QID, e.Seq)
	b = append(b, `,"members":[`...)
	for i, oid := range e.Members {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, oid, 10)
	}
	return append(b, "]}\n\n"...)
}

// appendHead appends a sequenced frame's event and id lines and opens its
// data object with the "qid" and "seq" fields.
func appendHead(b []byte, event string, qid int64, seq uint64) []byte {
	b = append(b, "event: "...)
	b = append(b, event...)
	b = append(b, "\nid: "...)
	b = strconv.AppendInt(b, qid, 10)
	b = append(b, ':')
	b = strconv.AppendUint(b, seq, 10)
	b = append(b, "\ndata: {\"qid\":"...)
	b = strconv.AppendInt(b, qid, 10)
	b = append(b, `,"seq":`...)
	return strconv.AppendUint(b, seq, 10)
}

// appendMarker appends an id-less `live` or `evicted` frame carrying the
// subscribed qid.
func appendMarker(b []byte, event string, qid int64) []byte {
	b = append(b, "event: "...)
	b = append(b, event...)
	b = append(b, "\ndata: {\"qid\":"...)
	b = strconv.AppendInt(b, qid, 10)
	return append(b, "}\n\n"...)
}
