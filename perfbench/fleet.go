package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// serverProc is one mobieyes-server child process.
type serverProc struct {
	cmd                 *exec.Cmd
	pid                 int
	dev, admin, metrics string
	exited              chan struct{}
}

var (
	listenRE  = regexp.MustCompile(`objects on (\S+), admin on (\S+),`)
	metricsRE = regexp.MustCompile(`metrics on http://(\S+)/metrics`)
)

// startServer runs the server binary and waits until it reports its
// listen addresses.
func startServer(bin string, args []string) (*serverProc, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = childAttr()
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	s := &serverProc{cmd: cmd, pid: cmd.Process.Pid, exited: make(chan struct{})}
	ready := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(out)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			if m := metricsRE.FindStringSubmatch(line); m != nil {
				s.metrics = m[1]
			}
			if m := listenRE.FindStringSubmatch(line); m != nil && !announced {
				s.dev, s.admin = m[1], m[2]
				announced = true
				ready <- nil
			}
		}
		if !announced {
			ready <- errors.New("server exited before listening")
		}
		cmd.Wait()
		close(s.exited)
	}()
	select {
	case err := <-ready:
		if err != nil {
			s.stop()
			return nil, err
		}
	case <-time.After(20 * time.Second):
		s.stop()
		return nil, errors.New("server did not start within 20s")
	}
	return s, nil
}

// stop terminates the server and waits for it to exit.
func (s *serverProc) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(5 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

// fleetSpec describes one serving workload.
type fleetSpec struct {
	name     string
	mix      mix
	args     []string // server flags beyond the listen addresses and grid
	observed bool     // subscribe to /debug/stream
	lo, hi   float64  // fixed rates, ops/s
}

const fenceBit = uint64(1) << 62

// fleet is one running serving system and the generator's device
// connection to it.
type fleet struct {
	spec  fleetSpec
	bin   string
	srv   *serverProc
	gen   *generator
	tr    *tracer
	conn  net.Conn
	fence chan uint64
	fseq  uint64

	joins, focals, sent []op // every uplink sent, in order (oracle input)
	qids                []uint32
	opSeq               uint64 // ops sent in phases so far

	cur        atomic.Pointer[phaseRun]
	lastTok    uint64
	downlinks  atomic.Int64
	decodeErrs atomic.Int64
	orderErrs  atomic.Int64
	readErr    atomic.Pointer[error]
	readDone   chan struct{}
	captured   [][]byte // downlink payloads kept for the wire rung; read after close

	sse *sseReader
	// traceNext makes the next phase record spans and capture downlinks.
	traceNext bool
}

func newFleet(spec fleetSpec, bin string, seed uint64, tr *tracer) *fleet {
	return &fleet{spec: spec, bin: bin, tr: tr, gen: newGenerator(numObjects, numQueries, seed, spec.mix),
		fence: make(chan uint64, 1), readDone: make(chan struct{})}
}

func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// setup starts the server, joins every object, installs every query over
// the admin protocol and completes the installs; it returns the time taken.
func (f *fleet) setup() (time.Duration, error) {
	t0 := time.Now()
	args := append([]string{"-addr", "127.0.0.1:0", "-admin", "127.0.0.1:0",
		"-area", strconv.FormatFloat(f.gen.area(), 'f', -1, 64)}, f.spec.args...)
	srv, err := startServer(f.bin, args)
	if err != nil {
		return 0, err
	}
	f.srv = srv
	conn, err := net.Dial("tcp", srv.dev)
	if err != nil {
		return 0, err
	}
	f.conn = conn
	// Hello as an object outside the population: the connection then
	// receives broadcasts, and unicasts stay queued server-side as they
	// would for devices that are not connected.
	if err := f.write(appendFrame(nil, encodeHello(numObjects+1))); err != nil {
		return 0, err
	}
	go f.readLoop()

	var buf []byte
	for oid := uint32(1); oid <= numObjects; oid++ {
		o := f.gen.join(oid)
		f.joins = append(f.joins, o)
		buf = appendFrame(buf, encodeOp(o))
	}
	if err := f.write(buf); err != nil {
		return 0, err
	}
	if err := f.fenceWait(); err != nil {
		return 0, err
	}
	qids, err := adminInstall(srv.admin, numQueries)
	if err != nil {
		return 0, err
	}
	f.qids = qids
	f.gen.qids = qids
	buf = buf[:0]
	for oid := uint32(1); oid <= numQueries; oid++ {
		o := f.gen.focalInfo(oid)
		f.focals = append(f.focals, o)
		buf = appendFrame(buf, encodeOp(o))
	}
	if err := f.write(buf); err != nil {
		return 0, err
	}
	if err := f.fenceWait(); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

func (f *fleet) write(b []byte) error {
	_, err := f.conn.Write(b)
	return err
}

// fenceWait sends a Ping outside the op token space and waits for its
// Pong: every frame written before it has then been fully processed.
func (f *fleet) fenceWait() error {
	f.fseq++
	tok := fenceBit | f.fseq
	if err := f.write(appendFrame(nil, encodePing(tok))); err != nil {
		return err
	}
	select {
	case got := <-f.fence:
		if got != tok {
			return fmt.Errorf("fence pong %x, want %x", got, tok)
		}
		return nil
	case <-f.readDone:
		return fmt.Errorf("device connection closed: %v", f.readError())
	case <-time.After(60 * time.Second):
		return errors.New("fence timed out")
	}
}

func (f *fleet) readError() error {
	if p := f.readErr.Load(); p != nil {
		return *p
	}
	return nil
}

// readLoop drains the device connection: a Pong completes its op, any
// other frame is a downlink, decoded and counted.
func (f *fleet) readLoop() {
	defer close(f.readDone)
	br := bufio.NewReaderSize(f.conn, 1<<16)
	var hdr [4]byte
	var n int64
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			f.readErr.Store(&err)
			return
		}
		// Frames that fit the buffer are inspected in place, so reading
		// allocates nothing and the generator stays light.
		size := int(binary.LittleEndian.Uint32(hdr[:]))
		var payload []byte
		var err error
		if size <= br.Size() {
			payload, err = br.Peek(size)
		} else {
			payload = make([]byte, size)
			_, err = io.ReadFull(br, payload)
			size = 0
		}
		if err != nil {
			f.readErr.Store(&err)
			return
		}
		now := time.Now()
		n++
		pong, tok, err := checkDownlink(payload, n%fullDecodeEvery == 0)
		pr := f.cur.Load()
		if err != nil {
			f.decodeErrs.Add(1)
		} else if !pong {
			f.downlinks.Add(1)
			if pr != nil && pr.decodeNs != nil {
				if i := f.lastTok - pr.base; i < uint64(pr.n) {
					pr.decodeNs[i] += time.Since(now)
				}
				if len(f.captured) < maxCaptured {
					f.captured = append(f.captured, append([]byte(nil), payload...))
				}
			}
		}
		br.Discard(size)
		if err != nil || !pong {
			continue
		}
		if tok&fenceBit != 0 {
			select {
			case f.fence <- tok:
			default: // nobody waits any more: the fence already failed
			}
			continue
		}
		if tok != f.lastTok+1 || pr == nil || tok <= pr.base || tok > pr.base+uint64(pr.n) {
			f.orderErrs.Add(1)
			continue
		}
		f.lastTok = tok
		pr.recv[tok-1-pr.base] = now.Sub(pr.start)
		pr.done.Add(1)
	}
}

// maxCaptured bounds the downlink payloads kept for the wire rung.
const maxCaptured = 20000

// fullDecodeEvery sets how often a downlink is decoded in full; every
// downlink's header and length are checked.
const fullDecodeEvery = 8

// phaseRun is one open-loop phase at a fixed rate.
type phaseRun struct {
	base     uint64 // token of op 0 is base+1
	n        int
	rate     float64
	start    time.Time
	ops      []op
	frames   []byte
	off      []int
	recv     []time.Duration // pong time since start, per op
	done     atomic.Int64
	late     []float64 // generator lateness per write batch, ms
	sent     int
	aborted  bool
	batches  [][2]time.Time // per op: write start and end (traced)
	encodeNs []time.Duration
	decodeNs []time.Duration
	lag      []float64 // containment flip → visible result, ms
	cpuS     float64   // server CPU seconds over the phase
	genCPUS  float64   // generator CPU seconds over the phase
	ctxSw    float64   // server context switches over the phase
	downs    int64     // downlinks received over the phase
}

func (pr *phaseRun) due(i int) time.Duration {
	return time.Duration(float64(i) / pr.rate * float64(time.Second))
}

// latencies returns each sent op's latency in ms, from when it was due.
func (pr *phaseRun) latencies() []float64 {
	out := make([]float64, pr.sent)
	for i := range out {
		out[i] = ms(pr.recv[i] - pr.due(i))
	}
	return out
}

// runPhase sends ops at rate for dur on the open-loop schedule and waits
// until every sent op's Pong is back. With abortAfter > 0 it stops sending
// once the oldest unanswered op is that late (a failed sweep probe).
func (f *fleet) runPhase(rate float64, dur, abortAfter time.Duration) (*phaseRun, error) {
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	pr := &phaseRun{base: f.opSeq, n: n, rate: rate, recv: make([]time.Duration, n),
		ops: make([]op, n), off: make([]int, n+1)}
	traced := f.tr != nil && f.traceNext
	if traced {
		pr.batches = make([][2]time.Time, n)
		pr.encodeNs = make([]time.Duration, n)
		pr.decodeNs = make([]time.Duration, n)
	}
	snapshot := f.gen.clone()
	for i := range pr.ops {
		o := f.gen.Next()
		pr.ops[i] = o
		t := time.Now()
		pr.frames = appendFrame(pr.frames, encodeOp(o))
		pr.frames = appendFrame(pr.frames, encodePing(pr.base+uint64(i)+1))
		if traced {
			pr.encodeNs[i] = time.Since(t)
		}
		pr.off[i+1] = len(pr.frames)
	}
	cpu0, ctx0, err := procSample(f.srv.pid)
	if err != nil {
		return nil, err
	}
	gcpu0 := selfCPU()
	down0 := f.downlinks.Load()
	pr.start = time.Now().Add(2 * time.Millisecond)
	if f.sse != nil {
		f.sse.expect(pr)
	}
	f.cur.Store(pr)

	i := 0
	lastEnd := pr.start
	for i < n {
		now := time.Now()
		el := now.Sub(pr.start)
		upto := int(el.Seconds()*rate) + 1
		if upto > n {
			upto = n
		}
		if upto <= i {
			time.Sleep(pr.due(i) - el)
			continue
		}
		ref := pr.start.Add(pr.due(i))
		if lastEnd.After(ref) {
			ref = lastEnd
		}
		pr.late = append(pr.late, ms(now.Sub(ref)))
		if err := f.write(pr.frames[pr.off[i]:pr.off[upto]]); err != nil {
			return nil, fmt.Errorf("write: %w", err)
		}
		lastEnd = time.Now()
		if traced {
			for j := i; j < upto; j++ {
				pr.batches[j] = [2]time.Time{now, lastEnd}
			}
		}
		i = upto
		if abortAfter > 0 {
			if d := int(pr.done.Load()); d < i && lastEnd.Sub(pr.start.Add(pr.due(d))) > abortAfter {
				pr.aborted = true
				break
			}
		}
	}
	pr.sent = i
	deadline := time.Now().Add(60 * time.Second)
	for int(pr.done.Load()) < pr.sent {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%d of %d pongs missing after 60s", pr.sent-int(pr.done.Load()), pr.sent)
		}
		select {
		case <-f.readDone:
			return nil, fmt.Errorf("device connection closed: %v", f.readError())
		case <-time.After(time.Millisecond):
		}
	}
	cpu1, ctx1, err := procSample(f.srv.pid)
	if err != nil {
		return nil, err
	}
	pr.cpuS, pr.ctxSw = cpu1-cpu0, ctx1-ctx0
	pr.genCPUS = selfCPU() - gcpu0
	pr.downs = f.downlinks.Load() - down0
	if pr.sent < n {
		// Rewind the generator so the stream continues from the last op
		// actually sent.
		f.gen = snapshot
		for j := 0; j < pr.sent; j++ {
			f.gen.Next()
		}
	}
	f.sent = append(f.sent, pr.ops[:pr.sent]...)
	f.opSeq += uint64(pr.sent)
	if f.sse != nil {
		f.sse.settle(pr, 2*time.Second)
	} else {
		// Without a stream the result is visible once the op's Pong is
		// back: the Pong fences the op's result-table update.
		for j := 0; j < pr.sent; j++ {
			if pr.ops[j].kind == opContainment {
				pr.lag = append(pr.lag, ms(pr.recv[j]-pr.due(j)))
			}
		}
	}
	if traced {
		f.recordSpans(pr)
	}
	return pr, nil
}

// recordSpans turns a traced phase into per-op spans: encode, then the
// op's life from due to Pong, split into the write of its batch and the
// wait for the server, which contains the decoding of its downlinks.
func (f *fleet) recordSpans(pr *phaseRun) {
	for j := 0; j < pr.sent; j++ {
		tok := pr.base + uint64(j) + 1
		due := pr.start.Add(pr.due(j))
		pong := pr.start.Add(pr.recv[j])
		f.tr.add("op.encode", tok, -1, due.Add(-pr.encodeNs[j]), due)
		root := f.tr.add("op", tok, -1, due, pong)
		ws, we := pr.batches[j][0], pr.batches[j][1]
		f.tr.add("op.write", tok, root, ws, we)
		wait := f.tr.add("op.server", tok, root, we, pong)
		if d := pr.decodeNs[j]; d > 0 {
			f.tr.add("op.decode", tok, wait, pong.Add(-d), pong)
		}
	}
}

// close shuts the device connection and the server down.
func (f *fleet) close() {
	if f.sse != nil {
		f.sse.close()
	}
	if f.conn != nil {
		f.conn.Close()
		<-f.readDone
	}
	if f.srv != nil {
		f.srv.stop()
	}
}

// adminInstall installs one query per focal object 1..q over the admin
// protocol, pipelined, and returns the query identifiers in order.
func adminInstall(addr string, q int) ([]uint32, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(60 * time.Second))
	go func() {
		w := bufio.NewWriter(c)
		for oid := 1; oid <= q; oid++ {
			fmt.Fprintf(w, "install %d %g 1000\n", oid, queryRadius)
		}
		w.Flush()
	}()
	sc := bufio.NewScanner(c)
	qids := make([]uint32, 0, q)
	for len(qids) < q && sc.Scan() {
		var id uint32
		if _, err := fmt.Sscanf(sc.Text(), "qid %d", &id); err != nil {
			return nil, fmt.Errorf("install reply %q", sc.Text())
		}
		qids = append(qids, id)
	}
	if len(qids) < q {
		return nil, fmt.Errorf("install: %d of %d replies: %v", len(qids), q, sc.Err())
	}
	return qids, nil
}

// adminResults fetches every query's result set with the admin result
// command.
func adminResults(addr string, qids []uint32) (map[uint32][]uint32, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(60 * time.Second))
	go func() {
		w := bufio.NewWriter(c)
		for _, q := range qids {
			fmt.Fprintf(w, "result %d\n", q)
		}
		w.Flush()
	}()
	sc := bufio.NewScanner(c)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	out := make(map[uint32][]uint32, len(qids))
	for _, q := range qids {
		if !sc.Scan() {
			return nil, fmt.Errorf("result %d: %v", q, sc.Err())
		}
		f := strings.Fields(sc.Text())
		if len(f) < 2 || f[0] != "result" || f[1] != strconv.Itoa(int(q)) {
			return nil, fmt.Errorf("result reply %q", sc.Text())
		}
		members := make([]uint32, 0, len(f)-2)
		for _, s := range f[2:] {
			v, err := strconv.ParseUint(s, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("result reply %q", sc.Text())
			}
			members = append(members, uint32(v))
		}
		out[q] = members
	}
	return out, nil
}

// sseReader is the firehose subscriber on /debug/stream: it checks
// per-query sequence numbers and times each containment flip to its event.
type sseReader struct {
	cancel context.CancelFunc
	done   chan struct{}
	err    error

	mu      sync.Mutex
	pending map[uint64][]flip // (qid, oid) → flips sent, oldest first
	cur     *phaseRun
	lastSeq map[uint32]uint64
	members map[uint32]map[uint32]bool
	events  int64
	gaps    int64
}

type flip struct {
	due   time.Time
	enter bool
	pr    *phaseRun
}

func startSSE(addr string) (*sseReader, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", "http://"+addr+"/debug/stream", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != 200 {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("/debug/stream: %s", resp.Status)
	}
	s := &sseReader{cancel: cancel, done: make(chan struct{}), pending: make(map[uint64][]flip),
		lastSeq: make(map[uint32]uint64), members: make(map[uint32]map[uint32]bool)}
	live := make(chan struct{})
	go s.read(resp.Body, live)
	select {
	case <-live:
	case <-s.done:
		return nil, fmt.Errorf("stream ended before live: %v", s.err)
	case <-time.After(10 * time.Second):
		s.close()
		return nil, errors.New("stream did not go live")
	}
	return s, nil
}

// expect registers a phase's containment flips before it starts.
func (s *sseReader) expect(pr *phaseRun) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cur = pr
	for i, o := range pr.ops {
		if o.kind == opContainment {
			k := uint64(o.qid)<<32 | uint64(o.oid)
			s.pending[k] = append(s.pending[k], flip{pr.start.Add(pr.due(i)), o.in, pr})
		}
	}
}

type sseEvent struct {
	QID   uint32 `json:"qid"`
	Seq   uint64 `json:"seq"`
	OID   uint32 `json:"oid"`
	Enter bool   `json:"enter"`
}

func (s *sseReader) read(body io.ReadCloser, live chan struct{}) {
	defer close(s.done)
	defer body.Close()
	sc := bufio.NewScanner(body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
			if event == "live" {
				close(live)
			}
		case strings.HasPrefix(line, "data: ") && event == "result":
			now := time.Now()
			var ev sseEvent
			if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
				s.err = fmt.Errorf("bad stream event %q", line)
				return
			}
			s.observe(ev, now)
		case strings.HasPrefix(line, "data: ") && event == "snapshot":
			s.err = fmt.Errorf("unexpected snapshot %q", line)
			return
		}
	}
	s.err = sc.Err()
}

func (s *sseReader) observe(ev sseEvent, now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events++
	if ev.Seq != s.lastSeq[ev.QID]+1 {
		s.gaps++
	}
	s.lastSeq[ev.QID] = ev.Seq
	m := s.members[ev.QID]
	if m == nil {
		m = make(map[uint32]bool)
		s.members[ev.QID] = m
	}
	if ev.Enter {
		m[ev.OID] = true
	} else {
		delete(m, ev.OID)
	}
	k := uint64(ev.QID)<<32 | uint64(ev.OID)
	q := s.pending[k]
	for len(q) > 0 {
		fl := q[0]
		q = q[1:]
		if fl.enter == ev.Enter {
			fl.pr.lag = append(fl.pr.lag, ms(now.Sub(fl.due)))
			break
		}
	}
	s.pending[k] = q
}

// settle waits until every containment flip a finished phase sent has its
// stream event, or until timeout; flips never sent are forgotten.
func (s *sseReader) settle(pr *phaseRun, timeout time.Duration) {
	flips := 0
	for _, o := range pr.ops[:pr.sent] {
		if o.kind == opContainment {
			flips++
		}
	}
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		n := len(pr.lag)
		s.mu.Unlock()
		if n >= flips || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, q := range s.pending {
		kept := q[:0]
		for _, fl := range q {
			if fl.pr != pr {
				kept = append(kept, fl)
			}
		}
		s.pending[k] = kept
	}
}

// close ends the subscription and waits for the reader.
func (s *sseReader) close() {
	s.cancel()
	<-s.done
}
