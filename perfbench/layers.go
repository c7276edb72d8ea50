package main

// This is the only file of the benchmark that names the program's internal
// packages: the device-protocol codec, the serial oracle, the simulation
// engine and the per-layer ladder rungs. Everything else speaks to the
// server binary over its device and admin protocols.

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"runtime"
	"time"

	"mobieyes/internal/core"
	"mobieyes/internal/geo"
	"mobieyes/internal/grid"
	"mobieyes/internal/history"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/network"
	"mobieyes/internal/obs/stream"
	"mobieyes/internal/remote"
	"mobieyes/internal/sim"
	"mobieyes/internal/wire"
)

// queryRadius is the radius of every installed query, 1.5 α as in the load
// package; admin installs use permille 1000 (every object qualifies).
const queryRadius = alpha * 1.5

func toMsg(o op) msg.Message {
	pos, vel := geo.Point{X: o.x, Y: o.y}, geo.Vector{X: o.vx, Y: o.vy}
	switch o.kind {
	case opJoin, opCellChange:
		return msg.CellChangeReport{OID: model.ObjectID(o.oid),
			PrevCell: grid.CellID{Col: int(o.prevCol), Row: int(o.prevRow)},
			NewCell:  grid.CellID{Col: int(o.col), Row: int(o.row)},
			Pos:      pos, Vel: vel, Tm: model.Time(o.tm)}
	case opFocalInfo:
		return msg.FocalInfoResponse{OID: model.ObjectID(o.oid), Pos: pos, Vel: vel, Tm: model.Time(o.tm)}
	case opVelocity:
		return msg.VelocityReport{OID: model.ObjectID(o.oid), Pos: pos, Vel: vel, Tm: model.Time(o.tm)}
	default:
		return msg.ContainmentReport{OID: model.ObjectID(o.oid), QID: model.QueryID(o.qid), IsTarget: o.in}
	}
}

// encodeOp returns the wire payload of an op's uplink frame.
func encodeOp(o op) []byte { return wire.EncodeTraced(toMsg(o), 0) }

// encodeHello returns the payload of the handshake frame announcing oid.
func encodeHello(oid uint32) []byte { return remote.EncodeHello(model.ObjectID(oid)) }

// encodePing returns the payload of a Ping frame.
func encodePing(token uint64) []byte { return wire.Encode(msg.Ping{Token: token}) }

// checkDownlink validates a downlink payload's header (magic, version,
// declared length) and decodes it in full when it is a Pong, whose token it
// reports, or when full is set.
func checkDownlink(p []byte, full bool) (pong bool, token uint64, err error) {
	if len(p) < 16 {
		return false, 0, wire.ErrTruncated
	}
	if binary.LittleEndian.Uint16(p) != wire.Magic || (p[2] != wire.Version && p[2] != wire.TracedVersion) ||
		int(binary.LittleEndian.Uint32(p[4:])) != len(p) {
		return false, 0, fmt.Errorf("bad downlink header % x", p[:8])
	}
	if msg.Kind(p[3]) != msg.KindPong && !full {
		return false, 0, nil
	}
	m, _, err := wire.DecodeTraced(p)
	if err != nil {
		return false, 0, err
	}
	if pg, ok := m.(msg.Pong); ok {
		return true, pg.Token, nil
	}
	return false, 0, nil
}

// nopDown discards downlinks.
type nopDown struct{}

func (nopDown) Broadcast(grid.CellRange, msg.Message) {}
func (nopDown) Unicast(model.ObjectID, msg.Message)   {}

// gridOf is the server's grid over a square universe of discourse.
func gridOf(side float64) *grid.Grid {
	return grid.New(geo.NewRect(0, 0, side, side), alpha)
}

// installAll installs one query per focal object exactly as the admin
// install command does, and returns the query identifiers in order.
func installAll(srv core.ServerAPI, queries int) []model.QueryID {
	qids := make([]model.QueryID, queries)
	for i := range qids {
		focal := model.ObjectID(i + 1)
		qids[i] = srv.InstallQuery(focal, model.CircleRegion{R: queryRadius},
			model.Filter{Seed: uint64(focal)*7919 + 13, Permille: 1000}, 1000)
	}
	return qids
}

// serialOracle replays the uplinks a serving run sent, in order, into the
// serial server and returns every query's final result set.
func serialOracle(f *fleet) map[uint32][]uint32 {
	srv := core.NewServer(gridOf(f.gen.side), core.Options{DeadReckoningThreshold: 0.01}, nopDown{})
	for _, o := range f.joins {
		srv.HandleUplink(toMsg(o))
	}
	qids := installAll(srv, numQueries)
	for _, o := range f.focals {
		srv.HandleUplink(toMsg(o))
	}
	for _, o := range f.sent {
		srv.HandleUplink(toMsg(o))
	}
	out := make(map[uint32][]uint32, len(qids))
	for _, q := range qids {
		res := srv.Result(q)
		members := make([]uint32, len(res))
		for i, oid := range res {
			members[i] = uint32(oid)
		}
		out[uint32(q)] = members
	}
	return out
}

// simReport is what the simulation child reports when it ends.
type simReport struct {
	Steps        int              `json:"steps"`
	Exact        string           `json:"exact"` // ground-truth mismatch, empty when exact
	KindCounts   map[string]int64 `json:"kind_counts"`
	Uplinks      int64            `json:"uplinks"`
	Downlinks    int64            `json:"downlinks"`
	ServerNanos  int64            `json:"server_nanos"`
	ClientNanos  int64            `json:"client_nanos"`
	AvgLQT       float64          `json:"avg_lqt"`
	Objects      int              `json:"objects"`
	CheckedSteps int              `json:"checked_steps"`
	CheckedKinds map[string]int64 `json:"checked_kinds"`
	CheckedUp    int64            `json:"checked_up"`
	CheckedDown  int64            `json:"checked_down"`
	CheckedLQT   float64          `json:"checked_lqt"`
}

// simConfig is the paper's Table 1 at defaults (EQP, Δ = 0.01), with the
// warm-up driven by the benchmark and one measured step per Run call.
func simConfig(seed int64) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Seed = seed
	cfg.Warmup = 0
	cfg.Steps = 1
	return cfg
}

// runSimChild is the simulation child: it builds the Table-1 engine,
// reports "ready", then serves line commands from the parent — "w" runs
// the warm-up, "s" one measured step, "e" ends with the exactness check
// and a JSON report. The per-kind message counts of the first
// simCheckSteps measured steps are reported separately so two children of
// one seed can be compared exactly.
func runSimChild(seed int64, in io.Reader, out io.Writer) error {
	cfg := simConfig(seed)
	e := sim.NewEngine(cfg)
	w := bufio.NewWriter(out)
	say := func(s string) error {
		fmt.Fprintln(w, s)
		return w.Flush()
	}
	if err := say("ready"); err != nil {
		return err
	}
	rep := simReport{KindCounts: map[string]int64{}, CheckedKinds: map[string]int64{}, Objects: cfg.NumObjects}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		switch sc.Text() {
		case "w":
			for i := 0; i < simWarmup; i++ {
				e.Step()
			}
		case "s":
			m := e.Run()
			rep.Steps++
			rep.Uplinks += m.UplinkMsgs
			rep.Downlinks += m.DownlinkMsgs
			rep.ServerNanos, rep.ClientNanos, rep.AvgLQT = m.ServerNanos, m.ClientNanos, m.AvgLQTSize
			for _, k := range m.ByKind {
				n := k.UplinkMsgs + k.DownlinkMsgs
				rep.KindCounts[k.Kind.String()] += n
				if rep.Steps <= simCheckSteps {
					rep.CheckedKinds[k.Kind.String()] += n
				}
			}
			if rep.Steps <= simCheckSteps {
				rep.CheckedSteps = rep.Steps
				rep.CheckedUp += m.UplinkMsgs
				rep.CheckedDown += m.DownlinkMsgs
				rep.CheckedLQT = m.AvgLQTSize
			}
		case "e":
			if err := e.VerifyExact(); err != nil {
				rep.Exact = err.Error()
			}
			b, err := json.Marshal(rep)
			if err != nil {
				return err
			}
			return say(string(b))
		default:
			return fmt.Errorf("sim child: unknown command %q", sc.Text())
		}
		if err := say("ok"); err != nil {
			return err
		}
	}
	return sc.Err()
}

// The per-layer ladder: each rung replays the run's captured inputs
// through one layer in-process, closed-loop.

// ladderInput is what a traced run captured: the setup uplinks, the first
// ops it sent and the downlinks it received.
type ladderInput struct {
	seed          uint64
	side          float64
	joins, focals []op
	ops           []op
	downlinks     [][]byte
}

// timeIt runs fn inside a ladder span and returns its duration.
func timeIt(tr *tracer, name string, fn func()) time.Duration {
	t := time.Now()
	fn()
	e := time.Now()
	tr.add("ladder."+name, 0, -1, t, e)
	return e.Sub(t)
}

func runLadder(r *run, in ladderInput, tr *tracer) error {
	n := float64(len(in.ops))
	msgs := make([]msg.Message, len(in.ops))
	for i, o := range in.ops {
		msgs[i] = toMsg(o)
	}

	// wire: the codec on the captured uplinks; frame sizes both ways.
	frames := make([][]byte, len(msgs))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	enc := timeIt(tr, "wire.encode", func() {
		for i, m := range msgs {
			frames[i] = wire.EncodeTraced(m, 0)
		}
	})
	var decErr error
	dec := timeIt(tr, "wire.decode", func() {
		for _, b := range frames {
			if _, _, err := wire.DecodeTraced(b); err != nil {
				decErr = err
			}
		}
	})
	runtime.ReadMemStats(&ms1)
	if decErr != nil {
		return fmt.Errorf("wire rung: %w", decErr)
	}
	var upBytes, downBytes float64
	for _, b := range frames {
		upBytes += float64(4 + len(b))
	}
	for _, b := range in.downlinks {
		downBytes += float64(4 + len(b))
	}
	r.set("wire.encode_ns", "ns", float64(enc.Nanoseconds())/n)
	r.set("wire.decode_ns", "ns", float64(dec.Nanoseconds())/n)
	r.set("wire.allocs_per_op", "count", float64(ms1.Mallocs-ms0.Mallocs)/n)
	r.set("wire.bytes_per_uplink", "B", upBytes/n)
	r.set("wire.bytes_per_downlink", "B", downBytes/float64(max(len(in.downlinks), 1)))

	// remote: WriteFrame and ReadFrame of the same frames over loopback.
	fio, err := frameIO(frames, tr)
	if err != nil {
		return fmt.Errorf("frame rung: %w", err)
	}
	r.set("remote.frame_io_ns", "ns", float64(fio.Nanoseconds())/n)

	// core: closed-loop dispatch of the op stream, one backend at a time.
	g := gridOf(in.side)
	opts := core.Options{DeadReckoningThreshold: 0.01}
	prepare := func(srv core.ServerAPI) {
		for _, o := range in.joins {
			srv.HandleUplink(toMsg(o))
		}
		installAll(srv, numQueries)
		for _, o := range in.focals {
			srv.HandleUplink(toMsg(o))
		}
	}
	serial := core.NewServer(g, opts, nopDown{})
	for _, o := range in.joins {
		serial.HandleUplink(toMsg(o))
	}
	inst := timeIt(tr, "core.install", func() { installAll(serial, numQueries) })
	r.set("core.install_us", "us", float64(inst.Microseconds())/numQueries)
	for _, o := range in.focals {
		serial.HandleUplink(toMsg(o))
	}
	var kindNs [5]time.Duration
	var kindN [5]int
	d := timeIt(tr, "core.dispatch.serial", func() {
		for i, m := range msgs {
			t := time.Now()
			serial.HandleUplinkTraced(m, 0)
			kindNs[in.ops[i].kind] += time.Since(t)
			kindN[in.ops[i].kind]++
		}
	})
	r.set("core.dispatch_ns.serial", "ns", float64(d.Nanoseconds())/n)
	for _, k := range []opKind{opVelocity, opCellChange, opContainment} {
		r.set("core.dispatch_ns."+k.String(), "ns", float64(kindNs[k].Nanoseconds())/float64(max(kindN[k], 1)))
	}
	sharded := core.NewShardedServer(g, opts, nopDown{}, 0)
	prepare(sharded)
	d = timeIt(tr, "core.dispatch.sharded", func() {
		for _, m := range msgs {
			sharded.HandleUplinkTraced(m, 0)
		}
	})
	r.set("core.dispatch_ns.sharded", "ns", float64(d.Nanoseconds())/n)
	cluster := core.NewClusterServer(g, opts, nopDown{}, 4)
	prepare(cluster)
	mig0 := cluster.Migrations()
	d = timeIt(tr, "core.dispatch.cluster", func() {
		for _, m := range msgs {
			cluster.HandleUplinkTraced(m, 0)
		}
	})
	r.set("core.dispatch_ns.cluster", "ns", float64(d.Nanoseconds())/n)
	r.set("core.handoffs_per_kop", "count", float64(cluster.Migrations()-mig0)/n*1000)

	// stream and history: the result tap and replay log, teed as the
	// server tees them, over the serial replay.
	tap := stream.NewTap()
	hist := history.NewStore(64 << 20)
	var appendNs time.Duration
	var appends int
	tap.SetSink(func(qid int64, seq uint64, oid int64, enter bool) {
		t := time.Now()
		hist.AppendResult(0, qid, seq, oid, enter)
		appendNs += time.Since(t)
		appends++
	})
	teed := core.NewServer(g, opts, nopDown{})
	prepare(teed)
	teed.SetResultListener(func(ev core.ResultEvent) { tap.Publish(int64(ev.QID), int64(ev.OID), ev.Entered) })
	_, bytes0, _, _ := hist.Stats()
	timeIt(tr, "history.tee", func() {
		for i, m := range msgs {
			if o := in.ops[i]; o.kind != opContainment {
				t := time.Now()
				hist.AppendPos(0, int64(o.oid), o.x, o.y)
				appendNs += time.Since(t)
				appends++
			}
			teed.HandleUplink(m)
		}
	})
	published, _, _, _ := tap.Stats()
	_, bytes1, _, _ := hist.Stats()
	r.set("stream.events_per_op", "count", float64(published)/n)
	r.set("history.append_ns", "ns", float64(appendNs.Nanoseconds())/float64(max(appends, 1)))
	r.set("history.bytes_per_op", "B", float64(bytes1-bytes0)/n)

	// network: base-station set cover of every installed query's
	// monitoring region on the Table-1 lattice.
	cfg := simConfig(int64(in.seed))
	e := sim.NewEngine(cfg)
	dep := network.NewDeployment(e.Grid(), cfg.Alen)
	qids := e.Server().QueryIDs()
	var regions []grid.CellRange
	for _, q := range qids {
		if mr, ok := e.Server().MonRegion(q); ok {
			regions = append(regions, mr)
		}
	}
	const coverRounds = 20
	d = timeIt(tr, "network.cover", func() {
		for k := 0; k < coverRounds; k++ {
			for _, mr := range regions {
				dep.Cover(mr)
			}
		}
	})
	r.set("network.cover_us", "us", float64(d.Nanoseconds())/1e3/float64(coverRounds*max(len(regions), 1)))
	return nil
}

// frameIO writes every frame with remote.WriteFrame on one end of a
// loopback TCP connection and reads it back with remote.ReadFrame.
func frameIO(frames [][]byte, tr *tracer) (time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	wc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer wc.Close()
	rc, ok := <-accepted
	if !ok {
		return 0, fmt.Errorf("accept failed")
	}
	defer rc.Close()
	werr := make(chan error, 1)
	var readErr error
	d := timeIt(tr, "remote.frame_io", func() {
		go func() {
			for _, b := range frames {
				if err := remote.WriteFrame(wc, b); err != nil {
					werr <- err
					return
				}
			}
			werr <- nil
		}()
		br := bufio.NewReader(rc)
		for range frames {
			if _, err := remote.ReadFrame(br); err != nil {
				readErr = err
				break
			}
		}
	})
	if err := <-werr; err != nil {
		return 0, err
	}
	return d, readErr
}
