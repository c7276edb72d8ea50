package core

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"mobieyes/internal/geo"
	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/obs"
)

// runScenario drives a harness through a deterministic workload touching
// every server path: installs (including the pending FocalInfoRequest flow
// and a duration-bound query), motion with cell crossings, a removal, an
// expiry sweep and a departure. It returns the installed query IDs.
func runScenario(h *harness) []model.QueryID {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 24; i++ {
		oid := model.ObjectID(i + 1)
		pos := geo.Pt(5+float64((i*13)%90), 5+float64((i*29)%90))
		ang := rng.Float64() * 2 * math.Pi
		speed := 50 + rng.Float64()*150
		h.addObject(oid, pos, geo.Vec(speed*math.Cos(ang), speed*math.Sin(ang)), 200, uint64(i+1))
	}
	var qids []model.QueryID
	for i := 0; i < 6; i++ {
		qids = append(qids, h.install(model.ObjectID(i+1), 2+float64(i), matchAll, 200))
	}
	qids = append(qids, h.server.InstallQueryUntil(
		model.ObjectID(7), model.CircleRegion{R: 4}, matchAll, 200, model.FromSeconds(300)))
	h.flushDown()
	for step := 0; step < 15; step++ {
		h.randomizeVelocities(rng, 4)
		h.keepInside()
		h.step(model.FromSeconds(30))
		switch step {
		case 5:
			h.server.RemoveQuery(qids[2])
			h.flushDown()
		case 9:
			h.server.HandleUplink(msg.DepartureReport{OID: 20})
			h.flushDown()
		case 11:
			h.server.ExpireQueries(h.now) // 360 s: the Until(300 s) query goes
			h.flushDown()
		}
	}
	return qids
}

// TestShardedServerMatchesSerial is the unit-level equivalence check: the
// same scripted workload against a serial Server and a 4-shard
// ShardedServer must leave identical query state — same installed IDs, same
// descriptors, monitoring regions and result sets.
func TestShardedServerMatchesSerial(t *testing.T) {
	serial := newHarness(smallGrid(), Options{})
	sharded := newShardedHarness(smallGrid(), Options{}, 4)
	qidsA := runScenario(serial)
	qidsB := runScenario(sharded)

	if len(qidsA) != len(qidsB) {
		t.Fatalf("installed %d vs %d queries", len(qidsA), len(qidsB))
	}
	for i := range qidsA {
		if qidsA[i] != qidsB[i] {
			t.Fatalf("query ID sequence diverged at %d: %d vs %d", i, qidsA[i], qidsB[i])
		}
	}
	if a, b := serial.server.NumQueries(), sharded.server.NumQueries(); a != b {
		t.Fatalf("NumQueries: serial %d, sharded %d", a, b)
	}
	idsA, idsB := serial.server.QueryIDs(), sharded.server.QueryIDs()
	if !qidsEqual(idsA, idsB) {
		t.Fatalf("QueryIDs: serial %v, sharded %v", idsA, idsB)
	}
	for _, qid := range qidsA {
		qa, oka := serial.server.Query(qid)
		qb, okb := sharded.server.Query(qid)
		if oka != okb || qa != qb {
			t.Errorf("query %d: serial (%+v,%v) vs sharded (%+v,%v)", qid, qa, oka, qb, okb)
		}
		if !oka {
			continue
		}
		ra, rb := serial.server.Result(qid), sharded.server.Result(qid)
		if !idsEqual(ra, rb) {
			t.Errorf("query %d result: serial %v, sharded %v", qid, ra, rb)
		}
		if !idsEqual(rb, sharded.groundTruth(qid)) {
			t.Errorf("query %d: sharded result %v != ground truth %v", qid, rb, sharded.groundTruth(qid))
		}
		ma, _ := serial.server.MonRegion(qid)
		mb, _ := sharded.server.MonRegion(qid)
		if ma != mb {
			t.Errorf("query %d monitoring region: serial %+v, sharded %+v", qid, ma, mb)
		}
	}
	if err := serial.server.CheckInvariants(); err != nil {
		t.Errorf("serial invariants: %v", err)
	}
	if err := sharded.server.CheckInvariants(); err != nil {
		t.Errorf("sharded invariants: %v", err)
	}
	// The scenario must actually have exercised cross-partition placement.
	ss := sharded.server.(*ShardedServer)
	used := map[int]bool{}
	for _, si := range ss.focalShard {
		used[si] = true
	}
	if len(used) < 2 {
		t.Errorf("scenario left every focal on one shard (%d used) — weak test", len(used))
	}
}

func qidsEqual(a, b []model.QueryID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSortedAccessors: QueryIDs and NearbyQueries return ascending IDs on
// both implementations regardless of map iteration order.
func TestSortedAccessors(t *testing.T) {
	for _, tc := range []struct {
		name string
		h    *harness
	}{
		{"serial", newHarness(smallGrid(), Options{})},
		{"sharded", newShardedHarness(smallGrid(), Options{}, 3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := tc.h
			for i := 0; i < 16; i++ {
				oid := model.ObjectID(i + 1)
				h.addObject(oid, geo.Pt(5+float64((i*37)%90), 5+float64((i*53)%90)), geo.Vec(0, 0), 100, uint64(i+1))
			}
			// Several queries per focal so NearbyQueries lists have length >1.
			for i := 0; i < 16; i++ {
				h.install(model.ObjectID(i+1), 3, matchAll, 100)
				h.install(model.ObjectID(i+1), 6, matchAll, 100)
			}
			ids := h.server.QueryIDs()
			if len(ids) != 32 {
				t.Fatalf("QueryIDs length = %d, want 32", len(ids))
			}
			if !sort.SliceIsSorted(ids, func(a, b int) bool { return ids[a] < ids[b] }) {
				t.Errorf("QueryIDs not ascending: %v", ids)
			}
			sawMulti := false
			for i := 0; i < 16; i++ {
				cell := h.g.CellOf(h.objs[i].Pos)
				nearby := h.server.NearbyQueries(cell)
				if len(nearby) > 1 {
					sawMulti = true
				}
				if !sort.SliceIsSorted(nearby, func(a, b int) bool { return nearby[a] < nearby[b] }) {
					t.Errorf("NearbyQueries(%v) not ascending: %v", cell, nearby)
				}
			}
			if !sawMulti {
				t.Error("no cell had more than one nearby query — weak test")
			}
		})
	}
}

// TestShardedServerConcurrentStress fires uplink reports at a ShardedServer
// from 8 goroutines (each owning a disjoint set of objects, like
// per-connection transports) while queries are installed, removed and
// expired concurrently, then validates every per-shard and cross-shard
// invariant. Run it under -race.
func TestShardedServerConcurrentStress(t *testing.T) {
	const (
		workers       = 8
		objsPerWorker = 16
		iters         = 400
	)
	g := grid.New(geo.NewRect(0, 0, 500, 500), 5)
	ss := NewShardedServer(g, Options{}, nullDown{}, 8)

	startPos := func(w, k int) geo.Point {
		return geo.Pt(10+float64((w*61+k*17)%480), 10+float64((w*97+k*41)%480))
	}
	// Seed: the first 4 objects of every worker are focal with one query
	// each; these queries survive the whole run and absorb the containment
	// traffic.
	var seedQids []model.QueryID
	for w := 0; w < workers; w++ {
		for k := 0; k < 4; k++ {
			oid := model.ObjectID(w*objsPerWorker + k + 1)
			ss.OnFocalInfoResponse(msg.FocalInfoResponse{OID: oid, Pos: startPos(w, k)})
			seedQids = append(seedQids, ss.InstallQuery(oid, model.CircleRegion{R: 8}, matchAll, 150))
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			pos := make([]geo.Point, objsPerWorker)
			for k := range pos {
				pos[k] = startPos(w, k)
			}
			var own []model.QueryID
			for it := 0; it < iters; it++ {
				k := rng.Intn(objsPerWorker)
				oid := model.ObjectID(w*objsPerWorker + k + 1)
				prev := g.CellOf(pos[k])
				p := geo.Pt(
					math.Min(495, math.Max(5, pos[k].X+rng.Float64()*16-8)),
					math.Min(495, math.Max(5, pos[k].Y+rng.Float64()*16-8)))
				pos[k] = p
				next := g.CellOf(p)
				switch {
				case next != prev:
					ss.HandleUplink(msg.CellChangeReport{
						OID: oid, PrevCell: prev, NewCell: next,
						Pos: p, Vel: geo.Vec(30, 10), Tm: model.Time(it),
					})
				case rng.Intn(3) == 0:
					ss.HandleUplink(msg.VelocityReport{OID: oid, Pos: p, Vel: geo.Vec(10, -20), Tm: model.Time(it)})
				default:
					ss.HandleUplink(msg.ContainmentReport{
						OID: oid, QID: seedQids[rng.Intn(len(seedQids))],
						IsTarget: rng.Intn(2) == 0,
					})
				}
				// Churn: short-lived queries on this worker's own objects
				// exercise install (incl. pending), removal and expiry while
				// other workers migrate focals across shards.
				switch {
				case rng.Intn(40) == 0:
					own = append(own, ss.InstallQueryUntil(
						oid, model.CircleRegion{R: 5}, matchAll, 150, model.Time(it+20)))
				case len(own) > 0 && rng.Intn(40) == 0:
					ss.RemoveQuery(own[0])
					own = own[1:]
				case rng.Intn(60) == 0:
					ss.ExpireQueries(model.Time(it))
				}
				if it%50 == 0 {
					_ = ss.Result(seedQids[rng.Intn(len(seedQids))])
					_ = ss.NumQueries()
					_ = ss.NearbyQueries(next)
				}
			}
			// Departure tears down the last object's state while other
			// workers are still reporting.
			ss.HandleUplink(msg.DepartureReport{OID: model.ObjectID(w*objsPerWorker + objsPerWorker)})
		}(w)
	}
	wg.Wait()

	if err := ss.CheckInvariants(); err != nil {
		t.Fatalf("invariants after concurrent stress: %v", err)
	}
	if n := ss.NumQueries(); n < len(seedQids) {
		t.Errorf("NumQueries = %d, want at least the %d seed queries", n, len(seedQids))
	}
	for _, qid := range seedQids {
		if _, ok := ss.Query(qid); !ok {
			t.Errorf("seed query %d vanished", qid)
		}
	}
}

// TestShardedSnapshotCrossRestore: a sharded snapshot restores into a serial
// server, a sharded server with a different shard count, and byte-identical
// re-snapshots — the MOBS format is implementation-independent.
func TestShardedSnapshotCrossRestore(t *testing.T) {
	sharded := newShardedHarness(smallGrid(), Options{}, 4)
	runScenario(sharded)
	// A pending installation (focal 99 has no client; the FocalInfoRequest
	// stays unanswered) must survive the roundtrip too.
	sharded.server.InstallQueryUntil(99, model.CircleRegion{R: 2}, matchAll, 50, model.FromSeconds(9999))

	var buf bytes.Buffer
	if err := sharded.server.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	serial, err := RestoreServer(smallGrid(), Options{}, nullDown{}, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resharded, err := RestoreShardedServer(smallGrid(), Options{}, nullDown{}, 3, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := resharded.CheckInvariants(); err != nil {
		t.Fatalf("restored sharded server invariants: %v", err)
	}

	want := sharded.server.QueryIDs()
	for _, restored := range []ServerAPI{serial, resharded} {
		if got := restored.QueryIDs(); !qidsEqual(got, want) {
			t.Fatalf("restored QueryIDs %v, want %v", got, want)
		}
		for _, qid := range want {
			q0, _ := sharded.server.Query(qid)
			q1, ok := restored.Query(qid)
			if !ok || q0 != q1 {
				t.Errorf("query %d descriptor: %+v vs %+v (ok=%v)", qid, q0, q1, ok)
			}
			if !idsEqual(sharded.server.Result(qid), restored.Result(qid)) {
				t.Errorf("query %d result differs after restore", qid)
			}
			m0, _ := sharded.server.MonRegion(qid)
			m1, _ := restored.MonRegion(qid)
			if m0 != m1 {
				t.Errorf("query %d monitoring region: %+v vs %+v", qid, m0, m1)
			}
		}
	}

	// Re-snapshots are byte-identical: same durable state, same encoding,
	// whatever the implementation or shard count.
	var again bytes.Buffer
	if err := resharded.Snapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again.Bytes()) {
		t.Error("sharded → sharded(3) re-snapshot not byte-identical")
	}
	again.Reset()
	if err := serial.Snapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again.Bytes()) {
		t.Error("sharded → serial re-snapshot not byte-identical")
	}
}

// TestInstrumentedDispatchAllocs pins that the per-shard depth gauges cost
// no allocation per uplink: an instrumented sharded dispatch allocates no
// more than an uninstrumented one, for uplinks routed to a shard and for
// router-level ones.
func TestInstrumentedDispatchAllocs(t *testing.T) {
	g := grid.New(geo.NewRect(0, 0, 1000, 1000), 5)
	newServer := func(instrument bool) *ShardedServer {
		ss := NewShardedServer(g, Options{}, nullDown{}, 4)
		if instrument {
			ss.Instrument(obs.NewRegistry())
		}
		ss.HandleUplink(msg.FocalInfoResponse{OID: 1, Pos: geo.Pt(500, 500)})
		ss.InstallQuery(1, model.CircleRegion{R: 3}, matchAll, 250)
		return ss
	}
	uplinks := []msg.Message{
		msg.ContainmentReport{OID: 2, QID: 1, IsTarget: true},
		msg.VelocityReport{OID: 1, Pos: geo.Pt(500, 500), Vel: geo.Vec(1, 0)},
		msg.ContainmentReport{OID: 2, QID: 99, IsTarget: true}, // no owning shard
	}
	for _, m := range uplinks {
		bare, instrumented := newServer(false), newServer(true)
		want := testing.AllocsPerRun(100, func() { bare.HandleUplink(m) })
		got := testing.AllocsPerRun(100, func() { instrumented.HandleUplink(m) })
		if got > want {
			t.Errorf("%T: instrumented dispatch allocates %.1f per uplink, uninstrumented %.1f", m, got, want)
		}
	}
}
