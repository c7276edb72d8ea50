package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mobieyes/internal/geo"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
)

// TestCheckpointDeltaRoundTrip: pulling checkpoints after a busy scenario
// journals every live focal slice byte-identically to the node's own
// non-destructive encoding, a second pull with no traffic is an empty
// delta at the same sequence, and new traffic dirties the delta again.
func TestCheckpointDeltaRoundTrip(t *testing.T) {
	cluster := newClusterHarness(smallGrid(), Options{}, 3)
	runScenario(cluster)
	cs := cluster.server.(*ClusterServer)

	if err := cs.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	total := 0
	for i := range cs.nodes {
		slices, seq := cs.JournalSize(i)
		total += slices
		if slices > 0 && seq == 0 {
			t.Errorf("node %d: %d slices journaled at seq 0", i, slices)
		}
		// Journal bytes must equal the node's current (non-destructive)
		// encoding of each focal — the replay source is exact.
		for oid, journaled := range cs.journal[i].slices {
			ns := cs.local[i]
			if ns == nil {
				t.Fatalf("node %d has no local NodeServer", i)
			}
			if live := ns.srv.encodeFocalState(oid); !bytes.Equal(journaled, live) {
				t.Errorf("node %d focal %d: journaled slice differs from live encoding", i, oid)
			}
		}
	}
	if total == 0 {
		t.Fatal("scenario journaled no focal slices — weak test")
	}

	// Idle second pull: empty delta, sequence unchanged.
	seqs := make([]uint64, len(cs.nodes))
	for i := range cs.nodes {
		_, seqs[i] = cs.JournalSize(i)
	}
	if err := cs.Checkpoint(); err != nil {
		t.Fatalf("idle Checkpoint: %v", err)
	}
	for i := range cs.nodes {
		if _, seq := cs.JournalSize(i); seq != seqs[i] {
			t.Errorf("node %d: idle checkpoint bumped seq %d -> %d", i, seqs[i], seq)
		}
	}

	// Traffic dirties the delta: at least one node's sequence advances.
	cluster.step(model.FromSeconds(30))
	if err := cs.Checkpoint(); err != nil {
		t.Fatalf("post-step Checkpoint: %v", err)
	}
	advanced := false
	for i := range cs.nodes {
		if _, seq := cs.JournalSize(i); seq > seqs[i] {
			advanced = true
		}
	}
	if !advanced {
		t.Error("a step's worth of traffic advanced no checkpoint sequence")
	}
}

// TestCheckpointDeltaDesync: a since that does not match the node's
// sequence is an error, never a silently wrong delta.
func TestCheckpointDeltaDesync(t *testing.T) {
	h := newHarness(smallGrid(), Options{})
	runScenario(h)
	n := &NodeServer{srv: h.server.(*Server)}
	d, err := n.CheckpointDelta(0)
	if err != nil {
		t.Fatalf("first delta: %v", err)
	}
	if len(d.Slices) == 0 {
		t.Fatal("first delta empty — weak test")
	}
	if _, err := n.CheckpointDelta(d.Seq + 7); err == nil {
		t.Error("desynced since accepted")
	}
	if _, err := n.CheckpointDelta(d.Seq); err != nil {
		t.Errorf("matching since refused: %v", err)
	}
}

// TestCheckpointReplayFreshNode: a checkpointed slice injected into a
// fresh node (the replay path) restores rows that re-encode
// byte-identically and satisfy the engine invariants — including the
// single-focal node edge case.
func TestCheckpointReplayFreshNode(t *testing.T) {
	h := newHarness(smallGrid(), Options{})
	runScenario(h)
	src := &NodeServer{srv: h.server.(*Server)}
	oids := src.FocalIDs()
	if len(oids) < 2 {
		t.Fatal("scenario left fewer than 2 focals — weak test")
	}

	for _, oid := range oids {
		fresh := NewNodeServer(smallGrid(), Options{}, nullDown{})
		slice := src.srv.encodeFocalState(oid)
		got, err := FocalSliceOID(slice)
		if err != nil || got != oid {
			t.Fatalf("FocalSliceOID = %d, %v; want %d", got, err, oid)
		}
		cell, _ := src.FocalCell(oid)
		st := src.srv.fot[oid].state
		if err := fresh.InjectFocal(slice, st, cell, false, true, 0); err != nil {
			t.Fatalf("replay inject of focal %d: %v", oid, err)
		}
		if err := fresh.CheckInvariants(); err != nil {
			t.Errorf("invariants after replaying focal %d: %v", oid, err)
		}
		if again := fresh.srv.encodeFocalState(oid); !bytes.Equal(slice, again) {
			t.Errorf("focal %d: replayed slice re-encodes differently", oid)
		}
	}

	// Empty-node edge: a fresh node's delta is empty at seq 0, and stays
	// empty across pulls.
	empty := NewNodeServer(smallGrid(), Options{}, nullDown{})
	for pull := 0; pull < 2; pull++ {
		d, err := empty.CheckpointDelta(0)
		if err != nil {
			t.Fatalf("empty-node delta: %v", err)
		}
		if d.Seq != 0 || len(d.Slices) != 0 || len(d.Removed) != 0 {
			t.Fatalf("empty-node delta = %+v, want zero", d)
		}
	}
}

// TestFocalSliceOIDRejectsGarbage: the journal key reader refuses
// truncated and version-skewed slices.
func TestFocalSliceOIDRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, {1}, {1, 0, 9}, {2, 0, 9, 0, 0, 0}} {
		if _, err := FocalSliceOID(b); err == nil {
			t.Errorf("FocalSliceOID(%v) accepted", b)
		}
	}
}

// TestClusterCrashRecovery: after a full checkpoint, an ungraceful crash
// of a focal-bearing node preserves the durable snapshot byte-for-byte
// (the journal replay restores every row), invariants hold, and the
// cluster keeps matching the serial server afterwards. Crashing a dead
// node or the last survivor is refused.
func TestClusterCrashRecovery(t *testing.T) {
	serial := newHarness(smallGrid(), Options{})
	cluster := newClusterHarness(smallGrid(), Options{}, 3)
	runScenario(serial)
	runScenario(cluster)
	cs := cluster.server.(*ClusterServer)

	if err := cs.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if slices, _ := cs.JournalSize(1); slices == 0 {
		t.Fatal("node 1 holds no journaled focals — weak test")
	}
	var before bytes.Buffer
	if err := cs.Snapshot(&before); err != nil {
		t.Fatal(err)
	}
	if err := cs.CrashNode(1); err != nil {
		t.Fatalf("CrashNode: %v", err)
	}
	var after bytes.Buffer
	if err := cs.Snapshot(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Error("crash recovery changed the durable snapshot")
	}
	if err := cs.CheckInvariants(); err != nil {
		t.Fatalf("invariants after crash: %v", err)
	}
	spans := cs.Spans()
	if spans[1].Live || spans[1].Focals != 0 || spans[1].Queries != 0 {
		t.Errorf("crashed node still reports state: %+v", spans[1])
	}
	if slices, seq := cs.JournalSize(1); slices != 0 || seq != 0 {
		t.Errorf("crashed node's journal not cleared: %d slices seq %d", slices, seq)
	}

	// The cluster must keep tracking the serial server after recovery.
	for step := 0; step < 4; step++ {
		serial.step(model.FromSeconds(30))
		cluster.step(model.FromSeconds(30))
	}
	for _, qid := range serial.server.QueryIDs() {
		if !idsEqual(serial.server.Result(qid), cluster.server.Result(qid)) {
			t.Errorf("query %d result diverged after crash recovery", qid)
		}
	}

	if err := cs.CrashNode(1); err == nil {
		t.Error("crashing a dead node should fail")
	}
	if err := cs.CrashNode(3); err == nil {
		t.Error("crashing an out-of-range node should fail")
	}
	if err := cs.CrashNode(0); err != nil {
		t.Fatalf("CrashNode(0): %v", err)
	}
	if err := cs.CrashNode(2); err == nil {
		t.Error("crashing the last live node should be refused")
	}
}

// TestCrashSuppressedReplayLosesState: with replay suppressed (the teeth
// knob), a crash loses every focal the dead node owned — the routing
// tables are swept clean, yet invariants still hold and the cluster keeps
// serving. This is the state of the world the convergence oracle must
// catch.
func TestCrashSuppressedReplayLosesState(t *testing.T) {
	cluster := newClusterHarness(smallGrid(), Options{}, 3)
	runScenario(cluster)
	cs := cluster.server.(*ClusterServer)
	if err := cs.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	lost := 0
	for _, ni := range cs.focalNode {
		if ni == 1 {
			lost++
		}
	}
	if lost == 0 {
		t.Fatal("node 1 owns no focals — weak test")
	}
	beforeFocals := len(cs.focalNode)
	cs.SuppressRecoveryReplay(true)
	defer cs.SuppressRecoveryReplay(false)
	if err := cs.CrashNode(1); err != nil {
		t.Fatalf("CrashNode: %v", err)
	}
	if got := len(cs.focalNode); got != beforeFocals-lost {
		t.Errorf("focals after suppressed-replay crash = %d, want %d", got, beforeFocals-lost)
	}
	if err := cs.CheckInvariants(); err != nil {
		t.Fatalf("invariants after lossy crash: %v", err)
	}
}

// TestCrashStaleWatermarkKeepsInvariants: with no explicit Checkpoint, the
// journal holds only what the handoff-entry barriers captured — a stale
// watermark. A crash must still recover cleanly: stale shadows of focals
// that migrated away are skipped, whatever is journaled for focals the
// dead node still owned is restored, and invariants hold throughout.
func TestCrashStaleWatermarkKeepsInvariants(t *testing.T) {
	cluster := newClusterHarness(smallGrid(), Options{}, 3)
	runScenario(cluster)
	cs := cluster.server.(*ClusterServer)
	if cs.Migrations() == 0 {
		t.Fatal("scenario produced no handoffs — no barrier checkpoints to go stale")
	}
	if err := cs.CrashNode(1); err != nil {
		t.Fatalf("CrashNode: %v", err)
	}
	if err := cs.CheckInvariants(); err != nil {
		t.Fatalf("invariants after stale-watermark crash: %v", err)
	}
	// The cluster keeps serving: a few more steps, invariants still hold.
	for step := 0; step < 3; step++ {
		cluster.step(model.FromSeconds(30))
	}
	if err := cs.CheckInvariants(); err != nil {
		t.Fatalf("invariants after post-crash steps: %v", err)
	}
}

// fullScanDelta is the reference the incremental CheckpointDelta must
// match: re-encode every focal on s, diff against base, and fold the
// result into base.
func fullScanDelta(s *Server, base map[model.ObjectID][]byte) (changed [][]byte, removed []model.ObjectID) {
	oids := make([]model.ObjectID, 0, len(s.fot))
	for oid := range s.fot {
		oids = append(oids, oid)
	}
	slices.Sort(oids)
	for _, oid := range oids {
		enc := s.encodeFocalState(oid)
		if prev, ok := base[oid]; ok && bytes.Equal(prev, enc) {
			continue
		}
		base[oid] = enc
		changed = append(changed, enc)
	}
	for oid := range base {
		if _, ok := s.fot[oid]; !ok {
			removed = append(removed, oid)
		}
	}
	slices.Sort(removed)
	for _, oid := range removed {
		delete(base, oid)
	}
	return changed, removed
}

// nodeOpSequence applies seeded, coherent NodeHandle operations — every
// mutation entry point the dirty set is marked at — against one node.
// With dropContainmentMark set it undoes the mark a ContainmentReport adds,
// simulating a missing mark.
type nodeOpSequence struct {
	rng                 *rand.Rand
	n                   *NodeServer
	nextQID             model.QueryID
	inFlight            [][]byte // extracted focal slices awaiting injection
	dropContainmentMark bool
}

func (d *nodeOpSequence) state() model.MotionState {
	return model.MotionState{
		Pos: geo.Pt(d.rng.Float64()*100, d.rng.Float64()*100),
		Vel: geo.Vec(d.rng.Float64()*200-100, d.rng.Float64()*200-100),
		Tm:  model.Time(d.rng.Float64()),
	}
}

func (d *nodeOpSequence) pickQuery() (model.QueryID, bool) {
	qids := d.n.QueryIDs()
	if len(qids) == 0 {
		return 0, false
	}
	return qids[d.rng.Intn(len(qids))], true
}

func (d *nodeOpSequence) step() {
	n, g := d.n, d.n.srv.g
	oid := model.ObjectID(1 + d.rng.Intn(10))
	_, isFocal := n.srv.fot[oid]
	switch d.rng.Intn(13) {
	case 0:
		n.UpsertFocal(oid, d.state(), 0)
	case 1:
		if !isFocal {
			n.UpsertFocal(oid, d.state(), 0)
		}
		d.nextQID++
		var expiry model.Time
		if d.rng.Intn(3) == 0 {
			expiry = model.FromSeconds(float64(60 + d.rng.Intn(600)))
		}
		q := model.Query{ID: d.nextQID, Focal: oid, Region: model.CircleRegion{R: 2 + 6*d.rng.Float64()}, Filter: matchAll}
		n.CompleteInstall(d.nextQID, q, 50+d.rng.Float64()*150, expiry, 0)
	case 2:
		if qid, ok := d.pickQuery(); ok {
			n.RemoveQuery(qid, 0)
		}
	case 3:
		st := d.state()
		n.VelocityReport(msg.VelocityReport{OID: oid, Pos: st.Pos, Vel: st.Vel, Tm: st.Tm}, 0)
	case 4, 5, 6:
		qid, ok := d.pickQuery()
		if !ok {
			return
		}
		focal := n.srv.sqt[qid].query.Focal
		_, wasDirty := n.dirty[focal]
		n.ContainmentReport(msg.ContainmentReport{OID: oid, QID: qid, IsTarget: d.rng.Intn(3) > 0}, 0)
		if d.dropContainmentMark && !wasDirty {
			delete(n.dirty, focal)
		}
	case 7:
		qids := append(n.QueryIDs(), d.nextQID+1) // one unknown qid rides along
		bm := msg.NewBitmap(len(qids))
		for i := range qids {
			bm.Set(i, d.rng.Intn(2) == 0)
		}
		n.GroupContainmentReport(msg.GroupContainmentReport{OID: oid, QIDs: qids, Bitmap: bm}, 0)
	case 8:
		if isFocal {
			st := d.state()
			n.FocalCellChange(oid, st, g.CellOf(st.Pos), 0)
		}
	case 9:
		if d.rng.Intn(2) == 0 {
			n.ClearResults(oid, 0)
		} else {
			n.DepartSweep(oid, 0)
		}
	case 10:
		n.DepartFocal(oid, 0)
	case 11:
		if isFocal {
			slice, err := n.ExtractFocal(oid, d.rng.Intn(2) == 0, 0)
			if err != nil {
				panic(err)
			}
			d.inFlight = append(d.inFlight, slice)
		}
	case 12:
		// Land the oldest in-flight slice, unless its oid became focal
		// again meanwhile (then the handoff is void).
		if len(d.inFlight) == 0 {
			return
		}
		slice := d.inFlight[0]
		d.inFlight = d.inFlight[1:]
		if back, _ := FocalSliceOID(slice); n.srv.fot[back] != nil {
			return
		}
		st := d.state()
		if err := n.InjectFocal(slice, st, g.CellOf(st.Pos), d.rng.Intn(2) == 0, true, 0); err != nil {
			panic(err)
		}
	}
}

// incrementalDeltaMismatch runs a seeded op sequence against a fresh node,
// pulling a checkpoint every one to four ops, and reports the first pull
// whose incremental delta differs from the full-scan reference.
func incrementalDeltaMismatch(seed int64, ops int, dropContainmentMark bool) error {
	d := &nodeOpSequence{
		rng:                 rand.New(rand.NewSource(seed)),
		n:                   NewNodeServer(smallGrid(), Options{}, nullDown{}),
		dropContainmentMark: dropContainmentMark,
	}
	base := make(map[model.ObjectID][]byte)
	var seq uint64
	for op := 0; op < ops; {
		for k := 1 + d.rng.Intn(4); k > 0; k-- {
			d.step()
			op++
		}
		got, err := d.n.CheckpointDelta(seq)
		if err != nil {
			return fmt.Errorf("op %d: %v", op, err)
		}
		wantSlices, wantRemoved := fullScanDelta(d.n.srv, base)
		if !slices.Equal(got.Removed, wantRemoved) {
			return fmt.Errorf("op %d: removed %v, full scan %v", op, got.Removed, wantRemoved)
		}
		if !slices.EqualFunc(got.Slices, wantSlices, bytes.Equal) {
			return fmt.Errorf("op %d: %d changed slices, full scan %d (or bytes differ)", op, len(got.Slices), len(wantSlices))
		}
		if len(wantSlices) > 0 || len(wantRemoved) > 0 {
			seq++
		}
		if got.Seq != seq {
			return fmt.Errorf("op %d: seq %d, want %d", op, got.Seq, seq)
		}
	}
	return nil
}

// TestCheckpointDeltaIncrementalMatchesFullScan: over seeded sequences of
// every NodeHandle mutation, each incremental delta — Slices and Removed —
// is byte-identical to re-encoding and diffing every focal.
func TestCheckpointDeltaIncrementalMatchesFullScan(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		if err := incrementalDeltaMismatch(seed, 400, false); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestCheckpointDeltaEquivalenceHasTeeth: with the ContainmentReport mark
// undone, the comparison above catches the stale delta.
func TestCheckpointDeltaEquivalenceHasTeeth(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		if incrementalDeltaMismatch(seed, 400, true) != nil {
			return
		}
	}
	t.Fatal("no seed exposed a missing ContainmentReport mark")
}
