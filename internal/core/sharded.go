package core

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/obs"
	"mobieyes/internal/obs/cost"
	"mobieyes/internal/obs/trace"
)

// ShardedServer is a concurrent, grid-partitioned MobiEyes server. It owns
// N shards, each a serial Server holding the FOT, SQT and RQI rows of the
// focal objects whose current grid cell hashes into that partition, and a
// thin router that dispatches uplink messages to the owning shard. Unlike
// the serial Server, every method is safe for concurrent use by multiple
// goroutines, so transports can feed it from many connections and engines
// can drain message queues in parallel.
//
// Partitioning and the cross-shard relocation protocol are described in
// DESIGN.md ("Sharded server architecture"). In short:
//
//   - shardOf(curr_cell) decides ownership; monitoring regions freely span
//     partition boundaries because every shard sees the whole grid.
//   - Ownership changes (install completion, §3.5 cell crossings that move
//     the focal into another partition, removal, departure) are serialized
//     under the router's write lock together with the affected shard locks,
//     so routing tables and shard contents never disagree while the router
//     lock is free.
//   - Reads and shard-local updates (velocity relays, containment reports)
//     take the router's read lock only long enough to copy the shard index,
//     then verify ownership under the shard lock, retrying on the rare race
//     with a concurrent migration.
//
// The downlink passed to NewShardedServer must be safe for concurrent use;
// shards send through it while holding their own locks.
type ShardedServer struct {
	g      *grid.Grid
	opts   Options
	down   Downlink
	shards []*shard

	// qidCounter holds the last assigned query identifier (assignment is
	// Add(1), matching the serial server's 1-based sequence).
	qidCounter atomic.Int64

	// ops counts router-level operations; Ops() adds the per-shard counts.
	// upl counts uplink messages the router handles outside any partition
	// (departures); migrations counts cross-shard focal relocations. All
	// three are always-on obs counters that Instrument can expose.
	ops        *obs.Counter
	upl        *obs.Counter
	migrations *obs.Counter

	// inflight counts uplinks currently dispatching at router level (no
	// owning shard: departures, stale drops); per-shard depth lives on each
	// shard. Maintained only while instrumented — see inflightCounter.
	inflight atomic.Int64

	// obsm, when attached by Instrument, times HandleUplink per message
	// kind at the router.
	obsm *serverObs

	// rec/tdown: causal tracing, attached by SetTracer (see DESIGN.md §11).
	// Shard-level tagging rides on each shard Server's curTrace, set by the
	// router while holding that shard's lock.
	rec   *trace.Recorder
	tdown TracedDownlink

	// acct is the cost accountant attached by SetAccountant (nil = off).
	// The router attributes each dispatched uplink to the owning shard's
	// ledger (stale drops and departures to the router ledger, so the shard
	// sum plus router equals the transport's global uplink count) and
	// charges per-query/object uplink tallies at ingress; shard Servers
	// charge compute units and downlink tallies through their own acct.
	acct *cost.Accountant

	// mu guards the routing tables and pending installations (see the lock
	// ordering above: mu before any shard.mu, shard locks in ascending
	// index order).
	mu         sync.RWMutex
	focalShard map[model.ObjectID]int
	queryShard map[model.QueryID]int
	pending    map[model.ObjectID][]pendingInstall
	// pendingExp holds expiries of queries that are still pending; they move
	// into the owning shard's table when installation completes.
	pendingExp map[model.QueryID]model.Time
}

// NewShardedServer returns a sharded MobiEyes server over grid g with the
// given number of shards; shards <= 0 selects GOMAXPROCS. The downlink must
// be safe for concurrent use.
func NewShardedServer(g *grid.Grid, opts Options, down Downlink, shards int) *ShardedServer {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	ss := &ShardedServer{
		g:          g,
		opts:       opts,
		down:       down,
		shards:     make([]*shard, shards),
		focalShard: make(map[model.ObjectID]int),
		queryShard: make(map[model.QueryID]int),
		pending:    make(map[model.ObjectID][]pendingInstall),
		pendingExp: make(map[model.QueryID]model.Time),
		ops:        obs.NewCounter(),
		upl:        obs.NewCounter(),
		migrations: obs.NewCounter(),
	}
	for i := range ss.shards {
		ss.shards[i] = &shard{srv: NewServer(g, opts, down), upl: obs.NewCounter(), idx: i}
	}
	return ss
}

// SetAccountant attaches a cost accountant to the router and every shard
// (nil = off; the default). Not safe to call concurrently with dispatch.
func (ss *ShardedServer) SetAccountant(a *cost.Accountant) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.acct = a
	for _, sh := range ss.shards {
		sh.mu.Lock()
		sh.srv.acct = a
		sh.mu.Unlock()
	}
	a.SetMode(ss.opts.Mode.String())
}

// acctShardUplink charges one dispatched uplink message to shard si's ledger
// (si -1 = the router ledger, for stale drops and router-level work).
func (ss *ShardedServer) acctShardUplink(si int, m msg.Message) {
	if ss.acct == nil {
		return
	}
	ss.acct.ShardUplink(si, m.Kind(), m.Size())
}

// NumShards returns the number of partitions.
func (ss *ShardedServer) NumShards() int { return len(ss.shards) }

// shardOf is the partition function: a multiplicative hash of the cell's
// dense index, so neighboring cells land on different shards and hot
// regions spread across cores.
func (ss *ShardedServer) shardOf(c grid.CellID) int {
	h := uint64(ss.g.CellIndex(c)) * 0x9E3779B97F4A7C15
	return int((h >> 32) % uint64(len(ss.shards)))
}

// lockFocalShard returns the shard owning oid's FOT row with its lock held,
// or nil if oid is not a focal object. Retries when a concurrent migration
// moves the row between the routing lookup and the shard lock.
func (ss *ShardedServer) lockFocalShard(oid model.ObjectID) *shard {
	for {
		ss.mu.RLock()
		si, ok := ss.focalShard[oid]
		ss.mu.RUnlock()
		if !ok {
			return nil
		}
		sh := ss.shards[si]
		sh.mu.Lock()
		if _, owns := sh.srv.fot[oid]; owns {
			return sh
		}
		sh.mu.Unlock()
	}
}

// lockQueryShard returns the shard owning qid's SQT row with its lock held,
// or nil if the query is not installed.
func (ss *ShardedServer) lockQueryShard(qid model.QueryID) *shard {
	for {
		ss.mu.RLock()
		si, ok := ss.queryShard[qid]
		ss.mu.RUnlock()
		if !ok {
			return nil
		}
		sh := ss.shards[si]
		sh.mu.Lock()
		if _, owns := sh.srv.sqt[qid]; owns {
			return sh
		}
		sh.mu.Unlock()
	}
}

// InstallQuery starts installation of a moving query (§3.3), exactly like
// the serial Server but routed to the shard owning the focal object.
func (ss *ShardedServer) InstallQuery(focal model.ObjectID, region model.Region, filter model.Filter, focalMaxVel float64) model.QueryID {
	return ss.install(focal, region, filter, focalMaxVel, 0)
}

// InstallQueryUntil installs a query that expires at the given time.
func (ss *ShardedServer) InstallQueryUntil(focal model.ObjectID, region model.Region, filter model.Filter, focalMaxVel float64, expiry model.Time) model.QueryID {
	return ss.install(focal, region, filter, focalMaxVel, expiry)
}

func (ss *ShardedServer) install(focal model.ObjectID, region model.Region, filter model.Filter, focalMaxVel float64, expiry model.Time) model.QueryID {
	qid := model.QueryID(ss.qidCounter.Add(1))
	tid := ss.mintRoot(focal, qid, "InstallQuery")
	q := model.Query{ID: qid, Focal: focal, Region: region, Filter: filter}
	ss.mu.Lock()
	if si, ok := ss.focalShard[focal]; ok {
		sh := ss.shards[si]
		sh.mu.Lock()
		if expiry != 0 {
			sh.srv.expiries[qid] = expiry
		}
		sh.srv.curTrace = tid
		sh.srv.completeInstall(qid, q, focalMaxVel)
		sh.srv.curTrace = 0
		sh.mu.Unlock()
		ss.queryShard[qid] = si
		ss.mu.Unlock()
		return qid
	}
	// §3.3 step 3: the focal object is unknown — request its motion state.
	ss.pending[focal] = append(ss.pending[focal], pendingInstall{qid, q, focalMaxVel})
	if expiry != 0 {
		ss.pendingExp[qid] = expiry
	}
	first := len(ss.pending[focal]) == 1
	ss.mu.Unlock()
	ss.ops.Add(1)
	if first {
		ss.unicast(focal, msg.FocalInfoRequest{OID: focal}, tid)
	}
	return qid
}

// OnFocalInfoResponse receives a prospective focal object's motion state
// and completes any pending installations for it.
func (ss *ShardedServer) OnFocalInfoResponse(m msg.FocalInfoResponse) {
	ss.onFocalInfoResponse(m, 0)
}

func (ss *ShardedServer) onFocalInfoResponse(m msg.FocalInfoResponse, tid trace.ID) {
	si := ss.shardOf(ss.g.CellOf(m.Pos))
	ss.shards[si].upl.Add(1)
	ss.acctShardUplink(si, m)
	ss.mu.Lock()
	ss.applyFocalInfoLocked(m.OID, model.MotionState{Pos: m.Pos, Vel: m.Vel, Tm: m.Tm}, tid)
	ss.mu.Unlock()
}

// applyFocalInfoLocked refreshes oid's FOT row from a reported motion state
// — migrating it when the reported cell belongs to another partition — and
// completes pending installations, all tagged with tid. Requires ss.mu held
// for writing.
func (ss *ShardedServer) applyFocalInfoLocked(oid model.ObjectID, st model.MotionState, tid trace.ID) {
	cell := ss.g.CellOf(st.Pos)
	di := ss.shardOf(cell)
	if si, known := ss.focalShard[oid]; known && si != di {
		src, dst := ss.shards[si], ss.shards[di]
		if ss.rec != nil {
			ss.rec.Event(tid, trace.KindMigrate, "router", int64(oid), 0, fmt.Sprintf("shard%d -> shard%d", si, di))
		}
		ss.lockPair(si, di)
		src.srv.curTrace, dst.srv.curTrace = tid, tid
		rec := src.srv.extractFocal(oid)
		dst.srv.injectFocal(rec, st, cell, false)
		src.srv.curTrace, dst.srv.curTrace = 0, 0
		src.mu.Unlock()
		dst.mu.Unlock()
		ss.migrations.Add(1)
		for _, qid := range rec.fe.queries {
			ss.queryShard[qid] = di
		}
	} else {
		dst := ss.shards[di]
		dst.mu.Lock()
		dst.srv.curTrace = tid
		dst.srv.upsertFocal(oid, st)
		dst.srv.curTrace = 0
		dst.mu.Unlock()
	}
	ss.focalShard[oid] = di

	if len(ss.pending[oid]) == 0 {
		return
	}
	dst := ss.shards[di]
	dst.mu.Lock()
	dst.srv.curTrace = tid
	for _, p := range ss.pending[oid] {
		if exp, ok := ss.pendingExp[p.qid]; ok {
			dst.srv.expiries[p.qid] = exp
			delete(ss.pendingExp, p.qid)
		}
		dst.srv.completeInstall(p.qid, p.query, p.maxVel)
		ss.queryShard[p.qid] = di
	}
	dst.srv.curTrace = 0
	dst.mu.Unlock()
	delete(ss.pending, oid)
}

// lockPair locks two distinct shards in ascending index order.
func (ss *ShardedServer) lockPair(a, b int) {
	if a > b {
		a, b = b, a
	}
	ss.shards[a].mu.Lock()
	ss.shards[b].mu.Lock()
}

// OnVelocityReport relays a focal object's significant velocity-vector
// change (§3.4) inside its owning shard.
func (ss *ShardedServer) OnVelocityReport(m msg.VelocityReport) {
	ss.onVelocityReport(m, 0)
}

func (ss *ShardedServer) onVelocityReport(m msg.VelocityReport, tid trace.ID) {
	sh := ss.lockFocalShard(m.OID)
	if sh == nil {
		ss.acctShardUplink(-1, m) // stale drop: charge the router ledger
		return                    // not a focal object (stale report after query removal)
	}
	sh.upl.Add(1)
	ss.acctShardUplink(sh.idx, m)
	sh.srv.curTrace = tid
	sh.srv.OnVelocityReport(m)
	sh.srv.curTrace = 0
	sh.mu.Unlock()
}

// OnCellChangeReport handles an object crossing into a new grid cell
// (§3.5). A focal object whose new cell hashes into another partition is
// migrated — its FOT and SQT rows move between shards under the router's
// write lock — before the usual relocation broadcasts.
func (ss *ShardedServer) OnCellChangeReport(m msg.CellChangeReport) {
	ss.onCellChangeReport(m, 0)
}

func (ss *ShardedServer) onCellChangeReport(m msg.CellChangeReport, tid trace.ID) {
	st := model.MotionState{Pos: m.Pos, Vel: m.Vel, Tm: m.Tm}
	if !ss.g.Valid(m.PrevCell) {
		// (Re)join: drop stale result entries across every shard before the
		// object re-reports, exactly like the serial server. The router lock
		// keeps the sweep atomic with respect to cross-shard migrations.
		ss.mu.Lock()
		for _, sh := range ss.shards {
			sh.mu.Lock()
			sh.srv.curTrace = tid
			sh.srv.clearObjectFromResults(m.OID)
			sh.srv.curTrace = 0
			sh.mu.Unlock()
		}
		ss.mu.Unlock()
	}
	ss.mu.RLock()
	hasPending := len(ss.pending[m.OID]) > 0
	ss.mu.RUnlock()
	if hasPending {
		// The report carries the object's motion state; complete pending
		// installs from it (the FocalInfoRequest may have been lost).
		ss.mu.Lock()
		if len(ss.pending[m.OID]) > 0 {
			ss.applyFocalInfoLocked(m.OID, st, tid)
		}
		ss.mu.Unlock()
	}
	si := ss.shardOf(m.NewCell)
	ss.shards[si].upl.Add(1)
	ss.acctShardUplink(si, m)
	ss.focalCellChange(m.OID, st, m.NewCell, tid)
	ss.sendNewNearbyQueries(m.OID, m.PrevCell, m.NewCell, tid)
	ss.ops.Add(1)
}

// focalCellChange routes a focal object's cell crossing: shard-local when
// the new cell stays in the same partition (the common case, taken without
// the router write lock), otherwise a cross-shard migration.
func (ss *ShardedServer) focalCellChange(oid model.ObjectID, st model.MotionState, newCell grid.CellID, tid trace.ID) {
	di := ss.shardOf(newCell)
	for {
		ss.mu.RLock()
		si, ok := ss.focalShard[oid]
		ss.mu.RUnlock()
		if !ok {
			return // not focal: nothing to relocate
		}
		if si != di {
			break // crosses partitions: migrate under the write lock
		}
		sh := ss.shards[si]
		sh.mu.Lock()
		if fe, owns := sh.srv.fot[oid]; owns {
			sh.srv.curTrace = tid
			sh.srv.focalCellChange(fe, st, newCell)
			sh.srv.curTrace = 0
			sh.mu.Unlock()
			return
		}
		sh.mu.Unlock() // raced with a concurrent migration: retry
	}

	ss.mu.Lock()
	defer ss.mu.Unlock()
	si, ok := ss.focalShard[oid]
	if !ok {
		return
	}
	if si == di {
		// Another report already migrated it here; apply shard-locally.
		sh := ss.shards[si]
		sh.mu.Lock()
		if fe, owns := sh.srv.fot[oid]; owns {
			sh.srv.curTrace = tid
			sh.srv.focalCellChange(fe, st, newCell)
			sh.srv.curTrace = 0
		}
		sh.mu.Unlock()
		return
	}
	src, dst := ss.shards[si], ss.shards[di]
	if ss.rec != nil {
		ss.rec.Event(tid, trace.KindMigrate, "router", int64(oid), 0, fmt.Sprintf("shard%d -> shard%d", si, di))
	}
	ss.lockPair(si, di)
	src.srv.curTrace, dst.srv.curTrace = tid, tid
	rec := src.srv.extractFocal(oid)
	dst.srv.injectFocal(rec, st, newCell, true)
	src.srv.curTrace, dst.srv.curTrace = 0, 0
	src.mu.Unlock()
	dst.mu.Unlock()
	ss.migrations.Add(1)
	ss.focalShard[oid] = di
	for _, qid := range rec.fe.queries {
		ss.queryShard[qid] = di
	}
}

// sendNewNearbyQueries unions RQI(newCell) \ RQI(prevCell) across shards
// and ships the result to the object, ascending by query ID exactly like
// the serial server.
func (ss *ShardedServer) sendNewNearbyQueries(oid model.ObjectID, prevCell, newCell grid.CellID, tid trace.ID) {
	var fresh []msg.QueryState
	for _, sh := range ss.shards {
		sh.mu.Lock()
		fresh = append(fresh, sh.srv.freshQueryStates(prevCell, newCell)...)
		sh.mu.Unlock()
	}
	if len(fresh) == 0 {
		return
	}
	slices.SortFunc(fresh, func(a, b msg.QueryState) int { return cmp.Compare(a.QID, b.QID) })
	ss.unicast(oid, msg.QueryInstall{Queries: fresh}, tid)
	ss.ops.Add(1)
}

// OnContainmentReport applies a differential result update (§3.6) inside
// the owning shard.
func (ss *ShardedServer) OnContainmentReport(m msg.ContainmentReport) {
	ss.onContainmentReport(m, 0)
}

func (ss *ShardedServer) onContainmentReport(m msg.ContainmentReport, tid trace.ID) {
	sh := ss.lockQueryShard(m.QID)
	if sh == nil {
		ss.acctShardUplink(-1, m) // stale drop: charge the router ledger
		return
	}
	sh.upl.Add(1)
	ss.acctShardUplink(sh.idx, m)
	sh.srv.curTrace = tid
	sh.srv.OnContainmentReport(m)
	sh.srv.curTrace = 0
	sh.mu.Unlock()
}

// OnGroupContainmentReport applies a grouped result update (§4.1). All
// queries of a group share a focal object and therefore a shard, so the
// whole bitmap resolves in one place.
func (ss *ShardedServer) OnGroupContainmentReport(m msg.GroupContainmentReport) {
	ss.onGroupContainmentReport(m, 0)
}

func (ss *ShardedServer) onGroupContainmentReport(m msg.GroupContainmentReport, tid trace.ID) {
	for _, qid := range m.QIDs {
		if sh := ss.lockQueryShard(qid); sh != nil {
			sh.upl.Add(1)
			ss.acctShardUplink(sh.idx, m)
			sh.srv.curTrace = tid
			sh.srv.OnGroupContainmentReport(m)
			sh.srv.curTrace = 0
			sh.mu.Unlock()
			return
		}
	}
	ss.acctShardUplink(-1, m) // no query resolvable: charge the router ledger
}

// OnDepartureReport handles an object leaving the system: it is dropped
// from every query result across all shards, and every query it was focal
// of is removed.
func (ss *ShardedServer) OnDepartureReport(m msg.DepartureReport) {
	ss.onDepartureReport(m, 0)
}

func (ss *ShardedServer) onDepartureReport(m msg.DepartureReport, tid trace.ID) {
	ss.upl.Add(1)
	ss.acctShardUplink(-1, m) // handled across shards: charge the router ledger
	ss.mu.Lock()
	defer ss.mu.Unlock()
	for _, sh := range ss.shards {
		sh.mu.Lock()
		sh.srv.curTrace = tid
		for qid, e := range sh.srv.sqt {
			if _, in := e.result[m.OID]; in {
				delete(e.result, m.OID)
				sh.srv.notifyResult(qid, m.OID, false)
			}
		}
		sh.srv.curTrace = 0
		sh.mu.Unlock()
	}
	if si, ok := ss.focalShard[m.OID]; ok {
		sh := ss.shards[si]
		sh.mu.Lock()
		if fe, owns := sh.srv.fot[m.OID]; owns {
			sh.srv.curTrace = tid
			for _, qid := range append([]model.QueryID(nil), fe.queries...) {
				sh.srv.RemoveQuery(qid)
				delete(ss.queryShard, qid)
			}
			sh.srv.curTrace = 0
			delete(sh.srv.fot, m.OID)
		}
		sh.mu.Unlock()
		delete(ss.focalShard, m.OID)
	}
	for _, p := range ss.pending[m.OID] {
		delete(ss.pendingExp, p.qid)
	}
	delete(ss.pending, m.OID)
	ss.ops.Add(1)
}

// RemoveQuery uninstalls a query from its owning shard.
func (ss *ShardedServer) RemoveQuery(qid model.QueryID) bool {
	tid := ss.mintRoot(0, qid, "RemoveQuery")
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.removeQueryLocked(qid, tid)
}

func (ss *ShardedServer) removeQueryLocked(qid model.QueryID, tid trace.ID) bool {
	si, ok := ss.queryShard[qid]
	if !ok {
		return false
	}
	sh := ss.shards[si]
	sh.mu.Lock()
	var focal model.ObjectID
	if e, installed := sh.srv.sqt[qid]; installed {
		focal = e.query.Focal
	}
	sh.srv.curTrace = tid
	removed := sh.srv.RemoveQuery(qid)
	sh.srv.curTrace = 0
	_, stillFocal := sh.srv.fot[focal]
	sh.mu.Unlock()
	delete(ss.queryShard, qid)
	if removed && !stillFocal {
		delete(ss.focalShard, focal)
	}
	return removed
}

// ExpireQueries removes every query whose expiry has passed and returns the
// removed identifiers (sorted), like the serial server.
func (ss *ShardedServer) ExpireQueries(now model.Time) []model.QueryID {
	tid := ss.mintRoot(0, 0, "ExpireQueries")
	ss.mu.Lock()
	defer ss.mu.Unlock()
	var expired []model.QueryID
	for _, sh := range ss.shards {
		sh.mu.Lock()
		for qid, exp := range sh.srv.expiries {
			if exp <= now {
				expired = append(expired, qid)
			}
		}
		sh.mu.Unlock()
	}
	for qid, exp := range ss.pendingExp {
		if exp <= now {
			// Pending past its deadline: forget the expiry; if the install
			// ever completes the query runs unbounded, like the serial
			// server's behavior for expired-while-pending queries.
			delete(ss.pendingExp, qid)
			expired = append(expired, qid)
		}
	}
	sort.Slice(expired, func(i, j int) bool { return expired[i] < expired[j] })
	for _, qid := range expired {
		ss.removeQueryLocked(qid, tid)
	}
	return expired
}

// HandleUplink dispatches any uplink message to its handler. Safe for
// concurrent use; it panics on message kinds the MobiEyes server does not
// consume, exactly like the serial server. When instrumented, dispatch is
// timed per message kind at the router.
func (ss *ShardedServer) HandleUplink(m msg.Message) { ss.HandleUplinkTraced(m, 0) }

// HandleUplinkTraced is HandleUplink with an inbound trace ID — the uplink
// ingress point when running behind a tracing transport. A zero tid starts
// a fresh trace when a recorder is attached.
func (ss *ShardedServer) HandleUplinkTraced(m msg.Message, tid trace.ID) {
	if ss.acct != nil {
		// Per-entity uplink attribution at router ingress (the shard Servers'
		// HandleUplink is bypassed — handlers are invoked directly).
		oid, qid := TraceRef(m)
		sz := m.Size()
		if oid != 0 {
			ss.acct.ObjectUp(oid, sz)
		}
		if qid != 0 {
			ss.acct.QueryUp(qid, sz)
		}
	}
	if ss.rec != nil {
		if tid == 0 {
			tid = ss.rec.NextID()
		}
		oid, qid := TraceRef(m)
		ss.rec.Event(tid, trace.KindIngress, "router", oid, qid, m.Kind().String())
	}
	if o := ss.obsm; o != nil && o.uplinkLat != nil {
		start := time.Now()
		ss.dispatchUplink(m, tid)
		o.uplinkLat.observe(m.Kind(), start)
		return
	}
	ss.dispatchUplink(m, tid)
}

// peekFocalShard returns the shard currently routed for oid's FOT row, or
// -1. A concurrent migration may move the row immediately after; callers
// using this for gauge attribution tolerate that.
func (ss *ShardedServer) peekFocalShard(oid model.ObjectID) int {
	ss.mu.RLock()
	si, ok := ss.focalShard[oid]
	ss.mu.RUnlock()
	if !ok {
		return -1
	}
	return si
}

// peekQueryShard returns the shard currently routed for qid's SQT row, or -1.
func (ss *ShardedServer) peekQueryShard(qid model.QueryID) int {
	ss.mu.RLock()
	si, ok := ss.queryShard[qid]
	ss.mu.RUnlock()
	if !ok {
		return -1
	}
	return si
}

// uplinkShard predicts the shard an uplink will be charged to, mirroring
// each handler's own routing decision; -1 means router-level (departures,
// stale reports).
func (ss *ShardedServer) uplinkShard(m msg.Message) int {
	switch mm := m.(type) {
	case msg.VelocityReport:
		return ss.peekFocalShard(mm.OID)
	case msg.CellChangeReport:
		return ss.shardOf(mm.NewCell)
	case msg.ContainmentReport:
		return ss.peekQueryShard(mm.QID)
	case msg.GroupContainmentReport:
		for _, qid := range mm.QIDs {
			if si := ss.peekQueryShard(qid); si >= 0 {
				return si
			}
		}
	case msg.FocalInfoResponse:
		return ss.shardOf(ss.g.CellOf(mm.Pos))
	}
	return -1
}

// inflightCounter returns the pending-depth counter one dispatching uplink
// is charged to: the owning shard's, or the router-level one when no shard
// owns it. dispatchUplink pairs Add(1) with a deferred Add(-1), so every
// counter returns to zero at quiescence no matter how the handler exits.
func (ss *ShardedServer) inflightCounter(m msg.Message) *atomic.Int64 {
	if si := ss.uplinkShard(m); si >= 0 {
		return &ss.shards[si].inflight
	}
	return &ss.inflight
}

// PendingUplinksByShard returns each shard's current pending-uplink depth
// (queued on the shard lock or executing), indexed by shard. Zero everywhere
// at quiescence; only maintained while the server is instrumented.
func (ss *ShardedServer) PendingUplinksByShard() []int64 {
	out := make([]int64, len(ss.shards))
	for i, sh := range ss.shards {
		out[i] = sh.inflight.Load()
	}
	return out
}

func (ss *ShardedServer) dispatchUplink(m msg.Message, tid trace.ID) {
	// The depth gauges cost a routing peek per uplink, so they are
	// maintained only when someone attached a registry to read them.
	if ss.obsm != nil {
		c := ss.inflightCounter(m)
		c.Add(1)
		defer c.Add(-1)
	}
	switch mm := m.(type) {
	case msg.VelocityReport:
		ss.onVelocityReport(mm, tid)
	case msg.CellChangeReport:
		ss.onCellChangeReport(mm, tid)
	case msg.ContainmentReport:
		ss.onContainmentReport(mm, tid)
	case msg.GroupContainmentReport:
		ss.onGroupContainmentReport(mm, tid)
	case msg.FocalInfoResponse:
		ss.onFocalInfoResponse(mm, tid)
	case msg.DepartureReport:
		ss.onDepartureReport(mm, tid)
	default:
		panic(fmt.Sprintf("core: sharded server cannot handle %v", m.Kind()))
	}
}

// SetResultListener installs a callback for every result change. Unlike the
// serial server, the callback may be invoked concurrently from multiple
// shards; it must be safe for concurrent use.
func (ss *ShardedServer) SetResultListener(fn func(ResultEvent)) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	for _, sh := range ss.shards {
		sh.mu.Lock()
		sh.srv.SetResultListener(fn)
		sh.mu.Unlock()
	}
}

// Result returns the current result set of a query as a sorted slice.
func (ss *ShardedServer) Result(qid model.QueryID) []model.ObjectID {
	sh := ss.lockQueryShard(qid)
	if sh == nil {
		return nil
	}
	defer sh.mu.Unlock()
	return sh.srv.Result(qid)
}

// ResultContains reports whether oid is currently in qid's result.
func (ss *ShardedServer) ResultContains(qid model.QueryID, oid model.ObjectID) bool {
	sh := ss.lockQueryShard(qid)
	if sh == nil {
		return false
	}
	defer sh.mu.Unlock()
	return sh.srv.ResultContains(qid, oid)
}

// ResultSize returns |result| for a query (0 for unknown queries).
func (ss *ShardedServer) ResultSize(qid model.QueryID) int {
	sh := ss.lockQueryShard(qid)
	if sh == nil {
		return 0
	}
	defer sh.mu.Unlock()
	return sh.srv.ResultSize(qid)
}

// Query returns the descriptor of an installed query.
func (ss *ShardedServer) Query(qid model.QueryID) (model.Query, bool) {
	sh := ss.lockQueryShard(qid)
	if sh == nil {
		return model.Query{}, false
	}
	defer sh.mu.Unlock()
	return sh.srv.Query(qid)
}

// MonRegion returns the current monitoring region of a query.
func (ss *ShardedServer) MonRegion(qid model.QueryID) (grid.CellRange, bool) {
	sh := ss.lockQueryShard(qid)
	if sh == nil {
		return grid.CellRange{}, false
	}
	defer sh.mu.Unlock()
	return sh.srv.MonRegion(qid)
}

// NumQueries returns the number of installed queries across all shards.
func (ss *ShardedServer) NumQueries() int {
	n := 0
	for _, sh := range ss.shards {
		sh.mu.Lock()
		n += sh.srv.NumQueries()
		sh.mu.Unlock()
	}
	return n
}

// QueryIDs returns all installed query IDs across shards, ascending.
func (ss *ShardedServer) QueryIDs() []model.QueryID {
	var out []model.QueryID
	for _, sh := range ss.shards {
		sh.mu.Lock()
		out = append(out, sh.srv.QueryIDs()...)
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NearbyQueries returns RQI(cell) unioned across shards, ascending.
func (ss *ShardedServer) NearbyQueries(cell grid.CellID) []model.QueryID {
	var out []model.QueryID
	for _, sh := range ss.shards {
		sh.mu.Lock()
		out = append(out, sh.srv.NearbyQueries(cell)...)
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Ops returns the cumulative operation count: router dispatches plus every
// shard's table work.
func (ss *ShardedServer) Ops() int64 {
	n := ss.ops.Value()
	for _, sh := range ss.shards {
		n += sh.srv.Ops()
	}
	return n
}

// lockAll acquires the router write lock and every shard lock (ascending),
// freezing the whole server. unlockAll releases in reverse.
func (ss *ShardedServer) lockAll() {
	ss.mu.Lock()
	for _, sh := range ss.shards {
		sh.mu.Lock()
	}
}

func (ss *ShardedServer) unlockAll() {
	for i := len(ss.shards) - 1; i >= 0; i-- {
		ss.shards[i].mu.Unlock()
	}
	ss.mu.Unlock()
}

// CheckInvariants validates every shard's internal consistency plus the
// cross-shard invariants: routing tables agree with shard contents in both
// directions, each focal row lives in the partition its current cell hashes
// to, no row is owned twice, and pending expiries refer to pending queries.
// It freezes the whole server; intended for tests and debugging.
func (ss *ShardedServer) CheckInvariants() error {
	ss.lockAll()
	defer ss.unlockAll()

	for si, sh := range ss.shards {
		if err := sh.srv.CheckInvariants(); err != nil {
			return fmt.Errorf("shard %d: %w", si, err)
		}
		for oid, fe := range sh.srv.fot {
			if want := ss.shardOf(fe.currCell); want != si {
				return fmt.Errorf("core: focal %d in shard %d but %v hashes to shard %d", oid, si, fe.currCell, want)
			}
			if ri, ok := ss.focalShard[oid]; !ok || ri != si {
				return fmt.Errorf("core: focal %d owned by shard %d but routed to %d", oid, si, ri)
			}
		}
		for qid := range sh.srv.sqt {
			if ri, ok := ss.queryShard[qid]; !ok || ri != si {
				return fmt.Errorf("core: query %d owned by shard %d but routed to %d", qid, si, ri)
			}
		}
	}
	for oid, si := range ss.focalShard {
		if _, ok := ss.shards[si].srv.fot[oid]; !ok {
			return fmt.Errorf("core: focal %d routed to shard %d which does not own it", oid, si)
		}
	}
	for qid, si := range ss.queryShard {
		if _, ok := ss.shards[si].srv.sqt[qid]; !ok {
			return fmt.Errorf("core: query %d routed to shard %d which does not own it", qid, si)
		}
	}
	for qid := range ss.pendingExp {
		found := false
		for _, ps := range ss.pending {
			for _, p := range ps {
				if p.qid == qid {
					found = true
				}
			}
		}
		if !found {
			return fmt.Errorf("core: pending expiry recorded for non-pending query %d", qid)
		}
	}
	return nil
}
