package core

import (
	"sync"
	"sync/atomic"

	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/obs"
	"mobieyes/internal/obs/cost"
)

// shard is one partition of a ShardedServer: a full serial Server restricted
// to the focal objects whose current cell hashes into this partition, plus
// the mutex serializing access to it. The shard's Server sees the whole
// grid (monitoring regions freely cross partition boundaries); only row
// ownership is partitioned. upl counts the uplink messages the router
// dispatched to this partition (the shard's own Server.upl is unused here —
// the router calls the handlers directly, bypassing HandleUplink).
type shard struct {
	mu  sync.Mutex
	srv *Server
	upl *obs.Counter
	// idx is this shard's partition index, used by the router to attribute
	// uplink traffic to the shard's cost ledger.
	idx int
	// inflight is the number of uplinks currently charged to this shard —
	// queued on its lock or executing — maintained by the instrumented
	// router's dispatch (see inflightCounter). At quiescence it is zero.
	inflight atomic.Int64
}

// focalRecord is a focal object's complete server-side state — its FOT row
// and the SQT rows of every query bound to it — detached from one shard for
// migration into another.
type focalRecord struct {
	oid model.ObjectID
	fe  *fotEntry
	// entries are the SQT rows of fe.queries, in the same order.
	entries []*sqtEntry
}

// extractFocal detaches oid's FOT row and every bound query from s's tables
// (SQT, RQI, expiries) without emitting any messages. The caller must know
// oid is present and re-inject the record elsewhere with injectFocal.
func (s *Server) extractFocal(oid model.ObjectID) focalRecord {
	fe := s.fot[oid]
	rec := focalRecord{oid: oid, fe: fe, entries: make([]*sqtEntry, 0, len(fe.queries))}
	for _, qid := range fe.queries {
		e := s.sqt[qid]
		s.rqiRemove(qid, e.monRegion)
		delete(s.sqt, qid)
		delete(s.expiries, qid)
		rec.entries = append(rec.entries, e)
	}
	delete(s.fot, oid)
	return rec
}

// injectFocal installs a migrated focal record with the given motion state
// and current cell. With relocate set (a §3.5 cell crossing) each query's
// monitoring region is recomputed and — matching the serial relocateQuery —
// its refreshed state is broadcast to the union of the old and new regions.
// Without relocate (a focal-info refresh) monitoring regions are preserved
// and nothing is sent, matching the serial OnFocalInfoResponse.
func (s *Server) injectFocal(rec focalRecord, st model.MotionState, cell grid.CellID, relocate bool) {
	fe := rec.fe
	fe.state = st
	fe.currCell = cell
	s.fot[rec.oid] = fe
	for i, qid := range fe.queries {
		e := rec.entries[i]
		oldRegion := e.monRegion
		e.currCell = cell
		s.sqt[qid] = e
		if e.expiry != 0 {
			s.expiries[qid] = e.expiry
		}
		if relocate {
			e.monRegion = s.g.MonitoringRegion(cell, e.query.Region.EnclosingRadius())
		}
		s.rqiAdd(qid, e.monRegion)
		if relocate {
			s.broadcast(oldRegion.Union(e.monRegion), msg.QueryInstall{
				Queries: []msg.QueryState{s.queryState(qid)},
			})
			s.ops.Add(2)
			// Same table update the serial relocateQuery charges; the RQI
			// touches above already match (a cell change always moves the
			// monitoring region), so migrated and serial relocations cost
			// the same.
			s.acct.Compute(cost.UnitTableOp, 1)
		}
	}
}
