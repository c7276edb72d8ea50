package main

import "math"

// The op generator is a copy of the device mix in internal/obs/load
// (workload.go), kept here so that a change under measurement cannot alter
// the benchmark's own inputs. It is single-threaded and fully determined by
// the seed: op i of a given seed is always the same message.

// alpha is the grid cell side in miles (the paper's default α).
const alpha = 5.0

// opKind is the uplink message an op carries.
type opKind uint8

const (
	opJoin        opKind = iota // cell change from the invalid cell
	opFocalInfo                 // focal motion state completing an install
	opVelocity                  // significant velocity change (§3.4)
	opCellChange                // grid-cell crossing (§3.5)
	opContainment               // containment flip (§3.6)
)

var opKindNames = [...]string{"join", "focalinfo", "velocity", "cellchange", "containment"}

func (k opKind) String() string { return opKindNames[k] }

// op is one device uplink in the benchmark's own representation; layers.go
// turns it into a protocol message.
type op struct {
	kind             opKind
	oid              uint32
	qid              uint32 // containment target
	in               bool   // containment state reported
	prevCol, prevRow int32  // previous cell (-1,-1 on join)
	col, row         int32  // current cell
	x, y, vx, vy, tm float64
}

// splitmix64 is the op-stream PRNG.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

type device struct {
	x, y, vx, vy float64
	col, row     int32
	seq          uint64
	in           bool
}

// mix selects how ops are spread over objects.
type mix int

const (
	// mixDefault round-robins ops over all objects (the load package's mix).
	mixDefault mix = iota
	// mixFocalHeavy gives every second op to a focal object, so focals
	// send half of all ops and cross node cell-range boundaries often.
	mixFocalHeavy
)

// generator produces the deterministic op stream for one seed.
type generator struct {
	n, queries int
	cols       int32
	side       float64
	seed       uint64
	mix        mix
	devs       []device
	qids       []uint32
	next       uint64 // index of the next op Next returns
}

// newGenerator places n objects (the first queries of them focal) on a grid
// sized to ~4 objects per cell, as the load package does.
func newGenerator(n, queries int, seed uint64, m mix) *generator {
	cols := int32(math.Ceil(math.Sqrt(float64(n) / 4)))
	if cols < 4 {
		cols = 4
	}
	g := &generator{n: n, queries: queries, cols: cols, side: float64(cols) * alpha,
		seed: seed, mix: m, devs: make([]device, n)}
	for i := range g.devs {
		d := &g.devs[i]
		r := splitmix64(seed ^ uint64(i+1))
		d.x = float64(r%100000) / 100000 * g.side
		d.y = float64(splitmix64(r)%100000) / 100000 * g.side
		d.vx, d.vy = randVel(splitmix64(r + 1))
		d.col, d.row = g.cellOf(d.x), g.cellOf(d.y)
	}
	return g
}

// area is the universe of discourse in square miles, the server's -area.
func (g *generator) area() float64 { return g.side * g.side }

func (g *generator) cellOf(v float64) int32 {
	c := int32(math.Floor(v / alpha))
	if c < 0 {
		return 0
	}
	if c >= g.cols {
		return g.cols - 1
	}
	return c
}

func randVel(r uint64) (float64, float64) {
	return float64(int64(r%1000)-500) / 10, float64(int64(splitmix64(r)%1000)-500) / 10
}

func (g *generator) tm(d *device) float64 { return float64(d.seq) * 1e-3 }

// join is object oid's arrival report.
func (g *generator) join(oid uint32) op {
	d := &g.devs[oid-1]
	return op{kind: opJoin, oid: oid, prevCol: -1, prevRow: -1, col: d.col, row: d.row,
		x: d.x, y: d.y, vx: d.vx, vy: d.vy}
}

// focalInfo is focal oid's motion state, sent right after its query is
// installed so the install completes without a request round trip.
func (g *generator) focalInfo(oid uint32) op {
	d := &g.devs[oid-1]
	d.seq++
	return op{kind: opFocalInfo, oid: oid, x: d.x, y: d.y, vx: d.vx, vy: d.vy, tm: g.tm(d)}
}

// object returns the object that sends op i.
func (g *generator) object(i uint64) uint32 {
	if g.mix == mixFocalHeavy {
		if i%2 == 0 {
			return uint32((i/2)%uint64(g.queries)) + 1
		}
		return uint32(g.queries) + uint32((i/2)%uint64(g.n-g.queries)) + 1
	}
	return uint32(i%uint64(g.n)) + 1
}

// Next returns the next op of the stream. Focal objects mostly change
// velocity and sometimes cross cells; other objects mostly cross cells and
// sometimes flip a containment report.
func (g *generator) Next() op {
	i := g.next
	g.next++
	oid := g.object(i)
	d := &g.devs[oid-1]
	d.seq++
	r := splitmix64(g.seed ^ uint64(oid)<<24 ^ d.seq)
	focal := int(oid) <= g.queries
	switch {
	case focal && r%10 < 6:
		d.vx, d.vy = randVel(r >> 8)
		return op{kind: opVelocity, oid: oid, x: d.x, y: d.y, vx: d.vx, vy: d.vy, tm: g.tm(d)}
	case !focal && r%10 >= 8 && len(g.qids) > 0:
		d.in = !d.in
		return op{kind: opContainment, oid: oid, qid: g.qids[(int(oid)-1)%len(g.qids)], in: d.in}
	default:
		return g.cellChange(oid, d, r>>8)
	}
}

// cellChange moves the object to a neighbouring cell, bouncing at the
// border.
func (g *generator) cellChange(oid uint32, d *device, r uint64) op {
	pc, pr := d.col, d.row
	c := pc + int32(r%3) - 1
	w := pr + int32(splitmix64(r)%3) - 1
	if c < 0 {
		c = 1
	} else if c >= g.cols {
		c = g.cols - 2
	}
	if w < 0 {
		w = 1
	} else if w >= g.cols {
		w = g.cols - 2
	}
	d.col, d.row = c, w
	d.x, d.y = (float64(c)+0.5)*alpha, (float64(w)+0.5)*alpha
	return op{kind: opCellChange, oid: oid, prevCol: pc, prevRow: pr, col: c, row: w,
		x: d.x, y: d.y, vx: d.vx, vy: d.vy, tm: g.tm(d)}
}

// clone returns an independent copy of the generator's state.
func (g *generator) clone() *generator {
	c := *g
	c.devs = append([]device(nil), g.devs...)
	return &c
}
