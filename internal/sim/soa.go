// SoA gang execution: several candidate designs run in lockstep over one
// shared stimulus stream. Every lane's frame lives in ONE shared val plane
// and ONE shared xz plane, partitioned lane-major with a fixed stride, and
// each lane owns an ALIASING Engine whose frame is its block of the planes.
// A lane is therefore an ordinary compiled engine: the register-file
// closures (regfile.go), storeNet change records, NBA arena, fanout
// dispatch, reset, and HashOutputH all work unchanged, and every lane
// settles with the solo Engine.Settle loop. What the gang adds is the
// lockstep drive (one decoded stimulus row broadcast to every live lane),
// the pooled planes, and whole-lane dedup.
//
// Whole-lane dedup: lanes whose designs are alpha-equivalent END TO END —
// same name-blind layout, same process signature at every pid, same
// dispatch tables, same initial frame, same port binding (laneEqual) —
// compute bit-identical trajectories on the shared stimulus, so only one
// leader lane per whole-design equivalence class executes and the rest
// mirror its fingerprints and errors by reference. Candidate pools make
// this common: register renames and repeated mutations produce textually
// distinct sources that are the same machine.
//
// Semantics are bit-identical to N independent solo engines, each run alone
// on the same stimulus: lanes are data-independent and each one runs its own
// solo Settle. A lane retires by dropping out of the live list; its plane
// block is simply never touched again (no block swapping), so survivors'
// storage and fingerprints are unaffected by construction.
package sim

import "sync"

// SoAGang runs several candidate designs in lockstep over one shared
// stimulus stream and shared struct-of-arrays planes. The testbench decodes
// each schedule step row once and broadcasts it to every live lane (Drive),
// advances all lanes together (Advance), and folds their outputs into
// per-lane fingerprints (HashOutput); every lane's fingerprints and errors
// equal those of its solo run. Not safe for concurrent use; ranking workers
// each drive their own gang.
type SoAGang struct {
	lanes []soaLane
	live  []int32

	sealed bool
	closed bool

	// dedup collapses whole-design equivalence classes to one executing
	// leader per class (see laneEqual); mirror[id] names the leader a lane
	// mirrors, or -1 for lanes that run themselves. Tests disable dedup so
	// identical lanes each run on their own engine.
	dedup  bool
	mirror []int32

	// Shared planes, built at seal: lane l's block starts at l*stride, where
	// stride is the largest leader frame, and engines[l] frames the first
	// frameWords of it. laneErr[l] is the lane's terminal error (first error
	// wins, as on a solo engine).
	val, xz []uint64
	engines []*Engine
	laneErr []error
}

type soaLane struct {
	d       *Design
	perCase bool // sequential lifecycle: reset the lane engine every case
	clock   int
	ins     []int
	outs    []int
	hash    uint64
}

// soaGangPool recycles closed gangs: planes, engines, and lane tables keep
// their capacity across rank batches, so after warmup sealing a gang
// allocates (almost) nothing — the SoA analogue of the per-design engine
// pool.
var soaGangPool sync.Pool

// NewSoAGang returns an empty SoA gang with capacity for n lanes, recycling
// a pooled gang when one is available.
func NewSoAGang(n int) *SoAGang {
	sg, _ := soaGangPool.Get().(*SoAGang)
	if sg == nil {
		sg = &SoAGang{}
	}
	sg.dedup = true
	sg.sealed = false
	sg.closed = false
	if cap(sg.lanes) < n {
		sg.lanes = make([]soaLane, 0, n)
	} else {
		sg.lanes = sg.lanes[:0]
	}
	if cap(sg.live) < n {
		sg.live = make([]int32, 0, n)
	} else {
		sg.live = sg.live[:0]
	}
	return sg
}

// growI32 returns s resized to n elements, reallocating only when capacity
// is short. Contents are unspecified; callers initialize what they read.
func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// AddLane registers one candidate design with its resolved input handles
// (ins, in drive position order), output handles and clock handle (-1 for
// combinational lanes), and returns the lane id. perCase selects the
// sequential lifecycle: the lane resets to its initial snapshot at every
// BeginCase, so cases are independent; otherwise its state carries across
// cases, as the solo path's shared combinational instance does. Lanes must
// all be added before the first BeginCase.
func (sg *SoAGang) AddLane(d *Design, perCase bool, clock int, ins, outs []int) int {
	id := len(sg.lanes)
	sg.lanes = append(sg.lanes, soaLane{d: d, perCase: perCase, clock: clock, ins: ins, outs: outs})
	sg.live = append(sg.live, int32(id))
	return id
}

// LiveLanes returns how many lanes are still running.
func (sg *SoAGang) LiveLanes() int { return len(sg.live) }

// Err returns the error that retired the lane, or nil while it runs. A
// mirroring lane reports its leader's error: the two designs are the same
// machine, so the leader's failure is exactly the failure the mirror would
// have produced.
func (sg *SoAGang) Err(id int) error {
	if sg.mirror != nil && sg.mirror[id] >= 0 {
		id = int(sg.mirror[id])
	}
	if sg.laneErr == nil {
		return nil
	}
	return sg.laneErr[id]
}

// Hash returns the lane's running fingerprint for the current case
// (mirroring lanes read their leader's).
func (sg *SoAGang) Hash(id int) uint64 {
	if sg.mirror != nil && sg.mirror[id] >= 0 {
		id = int(sg.mirror[id])
	}
	return sg.lanes[id].hash
}

// laneEqual reports whether lanes a and b are the same machine: identical
// name-blind net layout, identical process signature at every pid,
// identical dispatch tables (level and edge fanout are proc-id lists built
// in structural order, so they carry sensitivity information the body
// signatures deliberately omit), identical initial frame snapshot (which also
// covers initial-block effects and the constant pool), and identical port
// binding. Equal lanes compute bit-identical trajectories on the shared
// stimulus, so one may mirror the other outright.
func (sg *SoAGang) laneEqual(a, b int32) bool {
	x, y := &sg.lanes[a], &sg.lanes[b]
	if x.perCase != y.perCase || x.clock != y.clock ||
		len(x.ins) != len(y.ins) || len(x.outs) != len(y.outs) {
		return false
	}
	for i := range x.ins {
		if x.ins[i] != y.ins[i] {
			return false
		}
	}
	for i := range x.outs {
		if x.outs[i] != y.outs[i] {
			return false
		}
	}
	dx, dy := x.d, y.d
	if dx == dy {
		return true
	}
	if dx.gangLayoutSig != dy.gangLayoutSig ||
		len(dx.procArts) != len(dy.procArts) ||
		len(dx.initVal) != len(dy.initVal) ||
		len(dx.levelFan) != len(dy.levelFan) {
		return false
	}
	for k := range dx.procArts {
		if dx.procArts[k].gangSig != dy.procArts[k].gangSig {
			return false
		}
	}
	for i := range dx.initVal {
		if dx.initVal[i] != dy.initVal[i] || dx.initXZ[i] != dy.initXZ[i] {
			return false
		}
	}
	for i := range dx.levelFan {
		lx, ly := dx.levelFan[i], dy.levelFan[i]
		if len(lx) != len(ly) {
			return false
		}
		for j := range lx {
			if lx[j] != ly[j] {
				return false
			}
		}
		ex, ey := dx.edgeFan[i], dy.edgeFan[i]
		if len(ex) != len(ey) {
			return false
		}
		for j := range ex {
			if ex[j] != ey[j] {
				return false
			}
		}
	}
	return true
}

// seal fixes the gang layout: collapses equal lanes onto leaders, allocates
// the shared planes (stride = the largest leader frame), and builds one
// aliasing engine per leader, reset to its design's initial snapshot.
func (sg *SoAGang) seal() {
	sg.sealed = true
	n := len(sg.lanes)
	if n == 0 {
		return
	}

	// Whole-design dedup. Each lane either leads a behavior class (and joins
	// the live execution set) or mirrors an earlier equal lane and never
	// executes: no plane block initialization, no engine — its Hash/Err
	// reads resolve through the leader.
	sg.mirror = growI32(sg.mirror, n)
	sg.live = sg.live[:0]
	for i := range sg.lanes {
		sg.mirror[i] = -1
		if sg.dedup {
			for _, ld := range sg.live {
				if sg.laneEqual(int32(i), ld) {
					sg.mirror[i] = ld
					break
				}
			}
		}
		if sg.mirror[i] < 0 {
			sg.live = append(sg.live, int32(i))
		}
	}

	stride := int32(0)
	for _, li := range sg.live {
		if fw := sg.lanes[li].d.frameWords; fw > stride {
			stride = fw
		}
	}

	// Storage below reuses pooled capacity. Plane contents start as garbage,
	// which is safe because reset overwrites every leader's frame with its
	// full initVal/initXZ snapshot (state, constant pool, zeroed scratch).
	sg.val = growU64(sg.val, int(stride)*n)
	sg.xz = growU64(sg.xz, int(stride)*n)
	if cap(sg.engines) < n {
		ng := make([]*Engine, n)
		copy(ng, sg.engines)
		sg.engines = ng
	} else {
		sg.engines = sg.engines[:n]
	}
	if cap(sg.laneErr) < n {
		sg.laneErr = make([]error, n)
	} else {
		sg.laneErr = sg.laneErr[:n]
		for i := range sg.laneErr {
			sg.laneErr[i] = nil
		}
	}

	for _, li := range sg.live {
		i := int(li)
		ln := &sg.lanes[i]
		o := int32(i) * stride
		fw := ln.d.frameWords
		en := sg.engines[i]
		if en == nil {
			en = &Engine{}
			sg.engines[i] = en
		}
		en.d = ln.d
		en.val = sg.val[o : o+fw : o+fw]
		en.xz = sg.xz[o : o+fw : o+fw]
		if np := len(ln.d.procs); cap(en.queued) < np {
			en.queued = make([]bool, np)
		} else {
			en.queued = en.queued[:np]
		}
		en.reset()
	}
}

// BeginCase starts the next test case on every live lane: sequential lanes
// reset to the design's initial snapshot (the SoA equivalent of acquiring a
// pooled engine), fingerprints reset to the FNV offset basis, and clocked
// lanes drive their clock low — the exact preamble of a solo scheduled case.
func (sg *SoAGang) BeginCase() {
	if !sg.sealed {
		sg.seal()
	}
	for _, id := range sg.live {
		ln := &sg.lanes[id]
		en := sg.engines[id]
		if ln.perCase {
			en.reset()
		}
		ln.hash = FNVOffset64
		if ln.clock >= 0 {
			en.SetInputUintH(ln.clock, 0)
		}
	}
}

// Drive stores one decoded stimulus value into drive position pos of every
// live lane. The Value may be a view over shared schedule planes.
func (sg *SoAGang) Drive(pos int, v Value) {
	for _, id := range sg.live {
		ln := &sg.lanes[id]
		sg.engines[id].SetInputH(ln.ins[pos], v)
	}
}

// Advance moves every live lane one step — a full clock cycle for clocked
// lanes, a settle otherwise — in lockstep. Failing lanes retire with their
// error and drop out of the live set; survivors are untouched.
func (sg *SoAGang) Advance() {
	clocked := false
	for _, id := range sg.live {
		ln := &sg.lanes[id]
		if ln.clock >= 0 {
			clocked = true
			sg.engines[id].SetInputUintH(ln.clock, 1)
		}
	}
	sg.settleAll()
	if clocked {
		for _, id := range sg.live {
			ln := &sg.lanes[id]
			if ln.clock >= 0 && sg.laneErr[id] == nil {
				sg.engines[id].SetInputUintH(ln.clock, 0)
			}
		}
		sg.settleAll()
	}
	n := 0
	for _, id := range sg.live {
		if sg.laneErr[id] == nil {
			sg.live[n] = id
			n++
		}
	}
	sg.live = sg.live[:n]
}

// Retire drops lane id from the live set at a case boundary with err as its
// terminal error, exactly as Advance compacts a failed lane: it leaves the
// live set and its plane block is never touched again, so survivors' planes and
// fingerprints are unaffected. A mirror resolves to its leader — the two are
// the same machine — so retiring either retires the whole class. Retiring a
// lane that already stopped is a no-op.
func (sg *SoAGang) Retire(id int, err error) {
	if !sg.sealed {
		sg.seal()
	}
	if sg.mirror[id] >= 0 {
		id = int(sg.mirror[id])
	}
	if sg.laneErr[id] != nil {
		return
	}
	sg.laneErr[id] = err
	sg.live = dropLive(sg.live, int32(id))
}

// dropLive removes id from the ordered live list in place.
func dropLive(live []int32, id int32) []int32 {
	for i, l := range live {
		if l == id {
			return append(live[:i], live[i+1:]...)
		}
	}
	return live
}

// settleAll settles every live lane with its solo Settle loop. A lane that
// fails records its error and is skipped from then on; Advance compacts it
// out of the live set.
func (sg *SoAGang) settleAll() {
	for _, id := range sg.live {
		if sg.laneErr[id] != nil {
			continue
		}
		if err := sg.engines[id].Settle(); err != nil {
			sg.laneErr[id] = err
		}
	}
}

// HashOutput folds output column col at the given rendering width into every
// live lane's case fingerprint, followed by the newline separator — the same
// byte stream the solo scheduled fingerprint run folds.
func (sg *SoAGang) HashOutput(col, width int) {
	for _, id := range sg.live {
		ln := &sg.lanes[id]
		h := sg.engines[id].HashOutputH(ln.hash, ln.outs[col], width)
		ln.hash = (h ^ uint64('\n')) * FNVPrime64
	}
}

// Close retires the gang into the gang pool: design and error references
// are dropped, but planes, engines, and lane tables keep their capacity for
// the next gang. The gang must not be used after Close.
func (sg *SoAGang) Close() {
	if sg.closed {
		return
	}
	sg.closed = true
	for i := range sg.lanes {
		ln := &sg.lanes[i]
		ln.d, ln.ins, ln.outs = nil, nil, nil
	}
	sg.lanes = sg.lanes[:0]
	for _, en := range sg.engines {
		if en != nil {
			en.d = nil
		}
	}
	for i := range sg.laneErr {
		sg.laneErr[i] = nil
	}
	sg.live = sg.live[:0]
	soaGangPool.Put(sg)
}
