// Compiled simulation backend: Compile flattens an elaborated design into an
// index-addressed netlist whose entire mutable state lives in two flat
// per-Engine []uint64 planes (val/xz). Every net owns a contiguous word range
// in the planes, and every intermediate expression of every process owns a
// scratch word range assigned at compile time, so compiled processes are
// destination-passing kernels that read operand slots and write their result
// slot in place: steady-state evaluation performs zero heap allocations.
// Boxed Values survive only at the API boundary (SetInput/Output). A Design
// is immutable and safe for concurrent use; each concurrent evaluation gets
// its own cheap Engine (pooled via AcquireEngine/ReleaseEngine).
//
// Processes are lowered by the register-file compiler (regfile.go), which
// statically sizes every slot. A design with any construct whose width has
// no compile-time bound — part-selects with non-constant [a:b] bounds or
// non-constant indexed widths, replications with non-constant counts (none
// of them legal Verilog-2001), or intermediates wider than maxRegCap — is
// refused whole with ErrNotCompilable; the testbench runs such designs on
// the interpreter instead.
//
// The compiler deliberately mirrors the interpreter (eval.go) construct by
// construct — width contexts, X-propagation, part-select bounds, event
// semantics — and the two are held together by differential tests
// (random_expr_test.go, kernel_width_test.go, FuzzSimDifferential) rather
// than trust. One intended difference: the interpreter reports unknown
// identifiers and unsupported constructs lazily at first execution, while
// Compile rejects them up front — unless it refuses the design first, in
// which case the interpreter runs it and the lazy rule applies.
package sim

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/verilog/ast"
	"repro/internal/verilog/printer"
)

// maxRegCap bounds the static bit capacity of a register-file slot. A node
// whose width bound exceeds it (e.g. nested replications) makes the design
// not compilable rather than reserving absurd frame space.
const maxRegCap = 1 << 16

// ErrNotCompilable is returned by Compile and CompileDelta for an elaborated
// design the register-file compiler cannot size statically (see the file
// comment). Such a design is still simulable on the interpreter (New).
var ErrNotCompilable = errors.New("design not compilable")

// cnet is one compiled net slot (static metadata; values live in the
// Engine's planes at [off, off+nw)).
type cnet struct {
	name  string
	width int
	lsb   int
	off   int32 // word offset in the frame
	nw    int32 // words(width)
}

// cproc is one compiled process: a closure over frame offsets.
type cproc struct {
	run  func(en *Engine) error
	cont bool
}

// cedgeSub is an edge-sensitive subscription of a process to a net.
type cedgeSub struct {
	proc int32
	edge ast.EdgeKind
}

// Design is a compiled, elaborated design. It is immutable after Compile and
// safe for concurrent use: all mutable simulation state lives in Engines.
type Design struct {
	top        string
	nets       []cnet
	stateWords int32 // words holding net state (prefix of the frame)
	frameWords int32 // total frame size: state + constant pool + scratch
	// initVal/initXZ are the frame snapshot after initial blocks + first
	// settle: net state, then compile-time constants, then zeroed scratch.
	initVal []uint64
	initXZ  []uint64

	procs    []cproc
	levelFan [][]int32
	edgeFan  [][]cedgeSub
	inputs   []PortInfo
	outputs  []PortInfo
	topIdx   map[string]int32 // top-scope local name -> net index
	inputIdx map[string]int32 // top-level input port name -> net index

	// layoutSig and procArts make the design usable as a delta-compilation
	// base (see CompileDelta): layoutSig hashes the flattened net layout
	// (order, widths, LSBs — the inputs that fix every net's frame offset),
	// and procArts records one compiled artifact per lowered process.
	layoutSig   uint64
	procArts    []procArt
	deltaReused int // processes whose artifacts came from the base design

	// gangLayoutSig is the name-blind layout hash (gangsig.go): net shapes
	// and order without hierarchical names. It lets whole-lane dedup match
	// designs that differ only by identifier renaming, which the
	// name-sensitive layoutSig deliberately distinguishes.
	gangLayoutSig uint64
	// gangClassHash folds everything whole-lane dedup compares (laneEqual);
	// precomputed at compile time for the ranking batcher (GangClassHash).
	gangClassHash uint64

	// canonHash is the content address of this design for the persistent
	// result store: a hash over (canonical source key, top module). Set by
	// the compile cache, whose key computes both halves anyway; designs
	// compiled directly (tests, tools) leave it "" and simply skip the
	// store. See CanonicalHash.
	canonHash string

	pool sync.Pool // recycled Engines (AcquireEngine/ReleaseEngine)
}

// procArt is the per-process unit of compilation reuse: the lowered closure
// plus everything needed to splice it into another design's frame. A closure
// captures only frame offsets, net indices and compile-time Values — no
// reference to the Simulator or Design it was lowered under — so it is valid
// in any design with an identical net layout, provided it is re-entered at
// the identical frame cursor (frameIn) so all its scratch and constant
// offsets land where they were allocated.
type procArt struct {
	sig      uint64 // canonical process hash (printed text, scope, params)
	gangSig  uint64 // alpha-renaming-blind hash for whole-lane dedup (gangsig.go)
	frameIn  int32  // frame cursor at lowering entry
	frameOut int32  // frame cursor after lowering (scratch + interned consts)
	consts   []constPatch
	cp       cproc
}

// Top returns the top module name the design was compiled for.
func (d *Design) Top() string { return d.top }

// CanonicalHash returns the design's content address — a stable hex hash
// over (canonical source, top module) that identifies it across processes
// and machines — or "" when the design was compiled outside the cache and
// has none. It keys the persistent fingerprint store: two designs with the
// same CanonicalHash are behaviorally identical.
func (d *Design) CanonicalHash() string { return d.canonHash }

// InputHandle resolves a top-level input port name to a handle usable with
// the Engine's handle-bound stimulus methods (SetInputH, SetInputUintH,
// TickH). Resolution costs one map lookup; handles are valid for every
// Engine of this Design, so the testbench resolves each name once per
// (design, stimulus) pair instead of once per drive. Non-input names fail
// with ErrNotInput, exactly like SetInput.
func (d *Design) InputHandle(name string) (int, error) {
	idx, ok := d.inputIdx[name]
	if !ok {
		return -1, fmt.Errorf("%w: %q", ErrNotInput, name)
	}
	return int(idx), nil
}

// OutputHandle resolves a top-level net name (usually an output port) to a
// handle usable with the Engine's handle-bound observation methods
// (HashOutputH, AppendOutputH, OutputH). Unknown names fail with
// ErrUnknownNet, exactly like Output.
func (d *Design) OutputHandle(name string) (int, error) {
	idx, ok := d.topIdx[name]
	if !ok {
		return -1, fmt.Errorf("%w: %q", ErrUnknownNet, name)
	}
	return int(idx), nil
}

// NumNets returns the number of flattened nets.
func (d *Design) NumNets() int { return len(d.nets) }

// FrameWords returns the per-Engine state size in 64-bit words (net state,
// constant pool, and expression scratch).
func (d *Design) FrameWords() int { return int(d.frameWords) }

// DeltaReused returns how many of the design's processes were spliced in
// from the delta base instead of being re-lowered (0 for plain Compile).
func (d *Design) DeltaReused() int { return d.deltaReused }

// Compile elaborates src with the given top module and compiles it. The
// initial state (initial blocks executed, combinational logic settled) is
// computed once here; NewEngine then only copies the frame snapshot. A
// design the register-file compiler cannot size fails with ErrNotCompilable.
func Compile(src *ast.Source, top string) (*Design, error) {
	s, err := New(src, top)
	if err != nil {
		return nil, err
	}
	return compileFrom(s, nil)
}

// CompileDelta compiles src like Compile but reuses per-process artifacts
// from base where they provably transfer: the net layouts must hash equal,
// and a process transfers when its canonical hash matches the base process
// at the same position and the frame cursor at its entry is unchanged (all
// captured scratch/constant offsets then resolve identically). Mutants
// produced by path-copy mutation differ from their base in one process
// spine, so typically everything up to the mutated process — and, when the
// mutation preserves frame shape, everything after it — is spliced instead
// of re-lowered. Elaboration (New) still runs per design: the initial-state
// snapshot depends on the mutated code.
func CompileDelta(base *Design, src *ast.Source, top string) (*Design, error) {
	s, err := New(src, top)
	if err != nil {
		return nil, err
	}
	return compileFrom(s, base)
}

// compiler carries the cross-references needed while lowering processes.
type compiler struct {
	netIdx     map[*net]int32
	d          *Design
	frameWords int32
	consts     []constPatch
}

type constPatch struct {
	off int32
	v   Value
}

// alloc reserves nwords words of frame space and returns their offset.
func (c *compiler) alloc(nwords int) int32 {
	off := c.frameWords
	c.frameWords += int32(nwords)
	return off
}

// allocConst interns a constant Value in the frame's constant pool.
func (c *compiler) allocConst(v Value) int32 {
	off := c.alloc(words(v.Width()))
	c.consts = append(c.consts, constPatch{off: off, v: v})
	return off
}

// sigString folds s (length-prefixed, so concatenations cannot collide by
// re-splitting) into a running FNV-1a hash.
func sigString(h uint64, s string) uint64 {
	h = sigUint(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * FNVPrime64
	}
	return h
}

// sigBytes is sigString over a byte slice: the same length prefix and byte
// fold, so printed bytes hash exactly as the string would.
func sigBytes(h uint64, b []byte) uint64 {
	h = sigUint(h, uint64(len(b)))
	for _, c := range b {
		h = (h ^ uint64(c)) * FNVPrime64
	}
	return h
}

func sigUint(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (x & 0xff)) * FNVPrime64
		x >>= 8
	}
	return h
}

// layoutSigOf hashes everything that fixes net frame offsets and handle
// indices: the flattened net order with hierarchical names, widths and LSBs.
// Two elaborations with equal layout signatures assign every net the same
// index and frame range, which is the ambient precondition for reusing any
// compiled process closure across them.
func layoutSigOf(s *Simulator) uint64 {
	h := sigString(FNVOffset64, s.topName)
	for _, n := range s.nets {
		h = sigString(h, n.name)
		h = sigUint(h, uint64(n.width))
		h = sigUint(h, uint64(int64(n.lsb)))
	}
	return h
}

// scopeSig folds a scope's identity and parameter environment: lowering
// resolves identifiers and elaboration-time constants through it, so a
// process artifact only transfers between designs whose scopes agree.
func scopeSig(h uint64, sc *scope) uint64 {
	if sc == nil {
		return sigUint(h, 0)
	}
	h = sigString(h, sc.prefix)
	names := make([]string, 0, len(sc.params))
	for name := range sc.params {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := sc.params[name]
		h = sigString(h, name)
		h = sigUint(h, uint64(v.Width()))
		h = sigString(h, v.String())
	}
	return h
}

// procSigOf canonically hashes one process: its printed body (the printer is
// a tested normalizer, so formatting differences vanish) plus the scopes and
// parameters lowering reads. Sensitivity lists are deliberately excluded —
// they determine fanout, which compileFrom always recomputes per design.
func procSigOf(p *process) uint64 {
	buf := printer.GetBuffer()
	defer printer.PutBuffer(buf)
	h := scopeSig(FNVOffset64, p.scope)
	if p.cont {
		h = sigUint(h, 1)
		buf.B = printer.AppendExpr(buf.B[:0], p.lhs)
		h = sigBytes(h, buf.B)
		buf.B = printer.AppendExpr(buf.B[:0], p.rhs)
		h = sigBytes(h, buf.B)
		h = scopeSig(h, p.rhsScope)
		return h
	}
	h = sigUint(h, 2)
	buf.B = printer.AppendStmt(buf.B[:0], p.body, 0)
	return sigBytes(h, buf.B)
}

func compileFrom(s *Simulator, base *Design) (*Design, error) {
	d := &Design{
		top:     s.topName,
		inputs:  append([]PortInfo(nil), s.inputs...),
		outputs: append([]PortInfo(nil), s.outputs...),
		topIdx:  make(map[string]int32, len(s.topScope.nets)),
	}
	c := &compiler{
		netIdx: make(map[*net]int32, len(s.nets)),
		d:      d,
	}
	d.nets = make([]cnet, len(s.nets))
	for i, n := range s.nets {
		c.netIdx[n] = int32(i)
		nw := int32(words(n.width))
		d.nets[i] = cnet{name: n.name, width: n.width, lsb: n.lsb, off: c.alloc(int(nw)), nw: nw}
	}
	d.stateWords = c.frameWords
	for name, n := range s.topScope.nets {
		d.topIdx[name] = c.netIdx[n]
	}
	d.inputIdx = make(map[string]int32, len(d.inputs))
	for _, in := range d.inputs {
		if idx, ok := d.topIdx[in.Name]; ok {
			d.inputIdx[in.Name] = idx
		}
	}

	// Initial-only processes ran during New and never re-trigger, so they are
	// dropped; everything else is lowered in registration order. With a
	// delta base of identical layout, each process is first matched against
	// the base artifact at the same position — the per-process artifact
	// cache keyed by (process canonical hash, net-layout hash) the base
	// carries — and spliced in when both the hash and the frame entry cursor
	// agree; only processes that fail the match (the mutated spine, plus any
	// suffix the mutation's frame-shape change displaced) are re-lowered.
	d.layoutSig = layoutSigOf(s)
	d.gangLayoutSig = gangLayoutSigOf(s)
	canReuse := base != nil && base.layoutSig == d.layoutSig
	procID := make(map[*process]int32, len(s.procs))
	for _, p := range s.procs {
		if p.initialOnly {
			continue
		}
		sig := procSigOf(p)
		k := len(d.procs)
		var art procArt
		if canReuse && k < len(base.procArts) &&
			base.procArts[k].sig == sig && base.procArts[k].frameIn == c.frameWords {
			ba := &base.procArts[k]
			art = procArt{sig: sig, frameIn: ba.frameIn, frameOut: ba.frameOut,
				consts: ba.consts, cp: ba.cp}
			c.frameWords = ba.frameOut
			c.consts = append(c.consts, ba.consts...)
			d.deltaReused++
		} else {
			frameIn, constMark := c.frameWords, len(c.consts)
			cp, err := c.compileProcessRegfile(p)
			if err != nil {
				return nil, err
			}
			art = procArt{sig: sig, frameIn: frameIn, frameOut: c.frameWords,
				consts: append([]constPatch(nil), c.consts[constMark:]...), cp: cp}
		}
		art.gangSig = gangProcSig(p, c.netIdx)
		procID[p] = int32(k)
		d.procs = append(d.procs, art.cp)
		d.procArts = append(d.procArts, art)
	}

	d.levelFan = make([][]int32, len(s.nets))
	d.edgeFan = make([][]cedgeSub, len(s.nets))
	for i, n := range s.nets {
		for _, p := range n.levelFanout {
			if id, ok := procID[p]; ok {
				d.levelFan[i] = append(d.levelFan[i], id)
			}
		}
		for _, sub := range n.edgeFanout {
			if id, ok := procID[sub.proc]; ok {
				d.edgeFan[i] = append(d.edgeFan[i], cedgeSub{proc: id, edge: sub.edge})
			}
		}
	}

	// Assemble the frame snapshot: net state from the settled simulator,
	// then interned constants, then zeroed scratch.
	d.frameWords = c.frameWords
	d.initVal = make([]uint64, d.frameWords)
	d.initXZ = make([]uint64, d.frameWords)
	for i, n := range s.nets {
		cn := &d.nets[i]
		copy(d.initVal[cn.off:cn.off+cn.nw], n.value.val)
		copy(d.initXZ[cn.off:cn.off+cn.nw], n.value.xz)
	}
	for _, cp := range c.consts {
		copy(d.initVal[cp.off:], cp.v.val)
		copy(d.initXZ[cp.off:], cp.v.xz)
	}
	// Everything the gang's whole-lane equality compares is now fixed, so the
	// advisory batching hash is computed once here instead of re-walking the
	// frame snapshot and fanout tables on every ranking call.
	d.gangClassHash = d.computeGangClassHash()
	return d, nil
}
