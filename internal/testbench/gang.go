package testbench

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/serve/faultinject"
	"repro/internal/sim"
	"repro/internal/verilog/ast"
)

// --- Fingerprint memo --------------------------------------------------------
//
// A compiled fingerprint run is a pure function of (Design, Stimulus): the
// design fixes behavior, the stimulus fixes drives, and FPTrace records
// nothing else. The memo keys the design by its content hash
// (sim.Design.CanonicalHash, the persistent store's key too) and the
// stimulus by identity (a process-wide cached object), so identical pairs
// recur constantly — the same candidate ranked under three pipeline
// variants, re-simulated per bench iteration, recompiled after compile-cache
// eviction — and the memo pins no design. The memo is single-flight
// (claim/publish/wait) so concurrent gangs and solo runs never duplicate a
// run, and LRU-bounded with in-flight entries pinned, following the
// discipline of the compile and bind caches. Verification (VerifyGang)
// stays outside it: its traces stop at the first disagreeing case.

type fpKey struct {
	design string // sim.Design.CanonicalHash
	st     *Stimulus
}

// fpEntry is one single-flight memo slot. claim marks the caller as the
// computing owner; publish warms the trace's lazy whole-run fingerprint
// (after which the shared FPTrace is read-only) and releases waiters;
// abort releases an unfulfilled claim — the owner was cancelled or crashed
// before producing a result — waking waiters so one of them can adopt the
// claim and compute instead. An entry is therefore never poisoned: it is
// either unclaimed, claimed by a live computing goroutine, or published.
//
// The slot is also its own LRU node (prev/next under fpMu) and allocates its
// wakeup channel only when a waiter actually blocks: a memo-cold ranking call
// inserts dozens of entries per batch and almost never races another claimant
// for the same key, so the common miss costs one allocation, not four.
type fpEntry struct {
	key      fpKey
	claimed  atomic.Bool
	finished atomic.Bool
	ready    chan struct{} // created under fpMu by the first blocked waiter
	tr       *FPTrace
	prev     *fpEntry // LRU list links, guarded by fpMu
	next     *fpEntry
}

func (e *fpEntry) claim() bool { return e.claimed.CompareAndSwap(false, true) }

func (e *fpEntry) publish(tr *FPTrace) {
	tr.Fingerprint()
	e.tr = tr
	e.finished.Store(true)
	fpMu.Lock()
	ready := e.ready
	e.ready = nil
	fpMu.Unlock()
	if ready != nil {
		close(ready)
	}
}

// abort releases the caller's claim without publishing: the entry returns
// to the unclaimed state and any blocked waiters wake to race for the
// claim themselves. A cancelled or crashed run must leave the memo exactly
// as it found it, so the next job recomputes and gets a bit-identical
// clean result.
func (e *fpEntry) abort() {
	fpMu.Lock()
	ready := e.ready
	e.ready = nil
	e.claimed.Store(false)
	fpMu.Unlock()
	if ready != nil {
		close(ready)
	}
}

// wait blocks until the entry publishes, its claim frees up, or ctx is
// cancelled. It returns (tr, false, nil) for a published trace;
// (nil, true, nil) when a previous owner aborted and this caller adopted
// the claim — the caller now owns the entry and must publish or abort it;
// and (nil, false, ctx.Err()) on cancellation, leaving the entry to its
// current owner.
func (e *fpEntry) wait(ctx context.Context) (*FPTrace, bool, error) {
	for {
		if e.finished.Load() {
			return e.tr, false, nil
		}
		if e.claim() {
			return nil, true, nil
		}
		fpMu.Lock()
		if e.finished.Load() {
			fpMu.Unlock()
			return e.tr, false, nil
		}
		if !e.claimed.Load() {
			fpMu.Unlock()
			continue // claim freed between checks: retry the CAS
		}
		if e.ready == nil {
			e.ready = make(chan struct{})
		}
		ready := e.ready
		fpMu.Unlock()
		select {
		case <-ready:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
}

func (e *fpEntry) done() bool { return e.finished.Load() }

var (
	fpMu   sync.Mutex
	fpMemo = make(map[fpKey]*fpEntry)
	// Intrusive LRU list of every memo entry, most recently used first.
	// Entries are their own nodes, so list maintenance allocates nothing.
	fpFront *fpEntry
	fpBack  *fpEntry
	fpLen   int
)

// fpUnlink detaches e from the LRU list. Callers hold fpMu.
func fpUnlink(e *fpEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		fpFront = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		fpBack = e.prev
	}
	e.prev, e.next = nil, nil
	fpLen--
}

// fpPushFront makes e the most recently used entry. Callers hold fpMu.
func fpPushFront(e *fpEntry) {
	e.prev, e.next = nil, fpFront
	if fpFront != nil {
		fpFront.prev = e
	}
	fpFront = e
	if fpBack == nil {
		fpBack = e
	}
	fpLen++
}

// DefaultFPMemoCap is the memory tier's default entry bound. An FPTrace is
// at most a few hundred uint64s, so the memo tops out around a few
// megabytes; its keys are content hashes, so it pins no designs.
const DefaultFPMemoCap = 4096

// fpMemoCap bounds retained traces; guarded by fpMu, sized by SetFPMemoCap.
var fpMemoCap = DefaultFPMemoCap

// SetFPMemoCap sizes the in-process fingerprint memo — tier 1 of the
// result store — and returns the previous capacity. Values <= 0 restore
// DefaultFPMemoCap. Shrinking evicts finished entries down to the new cap
// immediately (in-flight runs stay pinned, exactly like normal eviction).
func SetFPMemoCap(n int) int {
	if n <= 0 {
		n = DefaultFPMemoCap
	}
	fpMu.Lock()
	defer fpMu.Unlock()
	prev := fpMemoCap
	fpMemoCap = n
	fpEvictLocked()
	return prev
}

// FPMemoLen reports the memo's current entry count (ops introspection).
func FPMemoLen() int {
	fpMu.Lock()
	defer fpMu.Unlock()
	return fpLen
}

// fpEvictLocked drops least-recently-used finished entries until the memo
// fits its cap. Entries whose run is still in flight are skipped: evicting
// them would orphan waiters. Callers hold fpMu.
func fpEvictLocked() {
	for fpLen > fpMemoCap {
		oldest := fpBack
		for oldest != nil && !oldest.done() {
			oldest = oldest.prev
		}
		if oldest == nil {
			break
		}
		fpUnlink(oldest)
		delete(fpMemo, oldest.key)
	}
}

// fpClaim returns the memo entry for (d, st), inserting a fresh unclaimed
// one on a miss. Eviction skips entries whose run is still in flight. d
// must come from the compile cache, which gives every design its content
// hash.
func fpClaim(d *sim.Design, st *Stimulus) *fpEntry {
	key := fpKey{design: d.CanonicalHash(), st: st}
	fpMu.Lock()
	defer fpMu.Unlock()
	if e, hit := fpMemo[key]; hit {
		if fpFront != e {
			fpUnlink(e)
			fpPushFront(e)
		}
		return e
	}
	e := &fpEntry{key: key}
	fpMemo[key] = e
	fpPushFront(e)
	fpEvictLocked()
	return e
}

// --- Gang runs ---------------------------------------------------------------

// gangLane is one candidate slot of a gang run: source and compiled design
// in, fingerprint trace out.
type gangLane struct {
	src *ast.Source
	d   *sim.Design
	e   *fpEntry // nil when the caller bypasses the memo (verification, tests)
	tr  *FPTrace
}

// RunFingerprintGang is RunFingerprint over a batch of candidates sharing
// one stimulus: every result is bit-identical to the solo run of the same
// source, but all memo-missing candidates advance in lockstep through one
// schedule decode. base, when non-nil, seeds delta compilation;
// when nil, the batch's first successfully compiled design becomes the base
// for the rest (candidates of one task are mutants of a common ancestor, so
// layouts frequently match). Interpreter runs, compile failures, irregular
// stimuli and failed bindings all take the solo path for the affected
// candidate, preserving its exact legacy behavior.
func RunFingerprintGang(srcs []*ast.Source, top string, st *Stimulus, backend Backend, base *sim.Design) []*FPTrace {
	out, err := RunFingerprintGangCtx(context.Background(), srcs, top, st, backend, base)
	if err != nil {
		// Unreachable with a background context: the only errors the ctx
		// variant returns are the context's own.
		panic(err)
	}
	return out
}

// RunFingerprintGangCtx is RunFingerprintGang under a cancellable context:
// the run observes ctx between test cases and between lanes, so a cancel
// lands within one case's worth of simulation. On cancellation it returns
// ctx's error, aborting (never publishing) the memo claims of unfinished
// lanes so the next job recomputes them to bit-identical results. A panic
// inside the lockstep walk never escapes: the crashed walk's unresolved
// lanes are re-run solo, where a lane that crashes again resolves to a
// per-candidate ErrSimPanic trace and every other lane reproduces its
// bit-identical clean result.
func RunFingerprintGangCtx(ctx context.Context, srcs []*ast.Source, top string, st *Stimulus, backend Backend, base *sim.Design) ([]*FPTrace, error) {
	out := make([]*FPTrace, len(srcs))
	if len(srcs) == 0 {
		return out, nil
	}
	if backend == BackendInterpreter {
		for i, src := range srcs {
			tr, err := runFingerprintSoloCtx(ctx, src, top, st, backend)
			if err != nil {
				return nil, err
			}
			out[i] = tr
		}
		return out, nil
	}
	type waiter struct {
		i int
		d *sim.Design
		e *fpEntry
	}
	var waits []waiter
	lanes := make([]gangLane, 0, len(srcs))
	laneIdx := make([]int, 0, len(srcs))
	for i, src := range srcs {
		d, err := sim.CompileDeltaCached(base, src, top)
		if err != nil {
			tr, serr := runFingerprintSoloCtx(ctx, src, top, st, backend)
			if serr != nil {
				abortLanes(lanes)
				return nil, serr
			}
			out[i] = tr
			continue
		}
		if base == nil {
			base = d
		}
		e := fpClaim(d, st)
		if !e.claim() {
			// Resolved, or in flight elsewhere — possibly by an earlier
			// lane of this very batch (duplicate designs). Collect after
			// the gang runs so intra-batch duplicates cannot deadlock.
			waits = append(waits, waiter{i: i, d: d, e: e})
			continue
		}
		// The claim is this key's single flight across tiers: consult the
		// persistent store before the lane joins a gang, so a warm store
		// keeps the candidate out of the lockstep walk entirely.
		if tr := storeLookup(ctx, d, st); tr != nil {
			e.publish(tr)
			out[i] = tr
			continue
		}
		lanes = append(lanes, gangLane{src: src, d: d, e: e})
		laneIdx = append(laneIdx, i)
	}
	if err := runGangLanesCtx(ctx, lanes, top, st, backend, nil); err != nil {
		abortLanes(lanes)
		return nil, err
	}
	for k := range lanes {
		out[laneIdx[k]] = lanes[k].tr
		// Lanes whose entry published (clean runs and deterministic
		// errors; never ErrSimPanic aborts) flow through to the store.
		if lanes[k].tr != nil && lanes[k].e != nil && lanes[k].e.done() {
			storePut(ctx, lanes[k].d, st, lanes[k].tr)
		}
	}
	for _, w := range waits {
		tr, adopted, err := w.e.wait(ctx)
		if err != nil {
			return nil, err
		}
		if adopted {
			// The claim's previous owner aborted (cancelled or crashed
			// elsewhere); this batch inherits the slot and computes solo.
			if tr, err = runFingerprintOwned(ctx, w.e, w.d, srcs[w.i], top, st, backend); err != nil {
				return nil, err
			}
		}
		out[w.i] = tr
	}
	return out, nil
}

// VerifyGang reports, per candidate, whether it runs cleanly and agrees
// with golden on every case of st — exactly tr.Err == nil &&
// FPAgrees(tr, golden) over the candidate's full fingerprint trace — but
// the lockstep walk retires a candidate at its first case that disagrees,
// since the rest of its trace cannot change the verdict. Those truncated
// traces never leave this call: verification neither reads nor writes the
// fingerprint memo or the result store. Candidates that cannot join the
// walk (compile errors, failed bindings, irregular stimuli, the interpreter
// backend, a crashed walk) run solo to a full trace judged by FPAgrees.
// base seeds delta compilation as in RunFingerprintGang.
func VerifyGang(srcs []*ast.Source, top string, st *Stimulus, backend Backend, base *sim.Design, golden *FPTrace) []bool {
	out := make([]bool, len(srcs))
	if golden.Err != nil || len(golden.CaseFPs) != len(st.Cases) {
		// A clean candidate completes every case, so it can agree with
		// neither an errored nor a short reference.
		return out
	}
	judge := func(tr *FPTrace) bool { return tr.Err == nil && FPAgrees(tr, golden) }
	if backend == BackendInterpreter {
		for i, src := range srcs {
			out[i] = judge(runFingerprintSolo(src, top, st, backend))
		}
		return out
	}
	laneOf := make([]int, len(srcs)) // candidate -> lane, -1 when judged solo
	lanes := make([]gangLane, 0, len(srcs))
	byDesign := make(map[*sim.Design]int, len(srcs))
	for i, src := range srcs {
		laneOf[i] = -1
		d, err := sim.CompileDeltaCached(base, src, top)
		if err != nil {
			out[i] = judge(runFingerprintSolo(src, top, st, backend))
			continue
		}
		if base == nil {
			base = d
		}
		// Canonically equal candidates share one design and one lane.
		k, dup := byDesign[d]
		if !dup {
			k = len(lanes)
			byDesign[d] = k
			lanes = append(lanes, gangLane{src: src, d: d})
		}
		laneOf[i] = k
	}
	runGangLanes(lanes, top, st, backend, golden.CaseFPs)
	for i, k := range laneOf {
		if k >= 0 {
			out[i] = judge(lanes[k].tr)
		}
	}
	return out
}

// abortLanes releases the memo claims of every unresolved lane after a
// cancelled batch. Lanes that already finished keep their published
// entries (they are complete, valid results).
func abortLanes(lanes []gangLane) {
	for k := range lanes {
		if lanes[k].tr == nil && lanes[k].e != nil {
			lanes[k].e.abort()
		}
	}
}

// finishLane resolves a lane: crash traces are returned to this job only
// (their memo claim aborts, keeping the memo clean for a retry), anything
// else — clean runs and deterministic runtime errors alike — publishes.
func finishLane(ln *gangLane, tr *FPTrace) {
	ln.tr = tr
	if ln.e == nil {
		return
	}
	if tr.Err != nil && errors.Is(tr.Err, ErrSimPanic) {
		ln.e.abort()
	} else {
		ln.e.publish(tr)
	}
}

// runGangLanes is runGangLanesCtx without cancellation (verification, and
// tests driving memo-bypassing lanes directly).
func runGangLanes(lanes []gangLane, top string, st *Stimulus, backend Backend, want []uint64) {
	if err := runGangLanesCtx(context.Background(), lanes, top, st, backend, want); err != nil {
		panic(err) // unreachable: a background context never cancels
	}
}

// runGangLanesCtx computes lanes[k].tr for every lane, publishing each
// lane's memo entry (when present) as it resolves. Lanes that cannot join
// the lockstep run — no schedule, or a binding failure — fall back to the
// solo path, which reproduces the name-keyed behavior byte-for-byte. The
// walk observes ctx between test cases; on cancellation it returns the
// ctx error with unresolved lanes left untouched for the caller to abort.
// A panic anywhere in the lockstep walk is confined: every unresolved lane
// re-runs solo, isolating the crash to the candidate that caused it. A
// non-nil want (one fingerprint per case) retires each lockstep lane at its
// first case that disagrees with it; see runGangLockstep.
func runGangLanesCtx(ctx context.Context, lanes []gangLane, top string, st *Stimulus, backend Backend, want []uint64) error {
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("%w: %v", errGangCrashed, r)
			}
		}()
		return runGangLockstep(ctx, lanes, top, st, backend, want)
	}()
	if err == nil || !errors.Is(err, errGangCrashed) {
		return err // nil, or a context error the caller unwinds
	}
	// The lockstep walk crashed. Gang-vs-solo equivalence means every lane
	// untouched by the fault reproduces its result solo bit-for-bit, and
	// the faulty lane's own solo run converts the crash into its private
	// ErrSimPanic trace (runFingerprintSoloCtx recovers per candidate).
	for k := range lanes {
		if lanes[k].tr != nil {
			continue
		}
		tr, serr := runFingerprintSoloCtx(ctx, lanes[k].src, top, st, backend)
		if serr != nil {
			return serr
		}
		finishLane(&lanes[k], tr)
	}
	return nil
}

// errGangCrashed marks a recovered panic inside the lockstep gang walk; it
// never leaves runGangLanesCtx.
var errGangCrashed = errors.New("gang walk crashed")

// errDiverged retires a verification lane whose case fingerprint differs
// from the reference's: the rest of its trace cannot change the verdict.
var errDiverged = errors.New("diverged from the reference")

// runGangLockstep is the lockstep walk proper: bind every lane, then drive
// all lanes through the shared schedule case by case. With a non-nil want
// (the reference's per-case fingerprints) a lane that disagrees with
// want[ci] after case ci is retired with errDiverged, so its trace stops
// there — such truncated traces must never be published. Ranking passes
// nil and every lane runs every case.
func runGangLockstep(ctx context.Context, lanes []gangLane, top string, st *Stimulus, backend Backend, want []uint64) error {
	sched := st.schedule()

	g := sim.NewSoAGang(len(lanes))
	gangOf := make([]int, 0, len(lanes)) // gang lane id -> lanes index
	seq := st.Ifc.Sequential()
	for li := range lanes {
		ln := &lanes[li]
		if sched == nil {
			tr, err := runFingerprintSoloCtx(ctx, ln.src, top, st, backend)
			if err != nil {
				return err
			}
			finishLane(ln, tr)
			continue
		}
		// The probe engine only serves handle resolution: the gang builds
		// its own lane engines over the shared planes.
		en := ln.d.AcquireEngine()
		b, ok := cachedBind(ln.d, sched, en, &st.Ifc)
		ln.d.ReleaseEngine(en)
		if !ok {
			tr, err := runFingerprintSoloCtx(ctx, ln.src, top, st, backend)
			if err != nil {
				return err
			}
			finishLane(ln, tr)
			continue
		}
		// Sequential lanes reset at every BeginCase so cases stay
		// independent, as the solo path's fresh engine per case.
		g.AddLane(ln.d, seq, b.clock, b.ins, b.outs)
		gangOf = append(gangOf, li)
		statSims.Add(1) // one fingerprint simulation per gang lane
	}
	if len(gangOf) == 0 {
		return nil
	}

	// Fault-injection keys are derived only while a drill is armed: the
	// canonical hash identifies a lane's candidate across gang and solo
	// runs, so a drill can target one candidate deterministically.
	var fiKeys []string
	if faultinject.Enabled() {
		fiKeys = make([]string, len(gangOf))
		for k, li := range gangOf {
			fiKeys[k] = sim.CanonicalKey(lanes[li].src)
		}
	}

	// One backing block for every lane's per-case fingerprints: the lane
	// count and case count are both fixed here, so n+1 small slices flatten
	// to two allocations.
	caseFPs := make([][]uint64, len(gangOf))
	fpBlock := make([]uint64, len(gangOf)*len(st.Cases))
	for k := range caseFPs {
		caseFPs[k] = fpBlock[k*len(st.Cases) : k*len(st.Cases) : (k+1)*len(st.Cases)]
	}
	for ci := range st.Cases {
		// The per-case check bounds how long a cancel can go unobserved:
		// one case, tens of steps.
		if err := ctx.Err(); err != nil {
			return err
		}
		if g.LiveLanes() == 0 {
			break
		}
		if fiKeys != nil {
			for k := range gangOf {
				if g.Err(k) == nil {
					faultinject.Fire(faultinject.PointSimCase, fiKeys[k])
				}
			}
		}
		g.BeginCase()
		nSteps := int(sched.stepOff[ci+1] - sched.stepOff[ci])
		off := int(sched.stepOff[ci]) * sched.rowWords
		for si := 0; si < nSteps; si++ {
			// Decode the step row once; broadcast each value to all lanes.
			for pos := range sched.names {
				nw := int(sched.wordsOf[pos])
				g.Drive(pos, sim.ValueView(int(sched.widths[pos]), sched.val[off:off+nw], sched.xz[off:off+nw]))
				off += nw
			}
			g.Advance()
			for oi := range st.Ifc.Outputs {
				g.HashOutput(oi, st.Ifc.Outputs[oi].Width)
			}
		}
		// Gang lane ids are assigned in AddLane order, so id == k. A lane
		// records the case fingerprint only if it survived the whole case,
		// exactly like the solo per-case append.
		for k := range gangOf {
			if g.Err(k) != nil {
				continue
			}
			h := g.Hash(k)
			caseFPs[k] = append(caseFPs[k], h)
			if want != nil && h != want[ci] {
				g.Retire(k, errDiverged)
			}
		}
	}
	for k, li := range gangOf {
		ln := &lanes[li]
		tr := &FPTrace{Ifc: st.Ifc, CaseFPs: caseFPs[k]}
		if err := g.Err(k); err != nil {
			tr.Err = fmt.Errorf("%w: %v", ErrRun, err)
		}
		finishLane(ln, tr)
	}
	// Close only after the last Err/Hash read: a closed SoA gang recycles
	// its lane tables and scratch through the gang pool.
	g.Close()
	return nil
}
