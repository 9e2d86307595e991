package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/verilog/ast"
	"repro/internal/verilog/printer"
)

// canonicalKeyMemo caches CanonicalKey by AST identity: printing a design is
// comparable in cost to compiling it, and the same parsed candidate is keyed
// several times per pipeline run (dedup, ranking, refinement checks). The
// memo is cleared wholesale when it exceeds its cap so it cannot pin an
// unbounded number of ASTs against the garbage collector.
var (
	keyMemoMu sync.Mutex
	keyMemo   = make(map[*ast.Source]string)
)

const keyMemoCap = 4096

// CanonicalKey returns a canonical content hash of a design: the SHA-256 of
// its printed source. Two ASTs that print identically — same code modulo the
// formatting and comments the printer normalizes away — share a key, so
// duplicate candidates (common under the paper's n-sample generation) can be
// recognized before any simulation work. ASTs are assumed immutable once
// handed to the simulator, so the key is memoized per AST.
func CanonicalKey(src *ast.Source) string {
	keyMemoMu.Lock()
	if k, ok := keyMemo[src]; ok {
		keyMemoMu.Unlock()
		return k
	}
	keyMemoMu.Unlock()
	buf := printer.GetBuffer()
	buf.B = printer.AppendSource(buf.B, src)
	sum := sha256.Sum256(buf.B)
	printer.PutBuffer(buf)
	k := hex.EncodeToString(sum[:])
	keyMemoMu.Lock()
	if len(keyMemo) >= keyMemoCap {
		keyMemo = make(map[*ast.Source]string, keyMemoCap)
	}
	keyMemo[src] = k
	keyMemoMu.Unlock()
	return k
}

// contentHash folds a compile-cache key — canonical source hash plus top
// module — into the single hex digest a Design carries as its persistent
// content address. Delta-compiled and fresh-compiled designs of the same
// source share it, which is exactly right: the gang equivalence gates hold
// their fingerprints bit-identical.
func contentHash(key cacheKey) string {
	h := sha256.New()
	h.Write([]byte(key.hash))
	h.Write([]byte{0})
	h.Write([]byte(key.top))
	return hex.EncodeToString(h.Sum(nil))
}

// CompileCache memoizes Compile results keyed by (CanonicalKey, top module).
// It is safe for concurrent use and concurrent requests for the same design
// share a single compilation. A bounded LRU keeps memory in check; failed
// compilations are cached too (invalid candidates recur just as often).
type CompileCache struct {
	mu  sync.Mutex
	cap int
	m   map[cacheKey]*cacheEntry
	// Intrusive LRU list over the entries, most recently used first. Entries
	// are their own nodes, so a cache hit allocates nothing and a miss
	// allocates exactly the entry (memo-cold ranking calls look up dozens of
	// candidates per batch, which made per-call closure and list-element
	// allocations a measurable slice of the cold path).
	front *cacheEntry
	back  *cacheEntry
	n     int

	hits   atomic.Uint64
	misses atomic.Uint64
}

type cacheKey struct {
	hash string
	top  string
}

type cacheEntry struct {
	key     cacheKey
	once    sync.Once
	compile func() (*Design, error)
	d       *Design
	err     error
	// done flips after resolve completes. The LRU eviction loop reads it to
	// pin in-flight entries: evicting an entry before its resolve() ran
	// would hand every subsequent caller of that key a fresh entry and a
	// fresh compilation, defeating the single-flight guarantee exactly when
	// it matters (a burst of concurrent callers on a cold key).
	done atomic.Bool

	prev *cacheEntry // LRU links, guarded by CompileCache.mu
	next *cacheEntry
}

// resolve runs the compilation exactly once (whichever caller gets here
// first does the work; the rest block until it is done) and returns it.
// A panicking compilation resolves to an error rather than escaping: the
// once is spent either way, and without the recover the entry would be
// poisoned — done never set (pinned against eviction forever) and every
// waiter handed a nil design with a nil error. Compilation is a pure
// function of the source, so caching the crash as a failure follows the
// same policy as caching ordinary compile errors.
func (e *cacheEntry) resolve() (*Design, error) {
	e.once.Do(func() {
		defer func() {
			if r := recover(); r != nil {
				e.d, e.err = nil, fmt.Errorf("compile panicked: %v", r)
			}
			e.compile = nil
			e.done.Store(true)
		}()
		e.d, e.err = e.compile()
	})
	return e.d, e.err
}

// NewCompileCache returns a cache bounded to capacity designs (minimum 1).
func NewCompileCache(capacity int) *CompileCache {
	if capacity < 1 {
		capacity = 1
	}
	return &CompileCache{
		cap: capacity,
		m:   make(map[cacheKey]*cacheEntry, capacity),
	}
}

// unlink detaches e from the LRU list. Callers hold c.mu.
func (c *CompileCache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.front = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.back = e.prev
	}
	e.prev, e.next = nil, nil
	c.n--
}

// pushFront makes e the most recently used entry. Callers hold c.mu.
func (c *CompileCache) pushFront(e *cacheEntry) {
	e.prev, e.next = nil, c.front
	if c.front != nil {
		c.front.prev = e
	}
	c.front = e
	if c.back == nil {
		c.back = e
	}
	c.n++
}

// Get returns the compiled design for src/top, compiling at most once per
// canonical source even under concurrent callers.
func (c *CompileCache) Get(src *ast.Source, top string) (*Design, error) {
	key := cacheKey{hash: CanonicalKey(src), top: top}
	if e := c.touch(key); e != nil {
		return e.resolve()
	}
	return c.get(key, func() (*Design, error) {
		d, err := Compile(src, top)
		if err == nil {
			d.canonHash = contentHash(key)
		}
		return d, err
	})
}

// GetDelta is Get with a delta-compilation base: a cache miss compiles
// src through CompileDelta(base, ...), reusing the base design's per-process
// artifacts where layout and process hashes line up. The cache key is the
// same as Get's — a delta compilation of a source is behaviorally identical
// to a from-scratch one (held together by differential tests), so both entry
// points share entries.
func (c *CompileCache) GetDelta(base *Design, src *ast.Source, top string) (*Design, error) {
	key := cacheKey{hash: CanonicalKey(src), top: top}
	if e := c.touch(key); e != nil {
		return e.resolve()
	}
	return c.get(key, func() (*Design, error) {
		d, err := CompileDelta(base, src, top)
		if err == nil {
			d.canonHash = contentHash(key)
		}
		return d, err
	})
}

// touch returns the resident entry for key freshened to the LRU front, or
// nil on a miss. Splitting the hit path out lets Get/GetDelta construct
// their compile closures only on misses — a cache hit allocates nothing,
// which matters on memo-cold ranking calls that key dozens of candidates.
func (c *CompileCache) touch(key cacheKey) *cacheEntry {
	c.mu.Lock()
	e, ok := c.m[key]
	if ok && c.front != e {
		c.unlink(e)
		c.pushFront(e)
	}
	c.mu.Unlock()
	if !ok {
		return nil
	}
	c.hits.Add(1)
	return e
}

// get looks up or inserts the entry for key, evicting only *resolved*
// entries past the cap (unresolved ones stay pinned until their compilation
// finishes; the cache may transiently exceed cap by the number of in-flight
// compilations).
func (c *CompileCache) get(key cacheKey, compile func() (*Design, error)) (*Design, error) {
	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		if c.front != e {
			c.unlink(e)
			c.pushFront(e)
		}
		c.mu.Unlock()
		c.hits.Add(1)
		return e.resolve()
	}
	e := &cacheEntry{key: key, compile: compile}
	c.m[key] = e
	c.pushFront(e)
	for c.n > c.cap {
		oldest := c.back
		for oldest != nil && !oldest.done.Load() {
			oldest = oldest.prev
		}
		if oldest == nil {
			break // every entry is in flight; retry eviction on later inserts
		}
		c.unlink(oldest)
		delete(c.m, oldest.key)
	}
	c.mu.Unlock()
	c.misses.Add(1)
	return e.resolve()
}

// Stats reports cumulative cache hits and misses.
func (c *CompileCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Len returns the number of cached designs.
func (c *CompileCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// defaultCacheCapacity bounds the process-wide cache. Designs are small
// (closures plus a value snapshot), and the experiment drivers churn through
// thousands of candidates, most of them duplicates.
const defaultCacheCapacity = 1024

// DefaultCache is the process-wide compile cache used by CompileCached.
var DefaultCache = NewCompileCache(defaultCacheCapacity)

// CompileCached is Compile through the process-wide elaboration cache:
// repeated evaluations of identical (or cosmetically different but
// canonically equal) candidates skip elaboration and compilation entirely.
func CompileCached(src *ast.Source, top string) (*Design, error) {
	return DefaultCache.Get(src, top)
}

// CompileDeltaCached is CompileDelta through the process-wide cache: on a
// miss the mutant is lowered against base (nil base degrades to a plain
// Compile), on a hit delta and non-delta callers share one design.
func CompileDeltaCached(base *Design, src *ast.Source, top string) (*Design, error) {
	if base == nil {
		return DefaultCache.Get(src, top)
	}
	return DefaultCache.GetDelta(base, src, top)
}
