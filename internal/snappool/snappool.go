// Package snappool manages a pool of incremental VM snapshots keyed by
// input-prefix digest, under a memory budget.
//
// The paper's snapshot placement policies (§3.4) assume one secondary
// snapshot: every queue-entry switch discards it, so N entries sharing a
// message prefix each re-execute that prefix from the root. The pool keeps
// many prefix snapshots alive instead — the Agamotto insight (many
// checkpoints under a byte budget, evict by usefulness) applied to Nyx-Net's
// slot mechanism (package mem / vm): a slot is keyed by the digest of the
// serialized opcodes before its snapshot marker, so any input sharing that
// prefix — the same queue entry on a later round, or a different entry with
// a common prefix — resumes from it instead of re-executing the prefix.
//
// The pool is pure bookkeeping and policy: it allocates slot ids, answers
// hit/miss/longest-prefix queries, and decides evictions. The caller owns
// the slots themselves (it must drop evicted slot ids on its executor).
// Eviction is LRU x cheapest-to-recreate-first: among the least-recently
// used half of the pool, the snapshot whose prefix costs the least virtual
// time to re-execute goes first — recreating a cold cheap prefix is nearly
// free, while a cold expensive one is exactly what the pool exists to keep.
//
// Lookups are engineered for the wall-clock hot path: entries are keyed by
// raw [32]byte digests (no hex strings), callers that memoize an input's
// prefix digest can resolve repeat hits via LookupDigest without hashing a
// single opcode, and the streaming scan only finalizes intermediate hashes
// at positions where a cached prefix of that exact length exists.
package snappool

import (
	"crypto/sha256"
	"hash"
	"time"

	"repro/internal/spec"
)

// Digest is the raw SHA-256 content key of a serialized opcode prefix.
// Using the fixed-size array (rather than a hex string) keeps pool lookups
// allocation-free and map hashing cheap on the per-round hot path.
type Digest [32]byte

// Entry is one cached prefix snapshot.
type Entry struct {
	// Digest is the content key: PrefixDigest of the serialized opcodes
	// before the snapshot marker.
	Digest Digest
	// Slot is the VM snapshot slot id holding the state.
	Slot int
	// Ops is the prefix length in opcodes (the snapshot marker position).
	Ops int
	// Bytes is the slot's memory charge against the pool budget.
	Bytes int64
	// PrefixCost is the estimated virtual time to re-execute the prefix
	// from the root snapshot — the recreation cost eviction minimizes
	// keeping.
	PrefixCost time.Duration
}

// Stats aggregates pool activity for the campaign telemetry.
type Stats struct {
	// Hits counts rounds served by a cached prefix snapshot (no prefix
	// re-execution); Misses counts rounds that had to create one.
	Hits   uint64
	Misses uint64
	// DigestHits counts the hits resolved through a caller-memoized digest
	// (LookupDigest): rounds that skipped prefix hashing entirely.
	DigestHits uint64
	// Evictions counts slots dropped to fit the budget; Uncacheable
	// counts created snapshots too large to pool at all (used once).
	Evictions   uint64
	Uncacheable uint64
	// Bytes is the pooled slot memory currently charged against the
	// budget; PeakBytes is its steady-state maximum, sampled after each
	// Insert's evictions settle (the budget is a cache-capacity bound,
	// not an instantaneous one: within an Insert call, and for the one
	// round an Uncacheable slot lives outside the pool, actual memory
	// can exceed it by at most one slot).
	Bytes     int64
	PeakBytes int64
	// Slots is the current number of pooled snapshots.
	Slots int
	// LookupWall is accumulated real (wall-clock) time spent in Resolve
	// and LookupDigest, and Lookups the number of such calls — what
	// bench/ reports as snappool.lookup_ns_per_exec. Wall time is
	// telemetry only; nothing deterministic reads it.
	LookupWall time.Duration
	Lookups    uint64
}

// Pool is a budgeted prefix-digest-keyed snapshot pool. Not safe for
// concurrent use; campaign workers each own one.
type Pool struct {
	budget   int64
	nextSlot int
	entries  map[Digest]*Entry
	order    []*Entry // live entries, least recently used (hit, touched or inserted) first
	// prefixLens counts live entries per prefix length, so the scan only
	// pays a hash finalization at positions where a cached prefix of that
	// exact length could match (and none at all when the limit is shorter
	// than every cached prefix).
	prefixLens map[int]int

	stats Stats
}

// New creates a pool with the given byte budget for slot overlay memory.
// budget <= 0 means unlimited.
func New(budget int64) *Pool {
	return &Pool{
		budget:     budget,
		nextSlot:   1,
		entries:    make(map[Digest]*Entry),
		prefixLens: make(map[int]int),
	}
}

// Budget returns the configured byte budget (<= 0: unlimited).
func (p *Pool) Budget() int64 { return p.budget }

// Len returns the number of pooled snapshots.
func (p *Pool) Len() int { return len(p.order) }

// Stats returns a copy of the pool statistics.
func (p *Pool) Stats() Stats {
	st := p.stats
	st.Slots = len(p.order)
	return st
}

// AllocSlot returns a fresh slot id for a snapshot about to be created.
// Ids start at 1: slot 0 is the one netemu.Agent reserves for its single
// round-scoped snapshot, so pool slots never collide with it.
func (p *Pool) AllocSlot() int {
	id := p.nextSlot
	p.nextSlot++
	return id
}

// Touch refreshes e's LRU position without counting a hit (used when a
// snapshot serves as the base of a chained creation).
func (p *Pool) Touch(e *Entry) {
	// Searched from the back: the entries rounds keep hitting sit there.
	for i := len(p.order) - 1; i >= 0; i-- {
		if p.order[i] == e {
			copy(p.order[i:], p.order[i+1:])
			p.order[len(p.order)-1] = e
			return
		}
	}
}

// LookupDigest resolves a caller-memoized exact-prefix digest: on a hit the
// entry is returned, counted and LRU-refreshed without hashing any opcode —
// the repeat-round fast path. A nil return is NOT counted as a miss: the
// caller falls back to Resolve (which needs the streaming scan anyway to
// find the longest chainable prefix), and that call does the counting.
//
//nyx:hotpath
func (p *Pool) LookupDigest(d Digest) *Entry {
	t0 := time.Now() //nyx:wallclock LookupWall telemetry measures real lookup cost, never virtual time
	e := p.entries[d]
	if e != nil {
		p.stats.Hits++
		p.stats.DigestHits++
		p.Touch(e)
	}
	p.stats.Lookups++
	p.stats.LookupWall += time.Since(t0) //nyx:wallclock LookupWall telemetry
	return e
}

// Resolve answers a snapshot round's pool query in one streaming hash
// pass: the pooled snapshot for in's exact prefix ending at ops (a hit,
// counted and LRU-refreshed), or — on a counted miss — the longest pooled
// strict prefix to chain a creation from, plus the exact prefix's digest
// for the subsequent Insert.
func (p *Pool) Resolve(in *spec.Input, ops int) (hit, longest *Entry, digest Digest) {
	t0 := time.Now() //nyx:wallclock LookupWall telemetry measures real lookup cost, never virtual time
	hit, longest, digest = p.scan(in, ops)
	p.stats.Lookups++
	p.stats.LookupWall += time.Since(t0) //nyx:wallclock LookupWall telemetry
	if hit != nil {
		p.stats.Hits++
		p.Touch(hit)
		return hit, nil, digest
	}
	p.stats.Misses++
	return nil, longest, digest
}

// scan hashes in.Ops[:limit] once, resolving the exact-prefix entry, the
// longest strict-prefix entry, and the exact prefix's digest. Intermediate
// digests are only finalized at positions where prefixLens records a cached
// entry of that exact length, so a scan over a queue deeper than every
// cached prefix pays exactly one finalization (the exact digest).
func (p *Pool) scan(in *spec.Input, limit int) (exact, longest *Entry, digest Digest) {
	if limit > len(in.Ops) {
		limit = len(in.Ops)
	}
	h := sha256.New()
	var buf []byte
	var d Digest
	for k := 1; k <= limit; k++ {
		buf = hashOp(h, buf, in.Ops[k-1])
		if k == limit {
			break
		}
		if p.prefixLens[k] == 0 {
			continue // no cached entry can match at this position
		}
		h.Sum(d[:0])
		if e := p.entries[d]; e != nil && e.Ops == k {
			longest = e
		}
	}
	h.Sum(digest[:0])
	return p.entries[digest], longest, digest
}

// Insert pools a freshly created snapshot and evicts until the budget
// holds. The returned evicted entries' slots must be dropped by the caller;
// when kept is false the new snapshot alone exceeds the whole budget — the
// caller may use it for the current round but must drop it afterwards.
func (p *Pool) Insert(digest Digest, slot, ops int, bytes int64, prefixCost time.Duration) (kept bool, evicted []*Entry) {
	e := &Entry{Digest: digest, Slot: slot, Ops: ops, Bytes: bytes, PrefixCost: prefixCost}
	if p.budget > 0 && bytes > p.budget {
		p.stats.Uncacheable++
		return false, nil
	}
	p.entries[digest] = e
	p.order = append(p.order, e)
	p.prefixLens[ops]++
	p.stats.Bytes += bytes
	for p.budget > 0 && p.stats.Bytes > p.budget {
		v := p.victim()
		if v == nil {
			break
		}
		p.remove(v)
		p.stats.Evictions++
		evicted = append(evicted, v)
	}
	if p.stats.Bytes > p.stats.PeakBytes {
		p.stats.PeakBytes = p.stats.Bytes
	}
	return true, evicted
}

// victim selects the next entry to evict, never the just-inserted one at the
// back of order: among the least-recently-used half of the others, the one
// with the smallest recreation cost (ties: least recently used — fully
// deterministic for the eviction-replay tests).
func (p *Pool) victim() *Entry {
	n := len(p.order) - 1
	if n <= 0 {
		return nil
	}
	old := p.order[:(n+1)/2]
	v := old[0]
	for _, e := range old[1:] {
		if e.PrefixCost < v.PrefixCost {
			v = e
		}
	}
	return v
}

// remove unlinks e from the pool's index and accounting.
func (p *Pool) remove(e *Entry) {
	delete(p.entries, e.Digest)
	for i, o := range p.order {
		if o == e {
			p.order = append(p.order[:i], p.order[i+1:]...)
			break
		}
	}
	if p.prefixLens[e.Ops]--; p.prefixLens[e.Ops] <= 0 {
		delete(p.prefixLens, e.Ops)
	}
	p.stats.Bytes -= e.Bytes
}

// PrefixDigest returns the content key of in's first ops opcodes: a SHA-256
// over the opcodes' serialized form (spec.AppendOp — the bytecode encoding
// itself, so equal digests mean byte-identical prefixes and therefore
// identical VM states after execution).
func PrefixDigest(in *spec.Input, ops int) Digest {
	h := sha256.New()
	var buf []byte
	for i := 0; i < ops && i < len(in.Ops); i++ {
		buf = hashOp(h, buf, in.Ops[i])
	}
	var d Digest
	h.Sum(d[:0])
	return d
}

// hashOp feeds one opcode's bytecode encoding into h, reusing buf as
// scratch and returning it for the next call.
func hashOp(h hash.Hash, buf []byte, op spec.Op) []byte {
	buf = spec.AppendOp(buf[:0], op)
	h.Write(buf)
	return buf
}
