package spec

import (
	"math/rand"
	"slices"
	"unsafe"
)

// Mutator generates and mutates inputs against a Spec, keeping every output
// valid by construction. This mirrors Nyx's auto-generated custom mutators
// (§2.2): structure-aware at the opcode level, havoc-style at the payload
// level.
type Mutator struct {
	S *Spec
	// R is the only source of randomness, so one seed gives one sequence of
	// inputs. Structural decisions take one draw each (Intn); generated
	// payload bytes consume it by the word, four bytes to a Uint64 (randData).
	R *rand.Rand
	// MaxOps bounds generated input length.
	MaxOps int
	// MaxData bounds generated payload length.
	MaxData int
	// Dict holds protocol tokens (AFL-dictionary style) that the havoc
	// stage splices into payloads. ProFuzzBench-style campaigns ship
	// per-protocol dictionaries; targets provide them here.
	Dict [][]byte

	// child is the input Mutate and MutateSuffix hand out, refilled by every
	// call, and spliced the one Splice hands out. arena holds the payloads
	// and argument lists child is given. The rest is scratch kept between
	// calls: generateInto's value types in scope, pickValue's candidates,
	// havocDataFrom's payload ops, and per edge type the nodes that output it
	// (a Spec is complete before a mutator runs).
	child     Input
	spliced   Input
	arena     arena
	values    []EdgeID
	cands     []int
	dataOps   []int
	producers map[EdgeID][]NodeID

	// prefixOf and prefixAt say where child.Ops[:prefixAt] was copied from:
	// the array whose first op prefixOf points to, an array the mutator does
	// not own and nobody writes (package comment), so a call naming it and
	// prefixAt again finds its prefix already in place. nil when nothing is
	// kept. prefixVals holds the value types the last repaired prefix outputs,
	// and repairFrom's scope beyond them. prefixCopies counts MutateSuffix
	// calls past the first op that copied their prefix.
	prefixOf     *Op
	prefixAt     int
	prefixVals   []EdgeID
	prefixCopies int
}

// NewMutator builds a mutator with sensible bounds. It draws from r alone,
// payload bytes by the word (Uint64): a rand.Source64 such as rand.NewSource's
// serves a word in one step, a plain rand.Source in two Int63.
func NewMutator(s *Spec, r *rand.Rand) *Mutator {
	return &Mutator{S: s, R: r, MaxOps: 32, MaxData: 256}
}

// arena is where MutateSuffix builds the payloads and argument lists it gives
// its child: one chunk of bytes and one of argument slots, carved front to
// back and reset at the next MutateSuffix call, once the child that
// referenced them is dead. A request that does not fit what is left is made
// on the heap instead, so the arena never grows past its chunks and one
// oversized child pins nothing. Handouts are not zeroed: the caller writes
// every element. An Input whose arrays may lie in an arena names it
// (Input.arena); Clone copies those arrays out.
type arena struct {
	data []byte
	args []uint16
}

// The arena's chunk sizes. On bftpd, tinydtls and dnsmasq campaigns a child
// takes at most 2.6 KiB of new payload bytes and 27 argument slots, and 99.9%
// of children at most 1.5 KiB and 20.
const (
	arenaBytes = 4 << 10
	arenaArgs  = 64
)

func (a *arena) reset() { a.data, a.args = a.data[:0], a.args[:0] }

// bytes returns n bytes for a payload: from a, or from the heap when a is nil
// or full. n == 0 gives nil, as an empty payload always was.
func (a *arena) bytes(n int) []byte {
	var chunk *[]byte
	if a != nil {
		chunk = &a.data
	}
	return carve(chunk, n, arenaBytes)
}

// uint16s returns n argument slots, like bytes.
func (a *arena) uint16s(n int) []uint16 {
	var chunk *[]uint16
	if a != nil {
		chunk = &a.args
	}
	return carve(chunk, n, arenaArgs)
}

// concat returns the concatenation of parts in one payload from a.
func (a *arena) concat(parts ...[]byte) []byte {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := a.bytes(n)
	at := 0
	for _, p := range parts {
		at += copy(out[at:], p)
	}
	return out
}

// carve cuts n elements off the front of the rest of *chunk, making the
// chunk (size elements) on first use; nil chunk, or too little left, makes
// them on the heap. The handout's capacity ends where it does, so an append
// to it cannot reach the next one.
func carve[T any](chunk *[]T, n, size int) []T {
	if n == 0 {
		return nil
	}
	if chunk == nil {
		return make([]T, n)
	}
	if *chunk == nil {
		*chunk = make([]T, 0, size)
	}
	c := *chunk
	off := len(c)
	if n > cap(c)-off {
		return make([]T, n)
	}
	*chunk = c[:off+n]
	return c[off : off+n : off+n]
}

// within reports whether s starts in chunk's array. Go does not move heap
// objects, so an address inside the array is inside it for good.
func within[T any](s, chunk []T) bool {
	if len(s) == 0 || cap(chunk) == 0 {
		return false
	}
	off := uintptr(unsafe.Pointer(unsafe.SliceData(s))) - uintptr(unsafe.Pointer(unsafe.SliceData(chunk)))
	return off < uintptr(cap(chunk))*unsafe.Sizeof(s[0])
}

// copyOut points every op of ops whose Data or Args lies in a at a copy,
// one array for all the bytes and one for all the slots; a nil a holds
// nothing.
func (a *arena) copyOut(ops []Op) {
	if a == nil {
		return
	}
	nd, na := 0, 0
	for _, op := range ops {
		if within(op.Data, a.data) {
			nd += len(op.Data)
		}
		if within(op.Args, a.args) {
			na += len(op.Args)
		}
	}
	data, args := make([]byte, 0, nd), make([]uint16, 0, na)
	for i := range ops {
		op := &ops[i]
		if within(op.Data, a.data) {
			data = append(data, op.Data...)
			op.Data = data[len(data)-len(op.Data) : len(data) : len(data)]
		}
		if within(op.Args, a.args) {
			args = append(args, op.Args...)
			op.Args = args[len(args)-len(op.Args) : len(args) : len(args)]
		}
	}
}

// interesting byte values used by the havoc stage (AFL's classic set).
var interesting = [...]byte{0, 1, 0x7f, 0x80, 0xff, ' ', '\n', '\r', '0', '9', 'A', 'z'}

// nodesProducing returns node IDs that output the given edge type.
func (m *Mutator) nodesProducing(e EdgeID) []NodeID {
	if m.producers == nil {
		m.producers = make(map[EdgeID][]NodeID)
		for i, nt := range m.S.Nodes {
			for _, o := range nt.Outputs {
				if !slices.Contains(m.producers[o], NodeID(i)) {
					m.producers[o] = append(m.producers[o], NodeID(i))
				}
			}
		}
	}
	return m.producers[e]
}

// Generate builds a random valid input with up to nops ops.
func (m *Mutator) Generate(nops int) *Input {
	if nops <= 0 {
		nops = 1 + m.R.Intn(m.MaxOps)
	}
	in := NewInput()
	m.generateInto(in, nops)
	return in
}

// generateInto appends a random program of nops ops (one more when the last
// needed a producer) to in, its arrays from in's arena. Its value references
// count from its own first op: a caller whose in already held ops repairs
// them (repairFrom).
func (m *Mutator) generateInto(in *Input, nops int) {
	end := len(in.Ops) + nops
	values := m.values[:0]
next:
	for len(in.Ops) < end {
		nid := NodeID(m.R.Intn(len(m.S.Nodes)))
		nt := &m.S.Nodes[nid]
		args := in.arena.uint16s(len(nt.Borrows))
		for j, need := range nt.Borrows {
			// Pick a random existing value of the needed type; if none
			// exists, emit a producer first.
			idx := m.pickValue(values, need)
			if idx < 0 {
				prods := m.nodesProducing(need)
				if len(prods) == 0 {
					continue next
				}
				prod := prods[m.R.Intn(len(prods))]
				pnt := &m.S.Nodes[prod]
				pop := Op{Node: prod}
				// Producers with borrows of their own are skipped for
				// simplicity; all specs in this repo have borrow-free
				// producers (connection opcodes).
				if len(pnt.Borrows) > 0 {
					continue next
				}
				if pnt.HasData {
					pop.Data = m.randData(in.arena, pnt.MaxData)
				}
				in.Ops = append(in.Ops, pop)
				values = append(values, pnt.Outputs...)
				idx = m.pickValue(values, need)
				if idx < 0 {
					continue next
				}
			}
			args[j] = uint16(idx)
		}
		op := Op{Node: nid, Args: args}
		if nt.HasData {
			op.Data = m.randData(in.arena, nt.MaxData)
		}
		in.Ops = append(in.Ops, op)
		values = append(values, nt.Outputs...)
	}
	m.values = values
}

func (m *Mutator) pickValue(values []EdgeID, want EdgeID) int {
	cands := m.cands[:0]
	for i, v := range values {
		if v == want {
			cands = append(cands, i)
		}
	}
	m.cands = cands
	if len(cands) == 0 {
		return -1
	}
	return cands[m.R.Intn(len(cands))]
}

// randData returns a fresh payload from a for a node whose own bound is
// nodeMax (0: none). Its length is uniform on 1…min(MaxData, nodeMax); every
// byte is, independently, one of the twelve interesting values with
// probability 1/4 (each of them equally likely to within 2⁻¹⁴) and uniform on
// 0…255 otherwise, so a byte lands in the interesting set with probability
// 1/4 + 3/4·12/256.
//
// Entropy is drawn by the word: one Uint64 is four 16-bit lanes, a lane a
// byte (laneByte). An n-byte payload costs one draw for the length and ⌈n/4⌉
// for the bytes, where a draw per decision would cost 1 + 2n.
func (m *Mutator) randData(a *arena, nodeMax int) []byte {
	max := m.MaxData
	if nodeMax > 0 && nodeMax < max {
		max = nodeMax
	}
	data := a.bytes(1 + m.R.Intn(max))
	b := data
	for ; len(b) >= 4; b = b[4:] {
		w := m.R.Uint64()
		b[0], b[1], b[2], b[3] = laneByte(w), laneByte(w>>16), laneByte(w>>32), laneByte(w>>48)
	}
	if len(b) > 0 {
		w := m.R.Uint64()
		for i := range b {
			b[i] = laneByte(w >> (16 * i))
		}
	}
	return data
}

// laneByte turns the low 16 bits of w into one payload byte: when the top two
// of them are both zero (exactly one lane in four) the other fourteen, x, pick
// interesting[x*12>>14]; otherwise the low eight are the byte. Branch-free,
// because the branch would be mispredicted one time in four.
func laneByte(w uint64) byte {
	x := uint32(w) & 0xffff
	pick := uint32(interesting[(x&0x3fff)*12>>14])
	// keep is all ones unless the top two bits are zero: (0…3 + 3) >> 2 is 0, 1, 1, 1.
	keep := -((x>>14 + 3) >> 2)
	return byte(pick ^ (pick^x)&keep)
}

// Mutate returns a mutated copy of in. It applies 1–4 stacked mutations
// and repairs argument references afterwards so the result always
// validates. The result is MutateSuffix's, with its lifetime.
func (m *Mutator) Mutate(in *Input) *Input {
	return m.MutateSuffix(in, 0)
}

// MutateSuffix mutates only ops at index >= start, leaving the prefix
// byte-for-byte intact. This is what fuzzing on top of an incremental
// snapshot requires: the snapshotted prefix has already executed, so only
// the remaining packets may change (§3.4, Figure 4).
//
// The result belongs to the mutator and is valid until its next Mutate or
// MutateSuffix call, which rewrites its ops and the arena its new payloads
// and argument lists lie in; Clone detaches it. in is never written, and the
// result shares every array no mutation replaced: a child costs what it
// changed, and a round of children allocates nothing. An in that holds
// arena arrays — a child, this mutator's or another's — is cloned first.
// Calls in a row on one in.Ops array and start — a round of fuzzing on one
// snapshot — copy the prefix once: the child keeps in.Ops[:start] between
// them, which is sound because nobody writes an array the mutator does not
// own (package comment). Any other call, or Splice, ends the round.
func (m *Mutator) MutateSuffix(in *Input, start int) *Input {
	if in.arena != nil {
		in = in.Clone() // its arena arrays are rewritten from here on
	}
	m.arena.reset()
	out := &m.child
	out.arena = &m.arena
	hasPrefix := 0 < start && start <= len(in.Ops)
	known := hasPrefix && &in.Ops[0] == m.prefixOf && start == m.prefixAt
	if known {
		out.Ops = append(out.Ops[:start], in.Ops[start:]...)
	} else {
		m.prefixOf = nil
		if hasPrefix {
			m.prefixCopies++
			if !sameArray(in.Ops, out.Ops) && !sameArray(in.Ops, m.spliced.Ops) {
				m.prefixOf, m.prefixAt = &in.Ops[0], start
			}
		}
		out.Ops = append(out.Ops[:0], in.Ops...)
	}
	out.SnapshotAt = in.SnapshotAt
	if start <= 0 {
		out.SnapshotAt = -1 // placement policy re-inserts the marker
	}
	if start >= len(out.Ops) {
		// Nothing mutable: append fresh ops after the prefix.
		m.generateInto(out, 1+m.R.Intn(3))
		m.repairFrom(out, start, known)
		return out
	}
	n := 1 + m.R.Intn(4)
	for i := 0; i < n; i++ {
		switch m.R.Intn(10) {
		case 0, 1, 2, 3, 4: // payload havoc dominates, like AFL
			m.havocDataFrom(out, start)
		case 5:
			m.dupOpFrom(out, start)
		case 6:
			m.dropOpFrom(out, start)
		case 7:
			m.swapOpsFrom(out, start)
		case 8:
			m.truncateTailFrom(out, start)
		case 9:
			m.generateInto(out, 1+m.R.Intn(3))
		}
	}
	m.repairFrom(out, start, known)
	if len(out.Ops) == 0 {
		// Everything was dropped (start is 0): a fresh program, as Generate(0).
		m.generateInto(out, 1+m.R.Intn(m.MaxOps))
	}
	return out
}

// sameArray reports whether a and b are slices of one array: reslicing keeps
// the last element of the capacity.
func sameArray(a, b []Op) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:cap(a)][cap(a)-1] == &b[:cap(b)][cap(b)-1]
}

// Splice crosses two inputs: a prefix of a followed by a suffix of b. The
// result is capped at MaxOps*2 ops (the same bound the havoc stage
// enforces), so repeated splicing cannot balloon queue entries — oversized
// entries are expensive to re-execute everywhere, including when a corpus
// broker redistributes them to other campaign workers. Like Mutate's, the
// result belongs to the mutator: it is valid until the next Splice call, long
// enough to hand to Mutate but not back to Splice, and Clone detaches it. It
// holds no arena array: a or b that does is cloned first, and the argument
// lists the repair rewrites are made on the heap.
func (m *Mutator) Splice(a, b *Input) *Input {
	if a.arena != nil {
		a = a.Clone()
	}
	if b.arena != nil {
		b = b.Clone()
	}
	m.prefixOf = nil // repairFrom below refills prefixVals
	out := &m.spliced
	if len(a.Ops) == 0 {
		return out.set(b)
	}
	if len(b.Ops) == 0 {
		return out.set(a)
	}
	cutA := m.R.Intn(len(a.Ops)) + 1
	cutB := m.R.Intn(len(b.Ops))
	out.Ops = append(append(out.Ops[:0], a.Ops[:cutA]...), b.Ops[cutB:]...)
	out.SnapshotAt = -1
	if max := m.MaxOps * 2; len(out.Ops) > max {
		out.Ops = out.Ops[:max]
	}
	m.repairFrom(out, 0, false)
	if len(out.Ops) == 0 {
		return out.set(a)
	}
	return out
}

// set makes in a copy of src's op headers and marker, as Clone does, and
// returns it.
func (in *Input) set(src *Input) *Input {
	in.Ops, in.SnapshotAt = append(in.Ops[:0], src.Ops...), src.SnapshotAt
	return in
}

// havocDataFrom replaces the payload of one random op at index >= start with
// a havoc-mutated copy built in in's arena; the old array is not written.
func (m *Mutator) havocDataFrom(in *Input, start int) {
	idx := m.dataOps[:0]
	for i := start; i < len(in.Ops); i++ {
		if n := in.Ops[i].Node; int(n) < len(m.S.Nodes) && m.S.Nodes[n].HasData {
			idx = append(idx, i)
		}
	}
	m.dataOps = idx
	if len(idx) == 0 {
		return
	}
	op := &in.Ops[idx[m.R.Intn(len(idx))]]
	old := op.Data
	a := in.arena
	if len(old) == 0 {
		op.Data = m.randData(a, m.S.Nodes[op.Node].MaxData)
		return
	}
	nCases := 6
	if len(m.Dict) > 0 {
		nCases = 7
	}
	var data []byte
	switch m.R.Intn(nCases) {
	case 0: // bit flip
		i := m.R.Intn(len(old))
		data = a.concat(old)
		data[i] ^= 1 << m.R.Intn(8)
	case 1: // byte set
		i := m.R.Intn(len(old))
		data = a.concat(old)
		data[i] = byte(m.R.Intn(256))
	case 2: // interesting value
		i := m.R.Intn(len(old))
		data = a.concat(old)
		data[i] = interesting[m.R.Intn(len(interesting))]
	case 3: // insert
		i := m.R.Intn(len(old) + 1)
		data = a.concat(old[:i], []byte{byte(m.R.Intn(256))}, old[i:])
	case 4: // delete
		i := m.R.Intn(len(old))
		data = a.concat(old[:i], old[i+1:])
	case 5: // duplicate a chunk
		if len(old) < 2 {
			return // no chunk to duplicate
		}
		i := m.R.Intn(len(old) - 1)
		n := 1 + m.R.Intn(len(old)-i-1)
		data = a.concat(old[:i+n], old[i:i+n], old[i+n:])
	case 6: // splice in a dictionary token
		tok := m.Dict[m.R.Intn(len(m.Dict))]
		i := m.R.Intn(len(old))
		if m.R.Intn(2) == 0 {
			// overwrite
			data = a.concat(old[:i], tok, old[min(i+len(tok), len(old)):])
		} else {
			// insert
			data = a.concat(old[:i], tok, old[i:])
		}
	}
	if max := m.S.Nodes[op.Node].MaxData; max > 0 && len(data) > max {
		data = data[:max]
	}
	op.Data = data
}

func (m *Mutator) dupOpFrom(in *Input, start int) {
	if start >= len(in.Ops) || len(in.Ops) >= m.MaxOps*2 {
		return
	}
	i := start + m.R.Intn(len(in.Ops)-start)
	in.Ops = slices.Insert(in.Ops, i+1, in.Ops[i])
}

func (m *Mutator) dropOpFrom(in *Input, start int) {
	if len(in.Ops) <= 1 || start >= len(in.Ops) {
		return
	}
	i := start + m.R.Intn(len(in.Ops)-start)
	in.Ops = append(in.Ops[:i], in.Ops[i+1:]...)
}

func (m *Mutator) swapOpsFrom(in *Input, start int) {
	if len(in.Ops)-start < 2 {
		return
	}
	i := start + m.R.Intn(len(in.Ops)-start-1)
	in.Ops[i], in.Ops[i+1] = in.Ops[i+1], in.Ops[i]
}

func (m *Mutator) truncateTailFrom(in *Input, start int) {
	min := start + 1
	if min < 1 {
		min = 1
	}
	if len(in.Ops) <= min {
		return
	}
	in.Ops = in.Ops[:min+m.R.Intn(len(in.Ops)-min)]
}

// repairFrom rewrites argument references at index >= start so the input
// validates: ops whose borrows cannot be satisfied by any earlier value are
// deleted. Ops before start are assumed valid and never modified (they form
// the snapshotted prefix); the value types they output are in prefixVals
// already when known is set. One pass is enough: an op is checked against
// the values of the ops kept before it, which is the scope it has in the
// repaired input, so a second pass would find every reference valid. in.Ops,
// the caller's own, is written only where an op changes: compacted after a
// drop, with the slots compaction vacates cleared so they pin no payload; an
// op's Args may be shared, so a rewritten reference goes into a fresh copy,
// from in's arena.
func (m *Mutator) repairFrom(in *Input, start int, known bool) {
	values := m.prefixVals
	if !known {
		values = values[:0]
		for _, op := range in.Ops[:start] {
			if int(op.Node) < len(m.S.Nodes) {
				values = append(values, m.S.Nodes[op.Node].Outputs...)
			}
		}
	}
	prefixValues := len(values)
	ops, kept := in.Ops, start
ops:
	for i := start; i < len(ops); i++ {
		op := &ops[i]
		if int(op.Node) >= len(m.S.Nodes) {
			continue
		}
		nt := &m.S.Nodes[op.Node]
		// args is read, fresh (args' copy from the first rewrite on) written.
		args := op.Args
		var fresh []uint16
		if len(args) != len(nt.Borrows) {
			fresh = in.arena.uint16s(len(nt.Borrows))
			for j := range fresh {
				fresh[j] = uint16(len(values)) // definitely invalid; fixed below
			}
			args = fresh
		}
		for j, need := range nt.Borrows {
			a := int(args[j])
			if a < len(values) && values[a] == need {
				continue // already valid
			}
			idx := m.pickValue(values, need)
			if idx < 0 {
				continue ops // unsatisfiable: the op is dropped
			}
			if fresh == nil {
				fresh = in.arena.uint16s(len(args))
				copy(fresh, args)
				args = fresh
			}
			fresh[j] = uint16(idx)
		}
		if kept != i {
			ops[kept] = *op
		}
		if fresh != nil {
			ops[kept].Args = fresh
		}
		if !nt.HasData && ops[kept].Data != nil {
			ops[kept].Data = nil
		}
		kept++
		values = append(values, nt.Outputs...)
	}
	clear(ops[kept:])
	in.Ops = ops[:kept]
	m.prefixVals = values[:prefixValues]
}
