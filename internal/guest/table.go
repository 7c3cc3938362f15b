package guest

import "slices"

// Table is the container for target state keyed by a small integer — a
// connection id, an actor id, a query type. It is the map[int]V it replaces,
// held as two parallel slices in ascending key order, the order the state
// image lists entries in, so that encoding it is a walk and decoding it a
// refill in place. The zero value is an empty table. Its contract, which
// every target's state is run against (TestTableMatchesMapModel,
// TestEveryTargetStateImageMatchesRecorded):
//
//   - Map semantics, exactly: Set and Add create the entry they name, a zero
//     value included, and Len counts it; Get returns the zero value for a key
//     that is not there and creates nothing; Delete of such a key does
//     nothing.
//   - Keys ascend, always: no operation leaves them in any other order, and
//     the decoder rejects an image whose keys do not.
//   - The encoding is a function of the contents alone — a u32 count, then
//     each key and value — and decoding what a table encodes to yields an
//     equal table, whatever the table decoded into held before.
type Table[V int | string] struct {
	keys []int
	vals []V

	// decLen is the length of the section the table was last decoded from,
	// and decKeys and decVals what it decoded to. A hydrate reuses what it
	// decoded only for the capture it decoded: a reread stream, one of the
	// capture the kernel last decoded, holds that section again, so the
	// reader copies decKeys and decVals back and skips decLen bytes
	// (copyBack).
	decLen  int
	decKeys []int
	decVals []V
}

// find returns the position of k, or the one to insert it at. The key asked
// for is nearly always the newest connection's, so a table of a handful is
// scanned from the back; ids a target does not hand out in order (actors,
// query types) come in larger numbers, and a longer table is bisected.
func (t *Table[V]) find(k int) (int, bool) {
	if len(t.keys) > 8 {
		return slices.BinarySearch(t.keys, k)
	}
	i := len(t.keys)
	for i > 0 && t.keys[i-1] > k {
		i--
	}
	if i > 0 && t.keys[i-1] == k {
		return i - 1, true
	}
	return i, false
}

// slot returns where k's value is kept, after creating a zero entry for a k
// that has none.
func (t *Table[V]) slot(k int) *V {
	i, ok := t.find(k)
	if !ok {
		var zero V
		t.keys = slices.Insert(t.keys, i, k)
		t.vals = slices.Insert(t.vals, i, zero)
	}
	return &t.vals[i]
}

// Len returns the number of entries.
func (t *Table[V]) Len() int { return len(t.keys) }

// Get returns the value at k, or the zero value if there is none.
func (t *Table[V]) Get(k int) (v V) {
	if i, ok := t.find(k); ok {
		v = t.vals[i]
	}
	return v
}

// Set stores v at k.
func (t *Table[V]) Set(k int, v V) { *t.slot(k) = v }

// Add adds d to the value at k (appends it, for a string) and returns the
// result.
func (t *Table[V]) Add(k int, d V) V {
	p := t.slot(k)
	*p += d
	return *p
}

// Delete removes the entry at k, if there is one. The last value stays behind
// in the spare capacity, where a decode that puts an equal one there finds it.
func (t *Table[V]) Delete(k int) {
	if i, ok := t.find(k); ok {
		t.keys = append(t.keys[:i], t.keys[i+1:]...)
		t.vals = append(t.vals[:i], t.vals[i+1:]...)
	}
}

// IntTable appends t: a count, then each key and value in key order.
func (w *StateWriter) IntTable(t *Table[int]) {
	if !w.encodes(4 + 16*len(t.keys)) {
		return
	}
	b := appendU32(w.buf, uint32(len(t.keys)))
	for i, k := range t.keys {
		b = appendInt(appendInt(b, k), t.vals[i])
	}
	w.buf = b
}

// StringTable is IntTable for string values.
func (w *StateWriter) StringTable(t *Table[string]) {
	if w.measuring {
		w.n += 4 + 12*len(t.keys)
		for _, v := range t.vals {
			w.n += len(v)
		}
		return
	}
	b := appendU32(w.buf, uint32(len(t.keys)))
	for i, k := range t.keys {
		b = appendString(appendInt(b, k), t.vals[i])
	}
	w.buf = b
}

// IntTable reads what StateWriter.IntTable wrote into t, in place: t ends up
// holding the decoded entries and no other. Keys that do not ascend fail the
// reader. A reread stream's section is copied back (copyBack); any other is
// decoded, and what it decoded to kept for the next reread.
func (r *StateReader) IntTable(t *Table[int]) {
	if t.copyBack(r) {
		return
	}
	start := r.off
	n := r.Count(16)
	t.keys, t.vals = slices.Grow(t.keys[:0], n)[:n], slices.Grow(t.vals[:0], n)[:n]
	for i := range t.keys {
		t.keys[i], t.vals[i] = r.Int(), r.Int()
	}
	r.ascending(t.keys)
	t.keep(r, start)
}

// StringTable is IntTable for string values. A slot that already holds the
// string decoded into it (left by the state before the restore, or by a
// Delete) keeps it, so a restore to a state whose strings the target has held
// before allocates none.
func (r *StateReader) StringTable(t *Table[string]) {
	if t.copyBack(r) {
		return
	}
	start := r.off
	n := r.Count(12)
	t.keys, t.vals = slices.Grow(t.keys[:0], n)[:n], slices.Grow(t.vals[:0], n)[:n]
	for i := range t.keys {
		t.keys[i] = r.Int()
		if v := r.View32(); t.vals[i] != string(v) {
			t.vals[i] = string(v)
		}
	}
	r.ascending(t.keys)
	t.keep(r, start)
}

// copyBack refills t with what it was last decoded to and skips the section
// it was decoded from when r is reread, and reports whether it did. A reread
// stream is the image of the capture the kernel last decoded, and t was last
// decoded from this section of it, so this is what decoding the section
// again would yield; no byte is compared.
func (t *Table[V]) copyBack(r *StateReader) bool {
	if !r.reread {
		return false
	}
	r.off += t.decLen
	t.keys, t.vals = append(t.keys[:0], t.decKeys...), append(t.vals[:0], t.decVals...)
	return true
}

// keep remembers, after a decode that succeeded, the length of the section r
// read t from since start and what it decoded to.
func (t *Table[V]) keep(r *StateReader, start int) {
	if r.err == nil {
		t.decLen = r.off - start
		t.decKeys, t.decVals = append(t.decKeys[:0], t.keys...), append(t.decVals[:0], t.vals...)
	}
}

// ascending fails the reader unless ids, a list its writer keeps in ascending
// order, came back in it.
func (r *StateReader) ascending(ids []int) {
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			r.Fail("statebuf: %d listed after %d", ids[i], ids[i-1])
		}
	}
}
