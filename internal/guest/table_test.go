package guest

import (
	"bytes"
	"math/rand"
	"os"
	"slices"
	"testing"
)

// checkTableAgainstMap runs 10k random Set, Add, Get and Delete steps on a
// Table and on the map[int]V it stands in for, over keys -3…70 (a table long
// enough to be bisected) and again over -3…5 (one short enough to be
// scanned). After every step the two agree on the length and the key order
// holds; every 500 steps the table's encoding is taken, decoded back into a
// table that still holds the previous decode, and compared entry by entry.
// All the encodings together must be the bytes in golden, which the deleted
// StateWriter.IntMap and StringMap wrote for the same models at the last
// commit that had them (PR 18).
func checkTableAgainstMap[V int | string](t *testing.T, golden string, vals []V,
	enc func(*StateWriter, *Table[V]), dec func(*StateReader, *Table[V])) {
	t.Helper()
	var got []byte
	var back Table[V]
	for _, span := range []int{74, 9} {
		rng := rand.New(rand.NewSource(7))
		model := map[int]V{}
		var tab Table[V]
		for step := 1; step <= 10000; step++ {
			k, v := rng.Intn(span)-3, vals[rng.Intn(len(vals))]
			switch rng.Intn(4) {
			case 0:
				model[k] = v
				tab.Set(k, v)
			case 1:
				model[k] += v
				if sum := tab.Add(k, v); sum != model[k] {
					t.Fatalf("step %d: Add(%d, %v) = %v, the map holds %v", step, k, v, sum, model[k])
				}
			case 2:
				if v := tab.Get(k); v != model[k] {
					t.Fatalf("step %d: Get(%d) = %v, the map holds %v", step, k, v, model[k])
				}
			case 3:
				delete(model, k)
				tab.Delete(k)
			}
			if tab.Len() != len(model) || !slices.IsSorted(tab.keys) || len(tab.vals) != len(tab.keys) {
				t.Fatalf("step %d: table of %d keys %v and %d values for a map of %d", step, tab.Len(), tab.keys, len(tab.vals), len(model))
			}
			if step%500 != 0 {
				continue
			}
			var w StateWriter
			enc(&w, &tab)
			got = append(got, w.Bytes()...)
			r := NewStateReader(w.Bytes())
			dec(r, &back)
			if err := r.Done(); err != nil {
				t.Fatalf("step %d: the table's own encoding does not decode: %v", step, err)
			}
			if !slices.Equal(back.keys, tab.keys) || !slices.Equal(back.vals, tab.vals) {
				t.Fatalf("step %d: decoded %v %v from the encoding of %v %v", step, back.keys, back.vals, tab.keys, tab.vals)
			}
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the table encodes to %d bytes that are not the %d the map encoded to", len(got), len(want))
	}

	// Keys that repeat or descend are not an encoding of any table.
	for _, keys := range [][]int{{5, 5}, {5, 4}, {0, -1}, {1, 2, 2}} {
		var w StateWriter
		w.U32(uint32(len(keys)))
		for _, k := range keys {
			w.Int(k)
			switch v := any(vals[0]).(type) {
			case int:
				w.Int(v)
			case string:
				w.String(v)
			}
		}
		r := NewStateReader(w.Bytes())
		if dec(r, &back); r.Done() == nil {
			t.Fatalf("keys %v decoded into %v", keys, back.keys)
		}
	}
}

func TestTableMatchesMapModel(t *testing.T) {
	checkTableAgainstMap(t, "testdata/table_int.bin", []int{0, 1, -1, 2, 7}, (*StateWriter).IntTable, (*StateReader).IntTable)
	checkTableAgainstMap(t, "testdata/table_string.bin", []string{"", "/", "a", "srv/ftp"}, (*StateWriter).StringTable, (*StateReader).StringTable)
}
