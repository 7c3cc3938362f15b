// Package opwrite is the opwrite fixture: nobody writes through the Args or
// Data array of a spec.Op, because inputs share them.
package opwrite

import "repro/internal/spec"

func ElemAssign(in *spec.Input, i int) {
	in.Ops[i].Data[0] = 'X' // want `element write into a spec.Op's Data array`
	in.Ops[i].Args[0] = 9   // want `element write into a spec.Op's Args array`
}

func ElemOpAssign(op *spec.Op) {
	op.Data[1] ^= 0x80 // want `element write into a spec.Op's Data array`
	op.Args[0]++       // want `element write into a spec.Op's Args array`
}

func ThroughValue(op spec.Op) {
	op.Data[0] = 0 // want `element write into a spec.Op's Data array`
}

func ThroughReslice(op *spec.Op) {
	op.Data[2:][0] = 0 // want `element write into a spec.Op's Data array`
}

func CopyInto(op *spec.Op, tok []byte) {
	copy(op.Data[3:], tok) // want `copy writes into a spec.Op's Data array`
	copy(tok, op.Data)     // reading is fine
}

func AppendOntoReslice(op *spec.Op, i int) {
	op.Data = append(op.Data[:i], op.Data[i+1:]...) // want `append writes into a spec.Op's Data array`
}

func ThroughLocal(op *spec.Op) {
	d := op.Data
	d[0] = 1 // want `element write into a spec.Op's Data array`
	window := d[4:8]
	window[0] = 2 // want `element write into a spec.Op's Data array`
	var args = op.Args
	copy(args, []uint16{1}) // want `copy writes into a spec.Op's Args array`
}

func EverAView(op *spec.Op, fresh bool) {
	d := make([]byte, 4)
	if !fresh {
		d = op.Data
	}
	d[0] = 1 // want `element write into a spec.Op's Data array`
}

// BuildThenAssign is the allowed form: the new payload is built in a slice
// of its own and replaces the op's header.
func BuildThenAssign(op *spec.Op, tok []byte) {
	old := op.Data
	data := make([]byte, len(old)+len(tok))
	copy(data[copy(data, old):], tok)
	data[0] ^= 1
	op.Data = data
}

// CopyOnRewrite reads through args and writes only through fresh.
func CopyOnRewrite(op *spec.Op, j int, v uint16) {
	args := op.Args
	var fresh []uint16
	if args[j] != v {
		fresh = append([]uint16(nil), args...)
		fresh[j] = v
		args = fresh
	}
	op.Args = args
}

func ResliceAssign(op *spec.Op) {
	op.Data = op.Data[:len(op.Data)/2] // a shorter view of the same array writes nothing
}

func PlainAppend(op *spec.Op, b byte) {
	op.Data = append(op.Data, b) // never overwrites an element another holder can see
}

type other struct{ Data []byte }

func OtherTypesDataField(o *other) {
	o.Data[0] = 1 // not a spec.Op
}
