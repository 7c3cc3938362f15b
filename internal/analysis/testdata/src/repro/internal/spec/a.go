// Package spec is the opwrite fixture's stand-in for the real
// repro/internal/spec: the analyzer recognises Op by this import path. The
// rule holds inside the package too.
package spec

type Op struct {
	Node uint16
	Args []uint16
	Data []byte
}

type Input struct {
	Ops []Op
}

func Scrub(op *Op) {
	for i := range op.Data {
		op.Data[i] = 0 // want `element write into a spec.Op's Data array`
	}
}

// NewOp fills a slice of its own and assigns it: a constructor needs no
// exemption.
func NewOp(node uint16, payload []byte, args ...uint16) Op {
	data := make([]byte, len(payload))
	copy(data, payload)
	op := Op{Node: node, Data: data}
	op.Args = append(op.Args, args...) // plain append never overwrites an element in use
	return op
}
