package campaign

import (
	"encoding/binary"
	"encoding/json"
	"slices"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/store"
)

// What the tests of the checkpoint codec (the external fuzz_test.go among
// them) need of it: each section decoded and encoded back by the code
// ResumeTree and CheckpointTree run, and the keys broker.bin and virgin.bin
// live under.
const (
	BrokerFile = brokerFile
	VirginFile = virginFile
)

// ReencodeBroker decodes a broker.bin for a campaign of workers workers
// against the queue files of tree, and returns what the decoded broker
// encodes to with the holders it was decoded with.
func ReencodeBroker(raw []byte, workers int, tree store.Tree) ([]byte, error) {
	q, err := indexQueues(tree, workers)
	if err != nil {
		return nil, err
	}
	b, hs, err := decodeBroker(raw, q)
	if err != nil {
		return nil, err
	}
	var w guest.StateWriter
	b.encode(&w, hs)
	return w.Bytes(), nil
}

// ReencodeManifest decodes and validates a header and returns what the
// decoded header encodes to.
func ReencodeManifest(raw []byte) ([]byte, error) {
	m, err := readManifest(store.Tree{ManifestFile: raw})
	if err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(&m)
}

// ReencodeSched decodes a worker's sched.bin and returns what the decoded
// metadata and power state encode to.
func ReencodeSched(raw []byte) ([]byte, error) {
	meta, power, err := core.DecodeSchedState(raw)
	if err != nil {
		return nil, err
	}
	var w guest.StateWriter
	core.EncodeSchedState(&w, meta, power)
	return w.Bytes(), nil
}

// claimsSection returns where broker.bin raw's claims section starts and
// ends, stepping over the corpus entries before it and the claimants and
// claims in it the way the layout comment lays them out. raw must decode.
func claimsSection(raw []byte) (start, end int) {
	off := 0
	u32 := func() int {
		v := int(binary.LittleEndian.Uint32(raw[off:]))
		off += 4
		return v
	}
	for range u32() {
		off += 4 + 3 + 8 + 8 // worker, three booleans, exec time, size
		off += u32()         // key
		if l := u32(); l > 0 {
			off += holderLen * l
		} else {
			off += u32() // the input
		}
		off += 5 * u32() // trace
	}
	start = off
	for range u32() {
		off += u32()
	}
	off += claimLen * u32()
	return start, off
}

// BadClaimSections returns broker.bin raw with its claims section rewritten
// in the four ways encode never writes: a claim naming a claimant past the
// last, a claimant key repeated, a claimant no claim names, and the first
// two claimants swapped in the list and in every claim naming them (the same
// claims, numbered out of first-use order). raw must decode and name two
// claimants or more.
func BadClaimSections(raw []byte) map[string][]byte {
	start, end := claimsSection(raw)
	r := guest.NewStateReader(raw[start:end])
	keys := make([]string, r.Count(claimantMinLen))
	for i := range keys {
		keys[i] = r.String()
	}
	type wire struct {
		edge uint32
		fav  int64
		who  uint32
	}
	claims := make([]wire, r.Count(claimLen))
	for i := range claims {
		claims[i] = wire{r.U32(), r.I64(), r.U32()}
	}
	section := func(keys []string, claims []wire) []byte {
		var w guest.StateWriter
		w.U32(uint32(len(keys)))
		for _, k := range keys {
			w.String(k)
		}
		w.U32(uint32(len(claims)))
		for _, c := range claims {
			w.U32(c.edge)
			w.I64(c.fav)
			w.U32(c.who)
		}
		return slices.Concat(raw[:start], w.Bytes(), raw[end:])
	}
	outOfRange := slices.Clone(claims)
	outOfRange[len(claims)-1].who = uint32(len(keys))
	swapped := slices.Clone(claims)
	for i := range swapped {
		if swapped[i].who < 2 {
			swapped[i].who ^= 1
		}
	}
	return map[string][]byte{
		"out of range": section(keys, outOfRange),
		"repeated key": section(slices.Replace(slices.Clone(keys), 1, 2, keys[0]), claims),
		"unreferenced": section(append(slices.Clone(keys), "unreferenced"), claims),
		"out of order": section(append([]string{keys[1], keys[0]}, keys[2:]...), swapped),
	}
}
