package campaign

import (
	"encoding/json"

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
	b, hs, err := decodeBroker(raw, indexQueues(tree, workers))
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
