package campaign

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/guest"
	"repro/internal/spec"
	"repro/internal/store"
)

// Checkpoint format, manifest version 11 — one store.Tree, written atomically
// via PutTree. This comment is the format's one specification.
//
//	manifest.json                    the header: compact JSON of type manifest
//	virgin.bin                       the broker's global virgin map (coverage.Virgin.MarshalBinary)
//	broker.bin                       the broker's corpus, claims, pending imports and crashes
//	worker-NNN/queue/id-NNNNNN.nyx   worker NNN's queue, one file per entry (core.EncodeQueue), numbered from 0 by queue index
//	worker-NNN/sched.bin             its scheduler metadata and power state (core.EncodeSchedState)
//
// The header holds what a listing, a summary or a person reads — the
// campaign's configuration, clock, counters (the corpus and crashes as
// counts) and coverage log — and its size does not depend on the corpus. It
// is one JSON object, in this key order:
//
//	version                                  11
//	target, workers, policy, seed,           the campaign's Config, embedded: the
//	sync_interval_ns, sched, power,          service spec's keys, every enum by the
//	snap_budget, asan, sync_mode             name its flag takes (policy none |
//	                                         balanced | aggressive, sched afl | rr,
//	                                         power off | coe, sync_mode lockstep |
//	                                         async)
//	epoch, rounds, elapsed_ns                the resume count, lockstep rounds, virtual clock
//	published, deduped                       the broker's counters
//	corpus_entries, crash_entries            broker.bin's counts
//	worker_epochs                            each worker's epoch counter (omitted when empty)
//	cov_log                                  the coverage log: {t_ns, edges} points
//
// A resume validates the configuration as New does (Config.Validate): a name
// no value has, or a number where a name belongs, is an error.
//
// Everything that grows with the corpus is binary, written and read in one
// pass through the bounded canonical codec of the guest state image
// (guest.StateWriter/StateReader): little-endian, strings and byte strings
// behind a u32 length, booleans 0 or 1, every count checked against the bytes
// left before it sizes an allocation or bounds a loop, bytes after the last
// field an error. A file that decodes is the file its contents encode to.
//
// The queue files are the §5.4 share-folder format (spec.Serialize), so a
// worker directory doubles as a seed corpus; a resume reads them in entry-ID
// order, which is queue order — the order sched.bin's entries are in.
//
// sched.bin holds one entry per queue file of its worker, and entry i
// belongs to queue file i: a resume matches them by position, never by
// content, so two entries with the same bytes keep their own metadata. It is
// written in the codec below:
//
//	u32 n   entries; n = the worker's queue files
//	   n × ( i64 depth | i64 exec_time_ns | i64 picked | bool trimmed |
//	         i64 aggr_back | i64 aggr_barren | bool dominated )
//	u64 total_picked
//	u32 m   the power schedule's pick counts, edges strictly ascending
//	   m × ( u32 edge | u64 picks )
//
// Every queue file re-queues on the worker's first round, whatever its
// re-run covers, and takes its entry's metadata.
//
// Each input is stored once. A corpus entry's holders are the queue files
// whose entry shares the corpus entry's op array, neither input carrying a
// snapshot marker: the publisher's own entry, a receiver's queued import of
// it, a seed a resume gave its input. Op arrays are never written (package
// spec), so every holder's file holds the corpus entry's bytes, and
// broker.bin names the holders and carries the bytes only of an entry that
// has none. A link is recorded when its holder is created (brokerEntry for
// the publisher, worker.links for the rest) and a checkpoint lists those
// whose entry is still filed under its id (core.Fuzzer.FileID) and still
// shares the ops: by identity, never by hashing or a lookup per entry. A
// resume decodes the first holder's file once, requires every other holder's
// file to hold the same bytes, and gives every holder that input with the
// corpus entry's key and bytes (keys come from broker.bin only); the other
// queue files are decoded, and keyed on first use, one by one. Pending
// imports and crashes keep their inputs in broker.bin.
//
// broker.bin, in order (an input is spec.Serialize bytes with no snapshot
// marker; a key is core.InputKey of the input it travels with):
//
//	u32 n   corpus entries in acceptance order; n = the header's corpus_entries
//	   n × ( u32 worker < workers | bool favored | bool global_fav | bool dominated |
//	         i64 exec_time_ns | i64 size | string key |
//	         u32 l | l × ( u32 worker < workers | u32 id ) | bytes32 input, only when l = 0 |
//	         u32 h | h × ( u32 edge | u8 bucket ) )
//	u32 a   claimants: the inputs the claims below name, in the order they first do
//	   a × string key
//	u32 c   top-rated claims, edges strictly ascending and below coverage.MapSize
//	   c × ( u32 edge | i64 fav | u32 claimant < a )
//	u32 w   pending-import queues, one per worker in ID order; w = workers
//	   w × ( u32 p | p × ( bool global_fav | bytes32 input ) )
//	u32 k   crash buckets in discovery order, each its first crash; k = the header's crash_entries
//	   k × ( string kind | string site | string msg | i64 found_at_ns | u64 execs | bytes32 input )
//
// A corpus entry's l holders name the files worker-NNN/queue/id-N.nyx
// strictly ascending by worker, then id. A holder
// naming no file of the tree, a worker out of range, or a file with other
// bytes than the first holder's fails the resume.
//
// A claimant is numbered by its place in the list, which is the order in
// which the claims, ascending by edge, first name it: the first claim names
// claimant 0, and each later one a claimant named before it or the next one.
// Every claimant is named, no key is listed twice, and no crash repeats an
// earlier one's bucket (kind and site); anything else fails the resume.
//
// Inputs decoded from a queue file alias it (spec.DeserializeAppend), and
// keep its bytes as their entries' QueueEntry.Bytes: a resumed campaign keeps
// each corpus entry's first holder file and every queue file no corpus entry
// names reachable for as long as it holds the inputs, which is as long as it
// runs. That is the bytes a copy of each payload would have cost, plus the
// headers in between. The inputs broker.bin carries are decoded from a copy
// of their bytes, so broker.bin, mostly keys, traces and holders a resume
// copies out, is not kept. ResumeTree owns the tree it is given; callers
// must not write its values afterwards.
// The tree CheckpointTree returns shares its queue files and corpus inputs
// with the live entries' bytes in the same way: never write its values
// either.
//
// A round trip allocates per tree and per section, not per file or entry. A
// checkpoint cuts each worker's queue file names from one string
// (core.EncodeQueue), lists the holders in one slab, and the mem store copies
// the whole tree into one slab. A resume cuts broker.bin's corpus keys from
// one string and its claimant keys from another (sched.bin has none), indexes
// each claimant key once, and the traces, the holders, the
// inputs with their bytes and op and argument arrays, and the entries with
// their memoized encodings come from slabs. What is left per file is the
// store's copy of each file a resume reads, kept per file on purpose: the
// campaign keeps the files above and drops the rest, which a shared slab
// would keep alive with them (package store).
//
// Checkpoint I/O goes through the store.Storer abstraction, so the same
// tree lands on a local directory (dir://) or a remote-style object store
// (mem://) unchanged: CheckpointTo/ResumeFrom are the one entry point, and
// store.ForDir maps a plain checkpoint directory onto the dir backend.
//
// Resume relaunches the same target with the same worker count, feeds each
// worker its saved queue as seeds, and restores the broker's global map,
// crash buckets and coverage log. The resumed campaign is deterministic
// given the checkpoint (worker RNGs derive from (seed, epoch, worker) and
// the epoch bumps on every resume), but is not bit-identical to the same
// campaign run without interruption — mid-campaign mutator RNG state is
// deliberately not serialized, matching how AFL resumes from AFL_AUTORESUME.
// Pool contents are never checkpointed — slots are live VM state, recreated
// on demand after a resume.

// manifestVersion is the one checkpoint format this build writes and reads;
// a tree that declares any other is refused by number (README says how to
// carry an older tree over).
const manifestVersion = 11

// Tree keys beside the per-worker files. ManifestFile is the one a listing
// needs: Summarize reads nothing else.
const (
	ManifestFile = "manifest.json"
	virginFile   = "virgin.bin"
	brokerFile   = "broker.bin"
)

// manifest is the header. Its configuration is the campaign's Config,
// embedded, so its keys are the service spec's and its enums are names.
type manifest struct {
	Version int `json:"version"`
	Config
	Epoch  int `json:"epoch"`
	Rounds int `json:"rounds"`
	// Elapsed is the campaign's cumulative virtual time at checkpoint;
	// the resumed campaign's clock (and hence its coverage-log and crash
	// timestamps) continues from here instead of restarting at zero.
	Elapsed time.Duration `json:"elapsed_ns"`

	Published uint64 `json:"published"`
	Deduped   uint64 `json:"deduped"`
	// Corpus and Crashes count broker.bin's corpus entries and crashes.
	Corpus  int `json:"corpus_entries"`
	Crashes int `json:"crash_entries"`
	// WorkerEpochs records each worker's epoch counter.
	WorkerEpochs []int `json:"worker_epochs,omitempty"`
	// CovLog is the aggregated coverage-over-time series.
	CovLog []core.CoveragePoint `json:"cov_log"`
}

// readManifest decodes a tree's header and refuses every version but this
// build's. The header is outside input: an enum that names no known value
// is an error from its UnmarshalText, never a silent default.
func readManifest(t store.Tree) (manifest, error) {
	var m manifest
	enc, ok := t[ManifestFile]
	if !ok {
		return m, fmt.Errorf("checkpoint has no %s", ManifestFile)
	}
	if err := json.Unmarshal(enc, &m); err != nil {
		return m, fmt.Errorf("bad manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return m, fmt.Errorf("manifest version %d is not supported (this build reads version %d only)", m.Version, manifestVersion)
	}
	return m, nil
}

// CheckpointTo writes the campaign's full resumable state as the tree
// named name in st. Call it between RunFor calls (never concurrently with
// one). The write is near-atomic (see store.Storer's PutTree contract): an
// interruption mid-checkpoint leaves either the old checkpoint or the new
// one — never a half-written mix of epochs.
func (c *Campaign) CheckpointTo(st store.Storer, name string) error {
	t, err := c.CheckpointTree()
	if err != nil {
		return err
	}
	if err := st.PutTree(name, t); err != nil {
		return fmt.Errorf("campaign: checkpoint: %w", err)
	}
	return nil
}

// CheckpointTree serializes the full campaign state as a file tree —
// the storage-agnostic checkpoint form. Callers may add their own
// supplementary keys before storing; ResumeTree ignores keys it does not
// know.
func (c *Campaign) CheckpointTree() (store.Tree, error) {
	files := 3 + 2*len(c.workers)
	for _, w := range c.workers {
		files += len(w.fz.Queue)
	}
	t := make(store.Tree, files)
	for _, w := range c.workers {
		dir := workerDir(w.id) + "/"
		w.fz.EncodeQueue(t, dir)
		// Scheduler metadata and power-schedule state ride next to the
		// corpus so a resumed worker re-attaches pick counts, trim state,
		// depth and per-edge pick frequencies instead of rediscovering them.
		var sw guest.StateWriter
		core.EncodeSchedState(&sw, w.fz.SchedMeta(), w.fz.PowerState())
		t[dir+core.SchedStateFile] = sw.Bytes()
	}
	raw, err := c.broker.virgin.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("campaign: checkpoint: %w", err)
	}
	t[virginFile] = raw
	var bw guest.StateWriter
	c.broker.encode(&bw, c.collectHolders())
	t[brokerFile] = bw.Bytes()
	m := manifest{
		Version:   manifestVersion,
		Config:    c.cfg,
		Epoch:     c.epoch,
		Rounds:    c.rounds,
		Elapsed:   c.Elapsed(),
		Published: c.broker.published,
		Deduped:   c.broker.deduped,
		Corpus:    len(c.broker.corpus),
		Crashes:   len(c.broker.Crashes),
		CovLog:    c.broker.covLog,
	}
	for _, w := range c.workers {
		m.WorkerEpochs = append(m.WorkerEpochs, w.epoch)
	}
	if t[ManifestFile], err = json.Marshal(&m); err != nil {
		return nil, fmt.Errorf("campaign: checkpoint: %w", err)
	}
	return t, nil
}

// holder names a queue file, worker-NNN/queue/id-N.nyx, that holds a corpus
// entry's input.
type holder struct{ worker, id int }

func (h holder) compare(o holder) int {
	return cmp.Or(cmp.Compare(h.worker, o.worker), cmp.Compare(h.id, o.id))
}

// holders lists every corpus entry's holders: entry i's are
// at[start[i]:start[i+1]], ascending by worker, then id. The zero value
// lists none.
type holders struct {
	start []int
	at    []holder
}

func (hs holders) of(i int) []holder {
	if i+1 >= len(hs.start) {
		return nil
	}
	return hs.at[hs.start[i]:hs.start[i+1]]
}

// collectHolders lists the corpus entries' holders from the links recorded
// as they were created — each corpus entry a publisher's own entry, and the workers'
// links — keeping those whose entry is still filed (core.Fuzzer.FileID) and
// still shares its corpus entry's ops: two passes over the links, count and
// fill, that hash nothing and look nothing up by entry. Quiesced callers
// only.
func (c *Campaign) collectHolders() holders {
	corpus := c.broker.corpus
	visit := func(f func(i int, h holder)) {
		for i, be := range corpus {
			// A live publication is its own holder; a corpus entry a resume
			// restored is filed nowhere.
			if id, ok := c.workers[be.Worker].fz.FileID(be.Entry); ok {
				f(i, holder{be.Worker, id})
			}
		}
		for _, w := range c.workers {
			for _, l := range w.links {
				if id, ok := w.fz.FileID(l.entry); ok && sameOps(l.entry.Input, corpus[l.corpus].Entry.Input) {
					f(l.corpus, holder{w.id, id})
				}
			}
		}
	}
	hs := holders{start: make([]int, len(corpus)+1)}
	visit(func(i int, _ holder) { hs.start[i+1]++ })
	for i := range corpus {
		hs.start[i+1] += hs.start[i]
	}
	hs.at = make([]holder, hs.start[len(corpus)])
	visit(func(i int, h holder) {
		hs.at[hs.start[i]] = h
		hs.start[i]++
	})
	copy(hs.start[1:], hs.start) // the fill moved each start to the next one's
	hs.start[0] = 0
	for i := range corpus {
		if l := hs.of(i); len(l) > 1 {
			slices.SortFunc(l, holder.compare)
		}
	}
	return hs
}

// sameOps reports whether a and b are one input: neither marked, and one op
// array. Nothing writes an op array (package spec), so they serialize to the
// same bytes.
func sameOps(a, b *spec.Input) bool {
	return a.SnapshotAt < 0 && b.SnapshotAt < 0 && len(a.Ops) == len(b.Ops) &&
		(len(a.Ops) == 0 || &a.Ops[0] == &b.Ops[0])
}

// encode appends the broker.bin form of b (the layout comment above) to w,
// listing the corpus entries' holders hs. Quiesced callers only. Every corpus
// entry a worker published carries the key it was published or re-published
// under (QueueEntry.Key), and its bytes once any checkpoint has written them
// (QueueEntry.Bytes), so a corpus entry is hashed never and encoded once in
// its life — and written here only when no queue file holds it.
func (b *broker) encode(w *guest.StateWriter, hs holders) {
	var buf []byte // pending imports and crashes are encoded here, then copied behind their length
	input := func(in *spec.Input) {
		buf = spec.AppendSerialize(buf[:0], in)
		w.Bytes32(buf)
	}
	// Claimants are numbered in the order the claims first name them:
	// nums[n] is claimant n's number in the file plus one, 0 for one no
	// claim names (it holds nothing), and named lists them in file order.
	nums, named := make([]uint32, len(b.claimants)), make([]int32, 0, len(b.claimants))
	for _, h := range b.claims {
		if nums[h.who] == 0 {
			named = append(named, h.who)
			nums[h.who] = uint32(len(named))
		}
	}
	size := 20 + 4*len(b.pending) + len(named)*(4+32) + len(b.claimed)*claimLen // a key is a 32-byte digest
	for i, be := range b.corpus {
		size += corpusEntryMinLen + len(be.Entry.Key()) + 5*len(be.Entry.Cov)
		if l := len(hs.of(i)); l > 0 {
			size += holderLen * l
		} else {
			size += 4 + len(be.Entry.Bytes())
		}
	}
	for _, q := range b.pending {
		for _, it := range q {
			size += pendingMinLen + spec.EncodedLen(it.input)
		}
	}
	for _, cr := range b.Crashes {
		size += crashMinLen + len(cr.Kind) + len(cr.Site) + len(cr.Msg) + spec.EncodedLen(cr.Input)
	}
	w.Grow(size)
	w.U32(uint32(len(b.corpus)))
	for i, be := range b.corpus {
		e := be.Entry
		w.U32(uint32(be.Worker))
		w.Bool(e.Favored)
		w.Bool(be.GlobalFav)
		w.Bool(e.GloballyDominated)
		w.I64(int64(e.ExecTime))
		w.Int(e.Size)
		w.String(e.Key())
		held := hs.of(i)
		w.U32(uint32(len(held)))
		for _, h := range held {
			w.U32(uint32(h.worker))
			w.U32(uint32(h.id))
		}
		if len(held) == 0 {
			w.Bytes32(e.Bytes())
		}
		w.U32(uint32(len(e.Cov)))
		for _, h := range e.Cov {
			w.U32(h.Index)
			w.U8(h.Bucket)
		}
	}
	w.U32(uint32(len(named)))
	for _, n := range named {
		w.String(b.claimants[n].key)
	}
	w.U32(uint32(len(b.claimed)))
	for i, idx := range b.claimed {
		w.U32(idx)
		w.I64(b.claims[i].fav)
		w.U32(nums[b.claims[i].who] - 1)
	}
	// The workers' bounded import queues — entries published by others that
	// a worker had not yet pulled (an async campaign's final flushes race
	// each other; a lockstep round leaves none) — so redistribution survives
	// the resume.
	w.U32(uint32(len(b.pending)))
	for _, q := range b.pending {
		w.U32(uint32(len(q)))
		for _, it := range q {
			w.Bool(it.globalFav)
			input(it.input)
		}
	}
	w.U32(uint32(len(b.Crashes)))
	for _, cr := range b.Crashes {
		w.String(string(cr.Kind))
		w.String(cr.Site)
		w.String(cr.Msg)
		w.I64(int64(cr.FoundAt))
		w.U64(cr.Execs)
		input(cr.Input)
	}
}

// The fewest bytes one element of each broker.bin sequence takes (empty
// strings, an input of no ops, an empty trace; a corpus entry has a holder
// or an input, and a holder is the shorter): what bounds a count.
const (
	inputMinLen       = 4 + 10 // bytes32 length + the bytecode header
	holderLen         = 4 + 4
	corpusEntryMinLen = 4 + 3 + 8 + 8 + 4 + 4 + min(holderLen, inputMinLen) + 4
	claimantMinLen    = 4
	claimLen          = 4 + 8 + 4
	pendingMinLen     = 1 + inputMinLen
	crashMinLen       = 4 + 4 + 4 + 8 + 8 + inputMinLen
)

// Decoded inputs take their op and argument arrays from slabs of these
// capacities (spec.DeserializeAppend), broker.bin's traces theirs from
// slabs of covSlab hits, and the inputs broker.bin carries their bytes from
// slabs of inSlab bytes. The chunks are small because a resumed campaign
// keeps its slabs for as long as it runs, the unused tail of the last one
// included.
const (
	opSlab  = 1 << 7
	argSlab = 1 << 7
	covSlab = 1 << 10
	inSlab  = 1 << 12
)

// errMarked refuses a decoded input that carries a snapshot marker.
var errMarked = errors.New("input carries a snapshot marker")

// queueFile is one worker-NNN/queue/id-N.nyx of a tree being resumed.
type queueFile struct {
	id  int
	key string
	// in is the input the file's entry takes from the first corpus entry
	// that names it as a holder, src; nil and -1 when none does.
	in  *spec.Input
	src int
}

// fileLink says that worker's file files[worker][file] took the input of
// the corpus entry corpus (a link a resume records).
type fileLink struct{ corpus, file int }

// queueIndex is a tree's queue files, each worker's in id order, which is
// queue order: file id is files[w][id]. decodeBroker resolves holders
// against it and records in it the input each file takes and the links.
type queueIndex struct {
	t     store.Tree
	files [][]queueFile
	links [][]fileLink
}

// indexQueues files every worker-NNN/queue/id-N.nyx of t for a campaign of
// workers workers in one pass over its keys. CheckpointTree names worker w's
// n files id-000000 to id-(n-1), a file's id being its entry's queue index
// (core.Fuzzer.EncodeQueue and FileID), and a tree numbered any other way —
// with a gap, a duplicate or a first id other than 0 — is refused.
func indexQueues(t store.Tree, workers int) (queueIndex, error) {
	q := queueIndex{t: t, files: make([][]queueFile, workers), links: make([][]fileLink, workers)}
	dirs := make([]string, workers)
	for i := range dirs {
		dirs[i] = workerDir(i)
	}
	for key := range t {
		dir, rest, _ := strings.Cut(key, "/")
		num, isQueue := strings.CutPrefix(rest, "queue/id-")
		num, isNyx := strings.CutSuffix(num, ".nyx")
		if !isQueue || !isNyx {
			continue // not a queue file: parsing it would only build an error
		}
		wid, werr := strconv.Atoi(strings.TrimPrefix(dir, "worker-"))
		id, err := strconv.Atoi(num)
		if werr == nil && wid >= 0 && wid < len(dirs) && dir == dirs[wid] && err == nil && id >= 0 {
			q.files[wid] = append(q.files[wid], queueFile{id: id, key: key, src: -1})
		}
	}
	for w, files := range q.files {
		if missing, ok := placeByID(files); !ok {
			return queueIndex{}, fmt.Errorf("%s has %d queue files but no %s/queue/id-%06d.nyx", workerDir(w), len(files), workerDir(w), missing)
		}
		q.links[w] = make([]fileLink, 0, len(files)) // a link per file, but for one two corpus entries name
	}
	return q, nil
}

// placeByID puts files numbered 0 to len(files)-1 in id order in one pass,
// each swap putting a file in its place. When the ids are anything else it
// returns false and the least id below len(files) that no file has, which
// such a numbering always leaves.
func placeByID(files []queueFile) (missing int, ok bool) {
	for i := range files {
		for files[i].id != i {
			j := files[i].id
			if j >= len(files) || files[j].id == j {
				has := make([]bool, len(files))
				for _, f := range files {
					if f.id < len(files) {
						has[f.id] = true
					}
				}
				return slices.Index(has, false), false
			}
			files[i], files[j] = files[j], files[i]
		}
	}
	return 0, true
}

// decodeBroker rebuilds a broker for a campaign of len(q.files) workers from
// its broker.bin form, resolving the corpus entries' holders against q, and
// returns the holders too. raw is outside input: besides what the codec
// checks, worker indices outside the campaign, holders out of order, naming
// no file or a file with other bytes than the first, claims out of order or
// range, empty keys and inputs that are not plain bytecode are errors, so
// only bytes encode would write come back as a broker, its inputs and Bytes
// aliasing the holder files or a copy of raw's. A section costs a few
// allocations however many entries it holds: inputs, their bytes and ops,
// keys, holders, traces and encodings are cut from slabs, and a claim takes
// the key string of the corpus entry it names.
func decodeBroker(raw []byte, q queueIndex) (*broker, holders, error) {
	workers := len(q.files)
	r := guest.NewStateReader(raw)
	ok := func() bool { return r.Err() == nil }
	ops, args := make([]spec.Op, 0, opSlab), make([]uint16, 0, argSlab)
	// inline copies the bytes of an input broker.bin itself carries into a
	// slab. Keys, holders and traces are copied out as they are decoded
	// too, so nothing a resumed campaign keeps aliases raw.
	var ins []byte
	inline := func(enc []byte) []byte {
		if cap(ins)-len(ins) < len(enc) {
			ins = make([]byte, 0, max(len(enc), inSlab))
		}
		ins = append(ins, enc...)
		return ins[len(ins)-len(enc) : len(ins) : len(ins)]
	}
	// decode decodes enc into in: plain bytecode, with no snapshot marker.
	decode := func(in *spec.Input, enc []byte) error {
		var err error
		if ops, args, err = spec.DeserializeAppend(in, enc, ops, args); err == nil && in.SnapshotAt >= 0 {
			err = errMarked
		}
		return err
	}
	// hold gives corpus entry i the input its holders held share: the first
	// holder's file decoded into in, or the input an earlier corpus entry
	// gave that file, and the file's bytes. Every other holder's file must
	// hold the same bytes. A file takes the first input it is given, and
	// links to each corpus entry that gives it that one.
	hold := func(i int, held []holder, in *spec.Input) (*spec.Input, []byte) {
		var enc []byte
		var first string
		for k, h := range held {
			j := h.id // the file of id j is files[j]
			if j >= len(q.files[h.worker]) {
				r.Fail("corpus entry %d: holder %s/queue/id-%06d.nyx is not in the checkpoint", i, workerDir(h.worker), h.id)
				return nil, nil
			}
			f := &q.files[h.worker][j]
			got := q.t[f.key]
			switch {
			case k == 0 && f.in != nil:
				in, enc, first = f.in, got, f.key
			case k == 0:
				if err := decode(in, got); err != nil {
					r.Fail("corpus entry %d: holder %s: %v", i, f.key, err)
				}
				enc, first = got, f.key
			case !bytes.Equal(got, enc):
				r.Fail("corpus entry %d: holder %s holds other bytes than %s", i, f.key, first)
			}
			if !ok() {
				return nil, nil
			}
			if f.in == nil {
				f.in, f.src = in, i
			}
			if f.in == in {
				q.links[h.worker] = append(q.links[h.worker], fileLink{corpus: i, file: j})
			}
		}
		return in, enc
	}

	b := newBroker()
	n := r.Count(corpusEntryMinLen)
	var keys strings.Builder
	keys.Grow(32 * n) // a key is a 32-byte digest
	entries := make([]core.QueueEntry, n)
	inputs := make([]spec.Input, n)
	encs := core.MakeEncodings(n)
	hs := holders{start: make([]int, 1, n+1), at: make([]holder, 0, min(n*workers, len(raw)/holderLen))}
	var hits []coverage.BucketHit
	b.corpus = make([]brokerEntry, 0, n)
	for i := 0; i < n && ok(); i++ {
		// The full entry the global favored competition reads — favored
		// bit, trace digest, exec time and size — plus its provenance.
		e := &entries[i]
		be := brokerEntry{Worker: int(r.U32()), Entry: e}
		if be.Worker >= workers {
			r.Fail("corpus entry %d names worker %d of %d", i, be.Worker, workers)
		}
		*e = core.QueueEntry{ID: i, Favored: r.Bool()}
		be.GlobalFav = r.Bool()
		e.GloballyDominated = r.Bool()
		e.ExecTime = time.Duration(r.I64())
		e.Size = r.Int()
		k := r.StringTo(&keys)
		if k == "" {
			r.Fail("corpus entry %d: empty content key", i)
		}
		l := r.Count(holderLen)
		for j := 0; j < l && ok(); j++ {
			h := holder{int(r.U32()), int(r.U32())}
			if h.worker >= workers {
				r.Fail("corpus entry %d: holder names worker %d of %d", i, h.worker, workers)
			} else if j > 0 && hs.at[len(hs.at)-1].compare(h) >= 0 {
				r.Fail("corpus entry %d: holder %d:%d after %d:%d", i, h.worker, h.id, hs.at[len(hs.at)-1].worker, hs.at[len(hs.at)-1].id)
			}
			hs.at = append(hs.at, h)
		}
		var enc []byte
		if l == 0 {
			enc, e.Input = inline(r.View32()), &inputs[i]
			if err := decode(e.Input, enc); err != nil {
				r.Fail("corpus entry %d: %v", i, err)
			}
		} else if ok() {
			e.Input, enc = hold(i, hs.at[len(hs.at)-l:], &inputs[i])
		}
		hs.start = append(hs.start, len(hs.at))
		encs.Set(i, e, k, enc)
		h := r.Count(5)
		if cap(hits)-len(hits) < h {
			hits = make([]coverage.BucketHit, 0, max(h, covSlab))
		}
		for range h {
			hits = append(hits, coverage.BucketHit{Index: r.U32(), Bucket: r.U8()})
		}
		e.Cov = hits[len(hits)-h : len(hits) : len(hits)]
		b.corpus = append(b.corpus, be)
	}
	// The claimants, each key once, then the claims naming them by number in
	// first-use order: claim i names a claimant an earlier claim named, or the
	// next one, and every claimant is named.
	na := r.Count(claimantMinLen)
	var ckeys strings.Builder
	ckeys.Grow(32 * na)
	b.index = make(map[string]int32, na)
	b.claimants = make([]claimant, na)
	for i := 0; i < na && ok(); i++ {
		k := r.StringTo(&ckeys)
		if k == "" {
			r.Fail("claimant %d: empty content key", i)
		} else if j, dup := b.index[k]; dup {
			r.Fail("claimant %d repeats the key of claimant %d", i, j)
		}
		b.index[k] = int32(i)
		b.claimants[i].key = k
	}
	nc := r.Count(claimLen)
	b.claimed, b.claims = make([]uint32, 0, nc), make([]claim, 0, nc)
	named := 0 // claimants the claims so far have named
	for i, prev := 0, uint32(0); i < nc && ok(); i++ {
		idx, fav, who := r.U32(), r.I64(), r.U32()
		if idx >= coverage.MapSize || i > 0 && idx <= prev {
			r.Fail("claim %d: edge %d after %d", i, idx, prev)
		} else if who >= uint32(na) || who > uint32(named) {
			r.Fail("claim %d names claimant %d of %d, %d named before it", i, who, na, named)
		}
		if !ok() {
			break
		}
		if who == uint32(named) {
			named++
		}
		prev = idx
		b.has[idx/64] |= 1 << (idx % 64)
		b.claimed = append(b.claimed, idx)
		b.claims = append(b.claims, claim{fav: fav, who: int32(who)})
		b.claimants[who].wins++
	}
	if ok() && named < na {
		r.Fail("claimant %d is named by no claim", named)
	}
	for w := 1; w < len(b.before); w++ {
		b.before[w] = b.before[w-1] + int32(bits.OnesCount64(b.has[w-1]))
	}
	// Each claimant's edges, ascending, in a window of one slab as wide as
	// its win count.
	edges := make([]uint32, 0, len(b.claimed))
	for i, idx := range b.claimed {
		c := &b.claimants[b.claims[i].who]
		if c.edges == nil {
			c.edges, edges = edges[len(edges):len(edges):len(edges)+c.wins], edges[:len(edges)+c.wins]
		}
		c.edges = append(c.edges, idx)
	}
	// Re-point surviving claims at the restored corpus entries so a later
	// displacement can still demote them; the workers' live re-imported
	// copies re-bind as duplicate publications at their first exchange.
	held := make([]*core.QueueEntry, 0, len(b.corpus))
	for i := 0; i < len(b.corpus) && ok(); i++ {
		e := b.corpus[i].Entry
		n, found := b.index[e.Key()]
		if !found {
			continue
		}
		if c := &b.claimants[n]; c.restored != nil {
			c.restored = append(c.restored, e)
		} else {
			held = append(held, e)
			c.restored = held[len(held)-1 : len(held) : len(held)]
		}
	}
	// Each worker pulls its queue at its first exchange after the resume.
	if queues := r.Count(4); queues != workers {
		r.Fail("%d pending-import queues for %d workers", queues, workers)
	}
	if ok() {
		b.initWorkers(workers)
	}
	for wid := 0; wid < workers && ok(); wid++ {
		np := r.Count(pendingMinLen)
		inputs := make([]spec.Input, np)
		for i := 0; i < np && ok(); i++ {
			gf := r.Bool()
			if err := decode(&inputs[i], inline(r.View32())); err != nil {
				r.Fail("pending import %d: %v", i, err)
			}
			b.pending[wid] = append(b.pending[wid], importItem{input: &inputs[i], corpus: -1, globalFav: gf})
		}
	}
	nk := r.Count(crashMinLen)
	crashInputs := make([]spec.Input, nk)
	for i := 0; i < nk && ok(); i++ {
		cr := core.Crash{
			CrashError: guest.CrashError{Kind: guest.CrashKind(r.String()), Site: r.String(), Msg: r.String()},
			FoundAt:    time.Duration(r.I64()), Execs: r.U64(), Input: &crashInputs[i],
		}
		if err := decode(cr.Input, inline(r.View32())); err != nil {
			r.Fail("crash %d: %v", i, err)
		}
		if !b.AddCrash(cr) {
			r.Fail("crash %d repeats the bucket of an earlier one (%s at %q)", i, cr.Kind, cr.Site)
		}
	}
	return b, hs, r.Done()
}

// ResumeFrom relaunches a checkpointed campaign from the tree named name
// in st — any backend, including one the checkpoint was migrated to with
// store.CopyTree. The stored configuration (target, workers, policy, master
// seed, sync interval and mode) is authoritative; each worker re-imports its
// saved queue on the first scheduling round, which rebuilds local coverage
// without polluting the restored global state (the broker dedups the
// re-published entries).
func ResumeFrom(st store.Storer, name string) (*Campaign, error) {
	t, err := st.GetTree(name)
	if err != nil {
		return nil, fmt.Errorf("campaign: resume: %w", err)
	}
	return ResumeTree(t)
}

// ResumeTree relaunches a campaign from an in-memory checkpoint tree (as
// produced by CheckpointTree and read back via Storer.GetTree). Keys the
// checkpoint format does not define are ignored, so callers may ride
// supplementary state (e.g. the service's campaign spec) in the same tree.
// The campaign keeps t's values (see the layout comment).
func ResumeTree(t store.Tree) (_ *Campaign, err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("campaign: resume: %w", err)
		}
	}()
	m, err := readManifest(t)
	if err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	cfg := m.Config.withDefaults()
	if len(m.WorkerEpochs) > cfg.Workers {
		return nil, fmt.Errorf("%d worker epochs for %d workers", len(m.WorkerEpochs), cfg.Workers)
	}
	virgin, ok := t[virginFile]
	if !ok {
		return nil, fmt.Errorf("checkpoint has no %s", virginFile)
	}
	raw, ok := t[brokerFile]
	if !ok {
		return nil, fmt.Errorf("checkpoint has no %s", brokerFile)
	}
	q, err := indexQueues(t, cfg.Workers)
	if err != nil {
		return nil, err
	}
	br, _, err := decodeBroker(raw, q)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", brokerFile, err)
	}
	if len(br.corpus) != m.Corpus || len(br.Crashes) != m.Crashes {
		return nil, fmt.Errorf("%s holds %d corpus entries and %d crashes, the manifest counts %d and %d",
			brokerFile, len(br.corpus), len(br.Crashes), m.Corpus, m.Crashes)
	}
	if err := br.virgin.UnmarshalBinary(virgin); err != nil {
		return nil, err
	}
	br.published = m.Published
	br.deduped = m.Deduped
	if br.covLog = m.CovLog; len(br.covLog) > 0 {
		br.lastSample = br.covLog[len(br.covLog)-1].T
	}
	br.timeBase = m.Elapsed

	seedsFor := func(i int) (workerSeeds, error) {
		files := q.files[i]
		if len(files) == 0 {
			return workerSeeds{}, nil // worker had an empty queue; fall back to bundled seeds
		}
		// A holder takes its corpus entry's input, key and bytes; the rest
		// are decoded after, into one slab of inputs. A checkpoint is written
		// whole: a queue file that does not decode is a damaged checkpoint,
		// not a seed to skip.
		n := len(files)
		ws := workerSeeds{queue: make([]*core.QueueEntry, n), links: make([]link, len(q.links[i]))}
		entries, encs := make([]core.QueueEntry, n), core.MakeEncodings(n)
		unheld := 0
		for j, f := range files {
			e := &entries[j]
			if f.in != nil {
				be := br.corpus[f.src].Entry
				e.Input = f.in
				encs.Set(j, e, be.Key(), be.Bytes())
			} else {
				unheld++
			}
			ws.queue[j] = e
		}
		for k, l := range q.links[i] {
			ws.links[k] = link{corpus: l.corpus, entry: &entries[l.file]}
		}
		if unheld > 0 {
			inputs := make([]spec.Input, unheld)
			ops, args := make([]spec.Op, 0, opSlab), make([]uint16, 0, argSlab)
			for j, f := range files {
				enc, e := t[f.key], &entries[j]
				if e.Input != nil {
					continue
				}
				in := &inputs[0]
				inputs = inputs[1:]
				var err error
				if ops, args, err = spec.DeserializeAppend(in, enc, ops, args); err != nil {
					return ws, fmt.Errorf("%s: %w", f.key, err)
				}
				if e.Input = in; in.SnapshotAt < 0 {
					encs.Set(j, e, "", enc)
				} else {
					in.SnapshotAt = -1 // a seed runs whole: enc, marker and all, is not its bytes
				}
			}
		}
		key := workerDir(i) + "/" + core.SchedStateFile
		raw, ok := t[key]
		if !ok {
			return ws, fmt.Errorf("checkpoint has no %s", key)
		}
		var err error
		if ws.meta, ws.power, err = core.DecodeSchedState(raw); err != nil {
			return ws, fmt.Errorf("%s: %w", key, err)
		}
		if len(ws.meta) != n {
			return ws, fmt.Errorf("%s holds %d entries for %d queue files", key, len(ws.meta), n)
		}
		return ws, nil
	}
	c, err := newCampaign(cfg, m.Epoch+1, seedsFor, br)
	if err != nil {
		return nil, err
	}
	c.rounds = m.Rounds
	c.baseElapsed = m.Elapsed
	for i, ep := range m.WorkerEpochs {
		c.workers[i].epoch = ep
	}
	return c, nil
}

// Summary is the cheap checkpoint metadata a service can surface without
// paying for a full resume (no VM launch, no corpus re-import): the
// campaign's configuration as its header records it, and its progress.
type Summary struct {
	Config  Config        `json:"config"`
	Epoch   int           `json:"epoch"`
	Elapsed time.Duration `json:"elapsed_ns"`
	Edges   int           `json:"edges"`
	Crashes int           `json:"crashes"`
	Corpus  int           `json:"corpus"`
}

// Summarize decodes a checkpoint tree's manifest into a Summary. It reads
// manifest.json and nothing else, so a tree holding just that key will do.
func Summarize(t store.Tree) (Summary, error) {
	m, err := readManifest(t)
	if err != nil {
		return Summary{}, fmt.Errorf("campaign: summarize: %w", err)
	}
	s := Summary{
		Config:  m.Config,
		Epoch:   m.Epoch,
		Elapsed: m.Elapsed,
		Crashes: m.Crashes,
		Corpus:  m.Corpus,
	}
	if n := len(m.CovLog); n > 0 {
		s.Edges = m.CovLog[n-1].Edges
	}
	return s, nil
}

func workerDir(id int) string { return fmt.Sprintf("worker-%03d", id) }
