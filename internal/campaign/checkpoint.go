package campaign

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"maps"
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

// Checkpoint format, manifest version 5 — one store.Tree, written atomically
// via PutTree. This comment is the format's one specification.
//
//	manifest.json                    the header: compact JSON of type manifest
//	virgin.bin                       the broker's global virgin map (coverage.Virgin.MarshalBinary)
//	broker.bin                       the broker's corpus, claims, pending imports and crashes
//	worker-NNN/queue/id-NNNNNN.nyx   worker NNN's queue, one file per entry (core.EncodeQueue)
//	worker-NNN/sched.bin             its scheduler metadata and power state (core.EncodeSchedState)
//
// The header holds what a listing, a summary or a person reads — the
// campaign's configuration, clock, counters (the corpus and crashes as
// counts) and coverage log — and its size does not depend on the corpus.
// Everything that grows with the corpus is binary, written and read in one
// pass through the bounded canonical codec of the guest state image
// (guest.StateWriter/StateReader): little-endian, strings and byte strings
// behind a u32 length, booleans 0 or 1, every count checked against the bytes
// left before it sizes an allocation or bounds a loop, bytes after the last
// field an error. A file that decodes is the file its contents encode to.
//
// The queue files are the §5.4 share-folder format (spec.Serialize), so a
// worker directory doubles as a seed corpus; a resume reads them in entry-ID
// order, which is queue order — the order sched.bin's entries are in. A queue
// file usually holds the same bytes as one of broker.bin's corpus entries; a
// resume then takes that entry's decoded input and key for it (keys come from
// broker.bin's key-and-bytes pairs only). Crashes are kept once, in broker.bin.
//
// broker.bin, in order (an input is spec.Serialize bytes with no snapshot
// marker; a key is core.InputKey of the input it travels with):
//
//	u32 n   corpus entries in acceptance order; n = the header's corpus_entries
//	   n × ( u32 worker < workers | bool favored | bool global_fav | bool dominated |
//	         i64 exec_time_ns | i64 size | string key | bytes32 input |
//	         u32 h | h × ( u32 edge | u8 bucket ) )
//	u32 c   top-rated claims, edges strictly ascending and below coverage.MapSize
//	   c × ( u32 edge | i64 fav | string key )
//	u32 w   pending-import queues, one per worker in ID order; w = workers
//	   w × ( u32 p | p × ( bool global_fav | bytes32 input ) )
//	u32 k   deduplicated crashes in discovery order; k = the header's crash_entries
//	   k × ( string kind | string msg | i64 found_at_ns | u64 execs | bytes32 input )
//
// Decoded inputs alias the file they came from (spec.Deserialize), and keep
// those bytes as their entries' QueueEntry.Bytes: a resumed campaign keeps the
// whole of broker.bin, and every queue file that matched no corpus entry,
// reachable for as long as it holds the inputs, which is as long as it runs.
// That is the bytes a copy of each payload would have cost, plus the trace
// digests and headers in between. ResumeTree therefore owns the tree it is
// given; callers must not write its values afterwards. The tree
// CheckpointTree returns shares its queue files and corpus inputs with the
// live entries' bytes in the same way: never write its values either.
//
// Checkpoint I/O goes through the store.Storer abstraction, so the same
// tree lands on a local directory (dir://) or a remote-style object store
// (mem://) unchanged: CheckpointTo/ResumeFrom are the one entry point, and
// store.ForDir maps a plain checkpoint directory onto the dir backend.
//
// Resume relaunches the same target with the same worker count, feeds each
// worker its saved queue as seeds, and restores the broker's global map,
// crash dedup state and coverage log. The resumed campaign is deterministic
// given the checkpoint (worker RNGs derive from (seed, epoch, worker) and
// the epoch bumps on every resume), but is not bit-identical to the same
// campaign run without interruption — mid-campaign mutator RNG state is
// deliberately not serialized, matching how AFL resumes from AFL_AUTORESUME.
// Pool contents are never checkpointed — slots are live VM state, recreated
// on demand after a resume.

// manifestVersion is the one checkpoint format this build writes and reads;
// a tree that declares any other is refused by number (README says how to
// carry an older tree over).
const manifestVersion = 5

// Tree keys beside the per-worker files. ManifestFile is the one a listing
// needs: Summarize reads nothing else.
const (
	ManifestFile = "manifest.json"
	virginFile   = "virgin.bin"
	brokerFile   = "broker.bin"
)

type manifest struct {
	Version       int           `json:"version"`
	Target        string        `json:"target"`
	Policy        int           `json:"policy"`
	PolicyName    string        `json:"policy_name"` // informational
	Workers       int           `json:"workers"`
	Seed          int64         `json:"seed"`
	Epoch         int           `json:"epoch"`
	Rounds        int           `json:"rounds"`
	SyncInterval  time.Duration `json:"sync_interval_ns"`
	SnapshotReuse int           `json:"snapshot_reuse"`
	Sched         int           `json:"sched"`
	SchedName     string        `json:"sched_name"` // informational
	Power         int           `json:"power,omitempty"`
	PowerName     string        `json:"power_name,omitempty"` // informational
	// SnapBudget is the per-worker snapshot-pool byte budget (0: pool
	// disabled).
	SnapBudget int64 `json:"snap_budget,omitempty"`
	Asan       bool  `json:"asan"`
	// SyncMode names the schedule ("lockstep" | "async").
	SyncMode string `json:"sync_mode"`
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
// build's.
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

// config returns the campaign configuration the header records. The header
// is outside input: a raw cast would let an unknown policy silently fuzz as
// the default, so every enum is checked against its range.
func (m *manifest) config() (Config, error) {
	for _, f := range []struct {
		name   string
		v, max int
	}{
		{"policy", m.Policy, int(core.PolicyAggressive)},
		{"sched", m.Sched, int(core.SchedRoundRobin)},
		{"power", m.Power, int(core.PowerAdaptive)},
	} {
		if f.v < 0 || f.v > f.max {
			return Config{}, fmt.Errorf("manifest %s %d out of range 0..%d", f.name, f.v, f.max)
		}
	}
	syncMode, err := ParseSyncMode(m.SyncMode)
	if err != nil {
		return Config{}, err
	}
	cfg := Config{
		Target:        m.Target,
		Workers:       m.Workers,
		Policy:        core.Policy(m.Policy),
		Seed:          m.Seed,
		SyncInterval:  m.SyncInterval,
		SnapshotReuse: m.SnapshotReuse,
		Sched:         core.Sched(m.Sched),
		Power:         core.Power(m.Power),
		SnapBudget:    m.SnapBudget,
		Asan:          m.Asan,
		SyncMode:      syncMode,
	}.withDefaults()
	if len(m.WorkerEpochs) > cfg.Workers {
		return Config{}, fmt.Errorf("%d worker epochs for %d workers", len(m.WorkerEpochs), cfg.Workers)
	}
	return cfg, nil
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
	c.broker.encode(&bw)
	t[brokerFile] = bw.Bytes()
	m := manifest{
		Version:       manifestVersion,
		Target:        c.cfg.Target,
		Policy:        int(c.cfg.Policy),
		PolicyName:    c.cfg.Policy.String(),
		Workers:       c.cfg.Workers,
		Seed:          c.cfg.Seed,
		Epoch:         c.epoch,
		Rounds:        c.rounds,
		SyncInterval:  c.cfg.SyncInterval,
		SnapshotReuse: c.cfg.SnapshotReuse,
		Sched:         int(c.cfg.Sched),
		SchedName:     c.cfg.Sched.String(),
		Power:         int(c.cfg.Power),
		PowerName:     c.cfg.Power.String(),
		SnapBudget:    c.cfg.SnapBudget,
		Asan:          c.cfg.Asan,
		SyncMode:      c.cfg.SyncMode.String(),
		Elapsed:       c.Elapsed(),
		Published:     c.broker.published,
		Deduped:       c.broker.deduped,
		Corpus:        len(c.broker.corpus),
		Crashes:       len(c.broker.crashes),
		CovLog:        c.broker.covLog,
	}
	for _, w := range c.workers {
		m.WorkerEpochs = append(m.WorkerEpochs, w.epoch)
	}
	if t[ManifestFile], err = json.Marshal(&m); err != nil {
		return nil, fmt.Errorf("campaign: checkpoint: %w", err)
	}
	return t, nil
}

// encode appends the broker.bin form of b (the layout comment above) to w.
// Quiesced callers only. Every corpus entry a worker published carries the
// key it was published or re-published under (QueueEntry.Key), and its bytes
// once any checkpoint has written them (QueueEntry.Bytes), so a corpus entry
// is hashed never and encoded once in its life.
func (b *broker) encode(w *guest.StateWriter) {
	var buf []byte // pending imports and crashes are encoded here, then copied behind their length
	input := func(in *spec.Input) {
		buf = spec.AppendSerialize(buf[:0], in)
		w.Bytes32(buf)
	}
	size := 16 + 4*len(b.pending) + len(b.topRated)*(claimMinLen+32) // a key is a 32-byte digest
	for _, be := range b.corpus {
		size += corpusEntryMinLen + len(be.Entry.Key()) + len(be.Entry.Bytes()) + 5*len(be.Entry.Cov)
	}
	for _, q := range b.pending {
		for _, it := range q {
			size += pendingMinLen + spec.EncodedLen(it.input)
		}
	}
	for _, cr := range b.crashes {
		size += crashMinLen + len(cr.Kind) + len(cr.Msg) + spec.EncodedLen(cr.Input)
	}
	w.Grow(size)
	w.U32(uint32(len(b.corpus)))
	for _, be := range b.corpus {
		e := be.Entry
		w.U32(uint32(be.Worker))
		w.Bool(e.Favored)
		w.Bool(be.GlobalFav)
		w.Bool(e.GloballyDominated)
		w.I64(int64(e.ExecTime))
		w.Int(e.Size)
		w.String(e.Key())
		w.Bytes32(e.Bytes())
		w.U32(uint32(len(e.Cov)))
		for _, h := range e.Cov {
			w.U32(h.Index)
			w.U8(h.Bucket)
		}
	}
	w.U32(uint32(len(b.topRated)))
	for _, idx := range slices.Sorted(maps.Keys(b.topRated)) {
		w.U32(idx)
		w.I64(b.topRated[idx].fav)
		w.String(b.topRated[idx].key)
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
	w.U32(uint32(len(b.crashes)))
	for _, cr := range b.crashes {
		w.String(string(cr.Kind))
		w.String(cr.Msg)
		w.I64(int64(cr.FoundAt))
		w.U64(cr.Execs)
		input(cr.Input)
	}
}

// The fewest bytes one element of each broker.bin sequence takes (empty
// strings, an input of no ops, an empty trace): what bounds a count.
const (
	inputMinLen       = 4 + 10 // bytes32 length + the bytecode header
	corpusEntryMinLen = 4 + 3 + 8 + 8 + 4 + inputMinLen + 4
	claimMinLen       = 4 + 8 + 4
	pendingMinLen     = 1 + inputMinLen
	crashMinLen       = 4 + 4 + 8 + 8 + inputMinLen
)

// decodeBroker rebuilds a broker for a campaign of workers workers from its
// broker.bin form. raw is outside input: besides what the codec checks,
// worker indices outside the campaign, claims out of order or range, empty
// keys and inputs that are not plain bytecode are errors, so only bytes
// encode would write come back as a broker, its inputs and Bytes aliasing raw.
func decodeBroker(raw []byte, workers int) (*broker, error) {
	r := guest.NewStateReader(raw)
	ok := func() bool { return r.Err() == nil }
	decode := func(enc []byte, what string, i int) *spec.Input {
		in, err := spec.Deserialize(enc)
		if err != nil {
			r.Fail("%s %d: %v", what, i, err)
		} else if in.SnapshotAt >= 0 {
			r.Fail("%s %d: input carries a snapshot marker", what, i)
		}
		return in
	}
	key := func(what string, i int) string {
		k := r.String()
		if k == "" {
			r.Fail("%s %d: empty content key", what, i)
		}
		return k
	}

	b := newBroker()
	n := r.Count(corpusEntryMinLen)
	entries := make([]core.QueueEntry, n)
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
		k, enc := key("corpus entry", i), r.View32()
		e.Input = decode(enc, "corpus entry", i)
		e.SetEncoding(k, enc)
		e.Cov = make([]coverage.BucketHit, r.Count(5))
		for j := range e.Cov {
			e.Cov[j] = coverage.BucketHit{Index: r.U32(), Bucket: r.U8()}
		}
		b.corpus = append(b.corpus, be)
	}
	nc := r.Count(claimMinLen)
	for i, prev := 0, uint32(0); i < nc && ok(); i++ {
		idx, cl := r.U32(), topClaim{fav: r.I64(), key: key("claim", i)}
		if idx >= coverage.MapSize || i > 0 && idx <= prev {
			r.Fail("claim %d: edge %d after %d", i, idx, prev)
			break
		}
		prev = idx
		b.topRated[idx] = cl
		b.claimEdges[cl.key] = append(b.claimEdges[cl.key], idx)
		b.claimWins[cl.key]++
	}
	// Re-point surviving claims at the restored corpus entries so a later
	// displacement can still demote them; the workers' live re-imported
	// copies re-bind as duplicate publications at their first exchange.
	for i := 0; i < len(b.corpus) && ok(); i++ {
		if e := b.corpus[i].Entry; b.claimWins[e.Key()] > 0 {
			b.claimants[e.Key()] = append(b.claimants[e.Key()], e)
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
		for i := 0; i < np && ok(); i++ {
			gf := r.Bool()
			b.pending[wid] = append(b.pending[wid], importItem{input: decode(r.View32(), "pending import", i), globalFav: gf})
		}
	}
	nk := r.Count(crashMinLen)
	for i := 0; i < nk && ok(); i++ {
		cr := core.Crash{
			Kind:    guest.CrashKind(r.String()),
			Msg:     r.String(),
			FoundAt: time.Duration(r.I64()),
			Execs:   r.U64(),
			Input:   decode(r.View32(), "crash", i),
		}
		b.crashSeen[cr.Key()] = true
		b.crashes = append(b.crashes, cr)
	}
	return b, r.Done()
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
	cfg, err := m.config()
	if err != nil {
		return nil, err
	}
	virgin, ok := t[virginFile]
	if !ok {
		return nil, fmt.Errorf("checkpoint has no %s", virginFile)
	}
	raw, ok := t[brokerFile]
	if !ok {
		return nil, fmt.Errorf("checkpoint has no %s", brokerFile)
	}
	br, err := decodeBroker(raw, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", brokerFile, err)
	}
	if len(br.corpus) != m.Corpus || len(br.crashes) != m.Crashes {
		return nil, fmt.Errorf("%s holds %d corpus entries and %d crashes, the manifest counts %d and %d",
			brokerFile, len(br.corpus), len(br.crashes), m.Corpus, m.Crashes)
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

	corpus := make(map[uint32]*core.QueueEntry, len(br.corpus))
	for _, be := range br.corpus {
		corpus[crc32.ChecksumIEEE(be.Entry.Bytes())] = be.Entry
	}
	// One pass files every worker-NNN/queue/id-N.nyx; sorted by N, they are
	// in queue order.
	dirs := make([]string, cfg.Workers)
	for i := range dirs {
		dirs[i] = workerDir(i)
	}
	type queueFile struct {
		id  int
		key string
	}
	queues := make([][]queueFile, cfg.Workers)
	for key := range t {
		dir, rest, _ := strings.Cut(key, "/")
		wid, werr := strconv.Atoi(strings.TrimPrefix(dir, "worker-"))
		num, isQueue := strings.CutPrefix(rest, "queue/id-")
		num, isNyx := strings.CutSuffix(num, ".nyx")
		id, err := strconv.Atoi(num)
		if werr == nil && wid >= 0 && wid < len(dirs) && dir == dirs[wid] && isQueue && isNyx && err == nil && id >= 0 {
			queues[wid] = append(queues[wid], queueFile{id, key})
		}
	}
	seedsFor := func(i int) (workerSeeds, error) {
		if len(queues[i]) == 0 {
			return workerSeeds{}, nil // worker had an empty queue; fall back to bundled seeds
		}
		slices.SortFunc(queues[i], func(a, b queueFile) int {
			if a.id != b.id {
				return cmp.Compare(a.id, b.id)
			}
			return strings.Compare(a.key, b.key) // id-7.nyx beside id-000007.nyx: not a tree CheckpointTree writes
		})
		// A checkpoint is written whole: a queue file that does not decode is
		// a damaged checkpoint, not a seed to skip.
		ws := workerSeeds{queue: make([]*core.QueueEntry, len(queues[i]))}
		entries := make([]core.QueueEntry, len(queues[i]))
		for j, f := range queues[i] {
			enc, e := t[f.key], &entries[j]
			if be := corpus[crc32.ChecksumIEEE(enc)]; be != nil && bytes.Equal(be.Bytes(), enc) {
				e.Input = be.Input
				e.SetEncoding(be.Key(), be.Bytes())
			} else {
				in, err := spec.Deserialize(enc)
				if err != nil {
					return ws, fmt.Errorf("%s: %w", f.key, err)
				}
				if e.Input = in; in.SnapshotAt < 0 {
					e.SetEncoding("", enc)
				} else {
					in.SnapshotAt = -1 // a seed runs whole: enc, marker and all, is not its bytes
				}
			}
			ws.queue[j] = e
		}
		key := dirs[i] + "/" + core.SchedStateFile
		raw, ok := t[key]
		if !ok {
			return ws, fmt.Errorf("checkpoint has no %s", key)
		}
		var err error
		if ws.meta, ws.power, err = core.DecodeSchedState(raw); err != nil {
			return ws, fmt.Errorf("%s: %w", key, err)
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
// paying for a full resume (no VM launch, no corpus re-import).
type Summary struct {
	Target  string        `json:"target"`
	Workers int           `json:"workers"`
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
		Target:  m.Target,
		Workers: m.Workers,
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
