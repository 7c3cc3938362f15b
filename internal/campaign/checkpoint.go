package campaign

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/guest"
	"repro/internal/spec"
	"repro/internal/store"
)

// Checkpoint layout (one store.Tree, written atomically via PutTree):
//
//	manifest.json     campaign config, counters, crash metadata, coverage log
//	virgin.bin        the broker's global virgin map (sparse encoding)
//	worker-000/       worker 0's corpus via core.EncodeCorpus (queue/ + crashes/)
//	worker-001/       ...
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

// manifestVersion is the checkpoint format every campaign writes,
// whatever its sync mode. ResumeTree reads it and the previous version
// (3, which predates sync_mode, worker_epochs and pending_imports and
// resumes in lockstep with none of them); anything older is refused. Pool
// contents are never checkpointed — slots are live VM state, recreated on
// demand after a resume.
const manifestVersion = 4

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
	// Elapsed is the campaign's cumulative virtual time at checkpoint;
	// the resumed campaign's clock (and hence its coverage-log and crash
	// timestamps) continues from here instead of restarting at zero.
	Elapsed time.Duration `json:"elapsed_ns"`

	Published uint64          `json:"published"`
	Deduped   uint64          `json:"deduped"`
	Crashes   []manifestCrash `json:"crashes"`
	CovLog    []manifestPoint `json:"cov_log"`
	Corpus    []manifestEntry `json:"corpus"`
	// TopRated is the broker's global favored-competition digest: per
	// edge, the favFactor and content key of the cheapest published claim.
	TopRated []manifestClaim `json:"top_rated,omitempty"`

	// SyncMode names the schedule ("lockstep" | "async"); version-3
	// manifests lack it and resume in lockstep.
	SyncMode string `json:"sync_mode"`
	// WorkerEpochs records each worker's epoch counter.
	WorkerEpochs []int `json:"worker_epochs,omitempty"`
	// Pending preserves the workers' bounded import queues — entries
	// published by others that a worker had not yet pulled at checkpoint
	// time (an async campaign's final flushes race each other; a lockstep
	// round leaves none) — so redistribution survives the resume.
	Pending []manifestPending `json:"pending_imports,omitempty"`
}

// manifestPending is one pending import: the receiving worker and the
// redistributed input.
type manifestPending struct {
	Worker    int    `json:"worker"`
	Input     string `json:"input_b64"`
	GlobalFav bool   `json:"global_fav,omitempty"`
}

// manifestEntry preserves the broker's accepted-corpus history (provenance
// + input) so CorpusSize and the published/deduped counters stay mutually
// consistent across resumes, plus the scheduler-facing metadata the global
// favored competition reads. The trace digest is packed binary (5 bytes per
// edge, base64) rather than per-hit JSON: the manifest holds one digest
// per accepted entry, and a long campaign would otherwise pay
// O(entries x edges) in indented object syntax on every checkpoint.
type manifestEntry struct {
	Worker    int           `json:"worker"`
	Input     string        `json:"input_b64"`
	Favored   bool          `json:"favored,omitempty"`
	GlobalFav bool          `json:"global_fav,omitempty"`
	Dominated bool          `json:"dominated,omitempty"`
	ExecTime  time.Duration `json:"exec_time_ns,omitempty"`
	Size      int           `json:"size,omitempty"`
	Cov       string        `json:"cov_b64,omitempty"`
}

// encodeHits packs a bucketed trace digest as 5 bytes per edge
// (little-endian index + bucket), base64-encoded for the manifest.
func encodeHits(hits []coverage.BucketHit) string {
	buf := make([]byte, 0, 5*len(hits))
	for _, h := range hits {
		var b [5]byte
		binary.LittleEndian.PutUint32(b[:4], h.Index)
		b[4] = h.Bucket
		buf = append(buf, b[:]...)
	}
	return base64.StdEncoding.EncodeToString(buf)
}

// decodeHits unpacks an encodeHits digest.
func decodeHits(s string) ([]coverage.BucketHit, error) {
	if s == "" {
		return nil, nil
	}
	raw, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, err
	}
	if len(raw)%5 != 0 {
		return nil, fmt.Errorf("trace digest length %d not a multiple of 5", len(raw))
	}
	hits := make([]coverage.BucketHit, 0, len(raw)/5)
	for i := 0; i+5 <= len(raw); i += 5 {
		hits = append(hits, coverage.BucketHit{
			Index:  binary.LittleEndian.Uint32(raw[i : i+4]),
			Bucket: raw[i+4],
		})
	}
	return hits, nil
}

// manifestClaim is one edge's entry in the global top-rated digest.
type manifestClaim struct {
	Edge uint32 `json:"edge"`
	Fav  int64  `json:"fav"`
	Key  string `json:"key"`
}

type manifestCrash struct {
	Kind    string        `json:"kind"`
	Msg     string        `json:"msg"`
	FoundAt time.Duration `json:"found_at_ns"`
	Execs   uint64        `json:"execs"`
	Input   string        `json:"input_b64"`
}

type manifestPoint struct {
	T     time.Duration `json:"t_ns"`
	Edges int           `json:"edges"`
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
	t := store.Tree{}
	for _, w := range c.workers {
		wd := workerDir(w.id)
		for rel, data := range w.fz.EncodeCorpus() {
			t[wd+"/"+rel] = data
		}
		// Scheduler metadata rides next to the corpus so a resumed worker
		// re-attaches pick counts, trim state and depth instead of
		// rediscovering them.
		sm, err := json.Marshal(w.fz.SchedMeta())
		if err != nil {
			return nil, fmt.Errorf("campaign: checkpoint worker %d: %w", w.id, err)
		}
		t[wd+"/"+core.SchedMetaFile] = sm
		// Power-schedule state (per-edge pick frequencies) rides along so
		// long-horizon energy shaping survives the resume.
		pm, err := json.Marshal(w.fz.PowerState())
		if err != nil {
			return nil, fmt.Errorf("campaign: checkpoint worker %d: %w", w.id, err)
		}
		t[wd+"/"+core.PowerMetaFile] = pm
	}
	raw, err := c.broker.mergedVirgin().MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("campaign: checkpoint: %w", err)
	}
	t["virgin.bin"] = raw
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
	}
	for _, cr := range c.broker.crashes {
		m.Crashes = append(m.Crashes, manifestCrash{
			Kind:    string(cr.Kind),
			Msg:     cr.Msg,
			FoundAt: cr.FoundAt,
			Execs:   cr.Execs,
			Input:   base64.StdEncoding.EncodeToString(spec.Serialize(cr.Input)),
		})
	}
	for _, p := range c.broker.covLog {
		m.CovLog = append(m.CovLog, manifestPoint{T: p.T, Edges: p.Edges})
	}
	for _, be := range c.broker.corpus {
		m.Corpus = append(m.Corpus, manifestEntry{
			Worker:    be.Worker,
			Input:     base64.StdEncoding.EncodeToString(spec.Serialize(be.Entry.Input)),
			Favored:   be.Entry.Favored,
			GlobalFav: be.GlobalFav,
			Dominated: be.Entry.GloballyDominated,
			ExecTime:  be.Entry.ExecTime,
			Size:      be.Entry.Size,
			Cov:       encodeHits(be.Entry.Cov),
		})
	}
	var edges []uint32
	for si := range c.broker.shards {
		for idx := range c.broker.shards[si].topRated {
			edges = append(edges, idx)
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i] < edges[j] })
	for _, idx := range edges {
		cl := c.broker.shards[shardFor(idx)].topRated[idx]
		m.TopRated = append(m.TopRated, manifestClaim{Edge: idx, Fav: cl.fav, Key: cl.key})
	}
	for _, w := range c.workers {
		m.WorkerEpochs = append(m.WorkerEpochs, w.epoch)
	}
	for wid, q := range c.broker.pending {
		for _, it := range q {
			m.Pending = append(m.Pending, manifestPending{
				Worker:    wid,
				Input:     base64.StdEncoding.EncodeToString(spec.Serialize(it.input)),
				GlobalFav: it.globalFav,
			})
		}
	}
	enc, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("campaign: checkpoint: %w", err)
	}
	t["manifest.json"] = enc
	return t, nil
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
func ResumeTree(t store.Tree) (*Campaign, error) {
	enc, ok := t["manifest.json"]
	if !ok {
		return nil, fmt.Errorf("campaign: resume: checkpoint has no manifest.json")
	}
	var m manifest
	if err := json.Unmarshal(enc, &m); err != nil {
		return nil, fmt.Errorf("campaign: resume: bad manifest: %w", err)
	}
	if m.Version != manifestVersion && m.Version != manifestVersion-1 {
		return nil, fmt.Errorf("campaign: resume: manifest version %d is not supported (this build reads %d and %d)",
			m.Version, manifestVersion-1, manifestVersion)
	}
	// The manifest is outside input: a raw cast would let an unknown policy
	// silently fuzz as the default, and a stray worker index would file
	// corpus provenance or imports under a worker that does not exist.
	for _, f := range []struct {
		name   string
		v, max int
	}{
		{"policy", m.Policy, int(core.PolicyAggressive)},
		{"sched", m.Sched, int(core.SchedRoundRobin)},
		{"power", m.Power, int(core.PowerAdaptive)},
	} {
		if f.v < 0 || f.v > f.max {
			return nil, fmt.Errorf("campaign: resume: manifest %s %d out of range 0..%d", f.name, f.v, f.max)
		}
	}
	syncMode, err := ParseSyncMode(m.SyncMode)
	if err != nil {
		return nil, fmt.Errorf("campaign: resume: %w", err)
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
	workerInRange := func(what string, i, worker int) error {
		if worker < 0 || worker >= cfg.Workers {
			return fmt.Errorf("campaign: resume: %s %d names worker %d of %d", what, i, worker, cfg.Workers)
		}
		return nil
	}
	if len(m.WorkerEpochs) > cfg.Workers {
		return nil, fmt.Errorf("campaign: resume: %d worker epochs for %d workers", len(m.WorkerEpochs), cfg.Workers)
	}

	br := newBroker()
	raw, ok := t["virgin.bin"]
	if !ok {
		return nil, fmt.Errorf("campaign: resume: checkpoint has no virgin.bin")
	}
	var restored coverage.Virgin
	if err := restored.UnmarshalBinary(raw); err != nil {
		return nil, fmt.Errorf("campaign: resume: %w", err)
	}
	// Scatter the restored map across the broker's edge shards (the
	// inverse of mergedVirgin); old single-map checkpoints load the same
	// way, since the shards are a pure partition of the index space.
	br.mergeVirginAll(&restored)
	br.edgesTotal = restored.Edges()
	br.published = m.Published
	br.deduped = m.Deduped
	for _, mc := range m.Crashes {
		in, err := decodeInput(mc.Input)
		if err != nil {
			return nil, fmt.Errorf("campaign: resume: crash %q: %w", mc.Kind, err)
		}
		cr := core.Crash{
			Kind:    guest.CrashKind(mc.Kind),
			Msg:     mc.Msg,
			Input:   in,
			FoundAt: mc.FoundAt,
			Execs:   mc.Execs,
		}
		br.crashSeen[cr.Key()] = true
		br.crashes = append(br.crashes, cr)
	}
	for i, me := range m.Corpus {
		if err := workerInRange("corpus entry", i, me.Worker); err != nil {
			return nil, err
		}
		in, err := decodeInput(me.Input)
		if err != nil {
			return nil, fmt.Errorf("campaign: resume: corpus entry %d: %w", i, err)
		}
		// Rebuild the full entry the global favored competition reads —
		// favored bit, trace digest, exec time and size.
		hits, err := decodeHits(me.Cov)
		if err != nil {
			return nil, fmt.Errorf("campaign: resume: corpus entry %d: %w", i, err)
		}
		br.corpus = append(br.corpus, brokerEntry{
			Worker: me.Worker,
			Entry: &core.QueueEntry{
				ID:                i,
				Input:             in,
				Favored:           me.Favored,
				GloballyDominated: me.Dominated,
				ExecTime:          me.ExecTime,
				Size:              me.Size,
				Cov:               hits,
			},
			GlobalFav: me.GlobalFav,
			key:       core.InputKey(in),
		})
	}
	for _, cl := range m.TopRated {
		if cl.Edge >= coverage.MapSize {
			continue
		}
		sh := &br.shards[shardFor(cl.Edge)]
		sh.topRated[cl.Edge] = topClaim{fav: cl.Fav, key: cl.Key}
		sh.claimEdges[cl.Key] = append(sh.claimEdges[cl.Key], cl.Edge)
		br.claimWins[cl.Key]++
	}
	// Re-point surviving claims at the restored corpus entries so a later
	// displacement can still demote them; the workers' live re-imported
	// copies re-bind as duplicate publications at their first exchange.
	for _, be := range br.corpus {
		if br.claimWins[be.key] > 0 {
			br.claimants[be.key] = append(br.claimants[be.key], be.Entry)
		}
	}
	for _, p := range m.CovLog {
		br.covLog = append(br.covLog, core.CoveragePoint{T: p.T, Edges: p.Edges})
		br.lastSample = p.T
	}

	seedsFor := func(i int) (workerSeeds, error) {
		wd := workerDir(i)
		queue := make(map[string][]byte)
		for key, data := range t {
			if strings.HasPrefix(key, wd+"/queue/") {
				queue[strings.TrimPrefix(key, wd+"/")] = data
			}
		}
		if len(queue) == 0 {
			return workerSeeds{}, nil // worker had an empty queue; fall back to bundled seeds
		}
		seeds, err := core.DecodeCorpus(queue)
		if err != nil {
			return workerSeeds{}, err
		}
		var meta []core.EntryMeta
		if raw, ok := t[wd+"/"+core.SchedMetaFile]; ok {
			if meta, err = core.DecodeSchedMeta(raw); err != nil {
				return workerSeeds{}, err
			}
		}
		var power *core.PowerMeta
		if raw, ok := t[wd+"/"+core.PowerMetaFile]; ok {
			if power, err = core.DecodePowerMeta(raw); err != nil {
				return workerSeeds{}, err
			}
		}
		return workerSeeds{seeds: seeds, meta: meta, power: power}, nil
	}
	br.timeBase = m.Elapsed
	c, err := newCampaign(cfg, m.Epoch+1, seedsFor, br)
	if err != nil {
		return nil, err
	}
	c.rounds = m.Rounds
	c.baseElapsed = m.Elapsed
	for i, ep := range m.WorkerEpochs {
		c.workers[i].epoch = ep
	}
	// Reload the pending-import queues; each worker pulls its queue at its
	// first exchange after the resume.
	for i, mp := range m.Pending {
		if err := workerInRange("pending import", i, mp.Worker); err != nil {
			return nil, err
		}
		in, err := decodeInput(mp.Input)
		if err != nil {
			return nil, fmt.Errorf("campaign: resume: pending import %d: %w", i, err)
		}
		br.pending[mp.Worker] = append(br.pending[mp.Worker], importItem{input: in, globalFav: mp.GlobalFav})
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

// Summarize decodes a checkpoint tree's manifest into a Summary.
func Summarize(t store.Tree) (Summary, error) {
	enc, ok := t["manifest.json"]
	if !ok {
		return Summary{}, fmt.Errorf("campaign: summarize: checkpoint has no manifest.json")
	}
	var m manifest
	if err := json.Unmarshal(enc, &m); err != nil {
		return Summary{}, fmt.Errorf("campaign: summarize: bad manifest: %w", err)
	}
	s := Summary{
		Target:  m.Target,
		Workers: m.Workers,
		Epoch:   m.Epoch,
		Elapsed: m.Elapsed,
		Crashes: len(m.Crashes),
		Corpus:  len(m.Corpus),
	}
	if n := len(m.CovLog); n > 0 {
		s.Edges = m.CovLog[n-1].Edges
	}
	return s, nil
}

func decodeInput(b64 string) (*spec.Input, error) {
	raw, err := base64.StdEncoding.DecodeString(b64)
	if err != nil {
		return nil, err
	}
	return spec.Deserialize(raw)
}

func workerDir(id int) string { return fmt.Sprintf("worker-%03d", id) }
