// Package service runs many fuzzing campaigns concurrently under one
// manager — the campaign-service mode layered over internal/campaign.
//
// Each submitted campaign gets a dedicated actor goroutine that owns its
// *campaign.Campaign exclusively and advances it in slices: one lockstep
// round (SyncInterval of virtual time) for the default deterministic mode,
// or a few epochs at a time for sync_mode "async" (coarser slices amortize
// the final flush each async RunFor ends with). Control operations
// (pause, resume, checkpoint, delete) are function requests posted to the
// actor and executed between slices, so campaign state is never touched
// concurrently and every externally visible boundary is a quiesced sync
// boundary — exactly the points where a campaign is checkpointable.
//
// Campaigns persist through a store.Storer (dir:// or mem://; see package
// store): the manager auto-checkpoints each running campaign every
// CheckpointEvery of virtual time, on pause, and on completion. A fresh
// manager pointed at the same store (or at a store the trees were copied
// to with store.CopyTree) recovers the stored campaigns and resumes them
// with their virtual clock and coverage continuing monotonically from the
// checkpoint.
//
// Observability is an ordered per-campaign event feed (state changes,
// coverage-over-time points, deduplicated crashes). Every subscriber reads
// the same ordered log from any starting sequence number, so each event —
// in particular each globally deduplicated crash — is delivered to each
// subscriber exactly once.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/store"
)

// DefaultCheckpointEvery is the auto-checkpoint cadence in campaign
// virtual time when Config.CheckpointEvery is zero.
const DefaultCheckpointEvery = 5 * time.Second

// DefaultPrefix is where campaign trees live in the store: one tree named
// "<prefix>/<id>" per campaign.
const DefaultPrefix = "campaigns"

// budgetKey is the service's one key in a checkpoint tree (ResumeTree
// ignores it): the budget, {"duration_ns": N}. The configuration is the
// manifest's.
const budgetKey = "service.json"

// maxSpecBytes bounds a request body: a spec is a few hundred bytes.
const maxSpecBytes = 4 << 10

// State is a campaign's lifecycle state.
type State string

const (
	// StateRunning: the actor is advancing the campaign.
	StateRunning State = "running"
	// StatePaused: the actor is alive (VMs warm) but not fuzzing.
	StatePaused State = "paused"
	// StateStored: recovered from the store; no actor or VMs until the
	// campaign is resumed.
	StateStored State = "stored"
	// StateDone: the campaign reached its duration; final checkpoint
	// written.
	StateDone State = "done"
	// StateFailed: a worker error stopped the campaign.
	StateFailed State = "failed"
)

func (s State) terminal() bool { return s == StateDone || s == StateFailed }

// Spec describes one campaign submission: an id, a budget and the
// campaign's configuration. Its JSON keys and enum names are
// campaign.Config's, the nyx-net flags' vocabulary; durations are JSON
// nanoseconds.
type Spec struct {
	// ID names the campaign (assigned by the manager when empty).
	ID string `json:"id,omitempty"`
	// Duration is the total virtual fuzzing time, cumulative across
	// checkpoint/resume cycles (required).
	Duration time.Duration `json:"duration_ns"`
	campaign.Config
}

// budget is what budgetKey holds and what POST /api/campaigns/{id}/resume
// takes: a campaign's total virtual time.
type budget struct {
	Duration time.Duration `json:"duration_ns"`
}

// decodeSpec reads one JSON spec. It sets the API's one default that is not
// a zero value: a spec that names no policy runs aggressive. A key left out
// otherwise takes Config's zero value (scheduler afl, power off, lockstep;
// one worker and the default sync interval once launched).
func decodeSpec(r io.Reader) (Spec, error) {
	spec := Spec{Config: campaign.Config{Policy: core.PolicyAggressive}}
	err := json.NewDecoder(r).Decode(&spec)
	return spec, err
}

// validate is the one check a spec passes before it launches: a target, a
// positive budget and a configuration Config.Validate accepts.
func (s Spec) validate() error {
	if s.Target == "" {
		return errors.New("service: spec has no target")
	}
	if s.Duration <= 0 {
		return errors.New("service: spec needs a positive duration_ns")
	}
	return s.Config.Validate()
}

// Status is a point-in-time snapshot of one campaign.
type Status struct {
	ID string `json:"id"`
	// Spec is the campaign's effective configuration: what it runs with,
	// defaults filled in (a recovered campaign's is its manifest's).
	Spec  Spec   `json:"spec"`
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
	// Elapsed is the campaign's cumulative virtual time (monotone across
	// checkpoint/resume cycles).
	Elapsed time.Duration `json:"elapsed_ns"`
	Edges   int           `json:"edges"`
	Execs   uint64        `json:"execs"`
	Corpus  int           `json:"corpus"`
	Crashes int           `json:"crashes"`
	Rounds  int           `json:"rounds"`
	Workers int           `json:"workers"`
	// CheckpointedAt is the virtual time of the last checkpoint written to
	// the store (zero if none yet).
	CheckpointedAt time.Duration `json:"checkpointed_at_ns,omitempty"`
}

// Event is one entry in a campaign's ordered feed.
type Event struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"` // state | coverage | crash
	// T is the campaign virtual time the event describes.
	T     time.Duration `json:"t_ns"`
	State State         `json:"state,omitempty"`
	Edges int           `json:"edges,omitempty"`
	Crash *CrashInfo    `json:"crash,omitempty"`
}

// CrashInfo is the crash-feed payload (one per globally deduplicated
// crash, in discovery order).
type CrashInfo struct {
	Kind    string        `json:"kind"`
	Msg     string        `json:"msg"`
	FoundAt time.Duration `json:"found_at_ns"`
	Execs   uint64        `json:"execs"`
}

// Config configures a Manager.
type Config struct {
	// Store persists campaign checkpoints; nil disables persistence
	// (campaigns are lost when the manager goes away).
	Store store.Storer
	// Prefix is the store namespace for campaign trees (DefaultPrefix
	// when empty).
	Prefix string
	// CheckpointEvery is the auto-checkpoint cadence in campaign virtual
	// time (DefaultCheckpointEvery when zero; negative disables
	// auto-checkpointing, leaving pause/completion checkpoints only).
	CheckpointEvery time.Duration
}

// Manager runs campaigns. Create with New, recover persisted campaigns
// with Recover, then drive it directly or over HTTP via Handler.
type Manager struct {
	cfg Config

	mu        sync.Mutex
	campaigns map[string]*managed
	nextID    int
	closed    bool
	wg        sync.WaitGroup
}

// New returns an empty manager.
func New(cfg Config) *Manager {
	if cfg.Prefix == "" {
		cfg.Prefix = DefaultPrefix
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = DefaultCheckpointEvery
	}
	return &Manager{cfg: cfg, campaigns: make(map[string]*managed)}
}

// managed is one campaign slot. The actor goroutine (loop) owns the
// *campaign.Campaign exclusively; everything under mu is the shared
// observable state.
type managed struct {
	id string
	m  *Manager

	// reqs carries control closures to the actor; done closes when the
	// actor exits (and is pre-closed for stored campaigns, which have no
	// actor).
	reqs chan func(c *campaign.Campaign)
	done chan struct{}

	mu     sync.Mutex
	status Status
	events []Event
	wake   chan struct{} // closed+replaced on every event append

	// actor-owned fields (no lock: only the actor goroutine touches them
	// while it is alive).
	paused   bool
	stopping bool
	covSeen  int
	crSeen   int
	lastCkpt time.Duration
}

var (
	errNotLive = errors.New("service: campaign is not live")
	errClosed  = errors.New("service: manager is closed")
)

// ErrNoCampaign is wrapped by lookups of unknown campaign ids.
var ErrNoCampaign = errors.New("no such campaign")

// treeName returns the store tree name for a campaign id.
func (m *Manager) treeName(id string) string { return m.cfg.Prefix + "/" + id }

// Submit validates spec, launches its workers and starts fuzzing. The
// returned status reflects the freshly started campaign.
func (m *Manager) Submit(spec Spec) (Status, error) {
	if err := spec.validate(); err != nil {
		return Status{}, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return Status{}, errClosed
	}
	if spec.ID == "" {
		for {
			m.nextID++
			id := fmt.Sprintf("c-%04d", m.nextID)
			if _, taken := m.campaigns[id]; !taken {
				spec.ID = id
				break
			}
		}
	} else if err := validID(spec.ID); err != nil {
		m.mu.Unlock()
		return Status{}, err
	} else if _, taken := m.campaigns[spec.ID]; taken {
		m.mu.Unlock()
		return Status{}, fmt.Errorf("service: campaign %q already exists", spec.ID)
	}
	// Reserve the slot before the (slow) worker launch so a concurrent
	// submit cannot steal the id; remove it again on launch failure.
	g := &managed{id: spec.ID, m: m, wake: make(chan struct{})}
	g.status = Status{ID: spec.ID, Spec: spec, State: StateRunning}
	m.campaigns[spec.ID] = g
	m.mu.Unlock()

	c, err := campaign.New(spec.Config)
	if err != nil {
		m.mu.Lock()
		delete(m.campaigns, spec.ID)
		m.mu.Unlock()
		return Status{}, err
	}
	if err := m.start(g, c); err != nil {
		m.mu.Lock()
		delete(m.campaigns, spec.ID)
		m.mu.Unlock()
		return Status{}, err
	}
	return g.snapshot(), nil
}

// validID keeps campaign ids usable as single store-key segments.
func validID(id string) error {
	if id == "" || strings.ContainsAny(id, "/\\") || id == "." || id == ".." {
		return fmt.Errorf("service: invalid campaign id %q", id)
	}
	return nil
}

// start spawns the actor for a live campaign, its status refreshed from c.
// The wg.Add is serialized with Close's closed-flag flip under m.mu, so no
// actor starts after Close begins waiting.
func (m *Manager) start(g *managed, c *campaign.Campaign) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return errClosed
	}
	m.wg.Add(1)
	m.mu.Unlock()
	g.mu.Lock()
	g.status = g.statusFrom(c)
	g.mu.Unlock()
	g.reqs = make(chan func(*campaign.Campaign))
	g.done = make(chan struct{})
	g.covSeen, g.crSeen = 0, 0
	g.lastCkpt = c.Elapsed()
	g.paused, g.stopping = false, false
	g.setState(StateRunning, c.Elapsed())
	go g.loop(c)
	return nil
}

// loop is the actor: it alternates control requests with one-round slices
// until the campaign completes, fails, or is stopped.
func (g *managed) loop(c *campaign.Campaign) {
	defer g.m.wg.Done()
	defer close(g.done)
	chunk := c.Config().SyncInterval
	if c.Config().SyncMode == campaign.SyncAsync {
		// An async RunFor ends with a final flush exchange per worker, and
		// the workers that finish first idle until the last one does;
		// slicing a few epochs at a time amortizes that while keeping
		// control requests responsive.
		chunk *= 4
	}
	for {
		if g.paused && !g.stopping {
			req, ok := <-g.reqs
			if !ok {
				return
			}
			req(c)
			continue
		}
		select {
		case req, ok := <-g.reqs:
			if !ok {
				return
			}
			req(c)
			continue
		default:
		}
		if g.stopping {
			return
		}
		if c.Elapsed() >= g.duration() {
			if err := g.checkpoint(c); err != nil {
				g.fail(c, fmt.Errorf("final checkpoint: %w", err))
				return
			}
			g.setState(StateDone, c.Elapsed())
			return
		}
		if err := c.RunFor(chunk); err != nil {
			g.fail(c, err)
			return
		}
		g.publish(c)
		every := g.m.cfg.CheckpointEvery
		if every > 0 && c.Elapsed()-g.lastCkpt >= every {
			if err := g.checkpoint(c); err != nil {
				g.fail(c, fmt.Errorf("auto checkpoint: %w", err))
				return
			}
		}
	}
}

// fail records a campaign error as the terminal state.
func (g *managed) fail(c *campaign.Campaign, err error) {
	g.publish(c)
	g.mu.Lock()
	g.status.Error = err.Error()
	g.mu.Unlock()
	g.setState(StateFailed, c.Elapsed())
}

// publish refreshes the status snapshot and appends any new coverage
// points and crashes to the event feed. Actor-only.
func (g *managed) publish(c *campaign.Campaign) {
	cov := c.CoverageLog()
	crashes := c.Crashes()
	g.mu.Lock()
	for _, p := range cov[g.covSeen:] {
		g.append(Event{Type: "coverage", T: p.T, Edges: p.Edges})
	}
	g.covSeen = len(cov)
	for _, cr := range crashes[g.crSeen:] {
		g.append(Event{Type: "crash", T: cr.FoundAt, Crash: &CrashInfo{
			Kind:    string(cr.Kind),
			Msg:     cr.Msg,
			FoundAt: cr.FoundAt,
			Execs:   cr.Execs,
		}})
	}
	g.crSeen = len(crashes)
	st := g.status.State
	g.status = g.statusFrom(c)
	g.status.State = st
	g.mu.Unlock()
}

// statusFrom builds the live part of a status snapshot. Caller holds
// g.mu; the campaign is only read by its actor, which is the caller (or by
// start, before the actor exists).
func (g *managed) statusFrom(c *campaign.Campaign) Status {
	return Status{
		ID:             g.id,
		Spec:           Spec{ID: g.id, Duration: g.status.Spec.Duration, Config: c.Config()},
		State:          g.status.State,
		Error:          g.status.Error,
		Elapsed:        c.Elapsed(),
		Edges:          c.Coverage(),
		Execs:          c.Execs(),
		Corpus:         c.CorpusSize(),
		Crashes:        len(c.Crashes()),
		Rounds:         c.Rounds(),
		Workers:        c.Workers(),
		CheckpointedAt: g.status.CheckpointedAt,
	}
}

// append adds an event (sequence-stamped) and wakes followers. Caller
// holds g.mu.
func (g *managed) append(e Event) {
	e.Seq = len(g.events)
	g.events = append(g.events, e)
	close(g.wake)
	g.wake = make(chan struct{})
}

// setState records a state transition and emits its event.
func (g *managed) setState(s State, t time.Duration) {
	g.mu.Lock()
	g.status.State = s
	g.append(Event{Type: "state", T: t, State: s})
	g.mu.Unlock()
}

// checkpoint writes the campaign tree (plus its budget) to the store.
// Actor-only; a nil store makes it a no-op.
func (g *managed) checkpoint(c *campaign.Campaign) error {
	st := g.m.cfg.Store
	if st == nil {
		return nil
	}
	t, err := c.CheckpointTree()
	if err != nil {
		return err
	}
	enc, err := json.Marshal(budget{g.duration()})
	if err != nil {
		return err
	}
	t[budgetKey] = enc
	if err := st.PutTree(g.m.treeName(g.id), t); err != nil {
		return err
	}
	g.lastCkpt = c.Elapsed()
	g.mu.Lock()
	g.status.CheckpointedAt = g.lastCkpt
	g.mu.Unlock()
	return nil
}

// do posts f to the actor and waits for it to run.
func (g *managed) do(f func(c *campaign.Campaign) error) error {
	reply := make(chan error, 1)
	select {
	case g.reqs <- func(c *campaign.Campaign) { reply <- f(c) }:
		return <-reply
	case <-g.done:
		return errNotLive
	}
}

// snapshot returns a copy of the current status.
func (g *managed) snapshot() Status {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.status
}

// get looks a campaign up.
func (m *Manager) get(id string) (*managed, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	g, ok := m.campaigns[id]
	if !ok {
		return nil, fmt.Errorf("service: campaign %q: %w", id, ErrNoCampaign)
	}
	return g, nil
}

// CampaignStatus returns one campaign's status.
func (m *Manager) CampaignStatus(id string) (Status, error) {
	g, err := m.get(id)
	if err != nil {
		return Status{}, err
	}
	return g.snapshot(), nil
}

// List returns every campaign's status, sorted by id.
func (m *Manager) List() []Status {
	m.mu.Lock()
	gs := m.campaignsLocked()
	m.mu.Unlock()
	out := make([]Status, 0, len(gs))
	for _, g := range gs {
		out = append(out, g.snapshot())
	}
	return out
}

// campaignsLocked returns the managed campaigns in ascending id order; the
// caller holds m.mu. Ranging over the map directly would leak its iteration
// order into status listings and shutdown sequencing.
func (m *Manager) campaignsLocked() []*managed {
	ids := make([]string, 0, len(m.campaigns))
	for id := range m.campaigns {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	gs := make([]*managed, 0, len(ids))
	for _, id := range ids {
		gs = append(gs, m.campaigns[id])
	}
	return gs
}

// Pause stops a running campaign at the next slice boundary and writes a
// checkpoint, keeping its workers warm for a later Resume.
func (m *Manager) Pause(id string) (Status, error) {
	g, err := m.get(id)
	if err != nil {
		return Status{}, err
	}
	err = g.do(func(c *campaign.Campaign) error {
		if g.paused {
			return fmt.Errorf("service: campaign %q is already paused", id)
		}
		g.publish(c)
		if err := g.checkpoint(c); err != nil {
			return fmt.Errorf("service: pause checkpoint: %w", err)
		}
		g.paused = true
		g.setState(StatePaused, c.Elapsed())
		return nil
	})
	if err != nil {
		return Status{}, err
	}
	return g.snapshot(), nil
}

// Resume continues a paused campaign, or loads a stored one back from the
// store (relaunching its workers). extend, when > 0, replaces the
// campaign's total duration — the way a finished stored campaign is given
// more budget.
func (m *Manager) Resume(id string, extend time.Duration) (Status, error) {
	g, err := m.get(id)
	if err != nil {
		return Status{}, err
	}
	// Try the live path first: an actor is attached whenever done is open.
	err = g.do(func(c *campaign.Campaign) error {
		if !g.paused {
			return fmt.Errorf("service: campaign %q is not paused", id)
		}
		if extend > 0 {
			g.setDuration(extend)
		}
		g.paused = false
		g.setState(StateRunning, c.Elapsed())
		return nil
	})
	if !errors.Is(err, errNotLive) {
		if err != nil {
			return Status{}, err
		}
		return g.snapshot(), nil
	}

	// Stored (or terminal-with-checkpoint) path: load the tree and
	// relaunch.
	st := g.snapshot()
	if st.State != StateStored {
		return Status{}, fmt.Errorf("service: campaign %q is %s, not resumable", id, st.State)
	}
	if m.cfg.Store == nil {
		return Status{}, errors.New("service: no store configured")
	}
	c, err := campaign.ResumeFrom(m.cfg.Store, m.treeName(id))
	if err != nil {
		return Status{}, err
	}
	if extend > 0 {
		g.setDuration(extend)
	}
	if err := m.start(g, c); err != nil {
		return Status{}, err
	}
	return g.snapshot(), nil
}

// duration returns the campaign's total virtual-time budget.
func (g *managed) duration() time.Duration {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.status.Spec.Duration
}

// setDuration updates the campaign's total virtual-time budget.
func (g *managed) setDuration(d time.Duration) {
	g.mu.Lock()
	g.status.Spec.Duration = d
	g.mu.Unlock()
}

// CheckpointNow forces an immediate checkpoint of a live campaign.
func (m *Manager) CheckpointNow(id string) (Status, error) {
	g, err := m.get(id)
	if err != nil {
		return Status{}, err
	}
	if err := g.do(func(c *campaign.Campaign) error {
		g.publish(c)
		return g.checkpoint(c)
	}); err != nil {
		return Status{}, err
	}
	return g.snapshot(), nil
}

// Delete stops a campaign (if live) and removes it from the manager and
// the store.
func (m *Manager) Delete(id string) error {
	g, err := m.get(id)
	if err != nil {
		return err
	}
	stopErr := g.do(func(c *campaign.Campaign) error {
		c.Stop()
		g.stopping = true
		g.paused = false
		return nil
	})
	if stopErr == nil {
		<-g.done
	}
	m.mu.Lock()
	delete(m.campaigns, id)
	m.mu.Unlock()
	if m.cfg.Store != nil {
		if err := m.cfg.Store.DeleteTree(m.treeName(id)); err != nil {
			return err
		}
	}
	return nil
}

// Events returns a copy of the feed from sequence number since, plus a
// channel that closes when more events arrive and whether the campaign is
// in a terminal state (no further events will ever come once the returned
// slice is drained).
func (m *Manager) Events(id string, since int) ([]Event, <-chan struct{}, bool, error) {
	g, err := m.get(id)
	if err != nil {
		return nil, nil, false, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if since < 0 {
		since = 0
	}
	var out []Event
	if since < len(g.events) {
		out = append(out, g.events[since:]...)
	}
	return out, g.wake, g.status.State.terminal(), nil
}

// Recover registers every campaign tree found under the store prefix as a
// stored campaign (state "stored": visible, summarized, resumable — but
// cold until resumed). Campaigns already known to the manager are skipped.
// It reads two objects per campaign, the checkpoint header and the budget,
// never the tree. A campaign whose header or budget does not decode is left
// out and named in the returned error, next to the statuses of all the
// others: one damaged checkpoint does not hide the rest.
func (m *Manager) Recover() ([]Status, error) {
	if m.cfg.Store == nil {
		return nil, errors.New("service: no store configured")
	}
	keys, err := m.cfg.Store.List(m.cfg.Prefix + "/")
	if err != nil {
		return nil, err
	}
	var out []Status
	var skipped []error
	for _, k := range keys {
		rest := strings.TrimPrefix(k, m.cfg.Prefix+"/")
		id, ok := strings.CutSuffix(rest, "/"+campaign.ManifestFile)
		if !ok || strings.Contains(id, "/") {
			continue
		}
		m.mu.Lock()
		_, known := m.campaigns[id]
		m.mu.Unlock()
		if known {
			continue
		}
		status, err := m.readStored(id)
		if err != nil {
			skipped = append(skipped, fmt.Errorf("service: recover %q: %w", id, err))
			continue
		}
		g := &managed{id: id, m: m, status: status, wake: make(chan struct{})}
		g.done = make(chan struct{})
		close(g.done) // no actor attached
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return out, errors.Join(append(skipped, errClosed)...)
		}
		m.campaigns[id] = g
		m.mu.Unlock()
		out = append(out, g.snapshot())
	}
	return out, errors.Join(skipped...)
}

// readStored reads the status a listing shows of stored campaign id: the
// summary and configuration of its checkpoint header, and the budget its
// budgetKey records. A tree with no budgetKey, which is what nyx-net
// -checkpoint writes, has the virtual time it has run as its budget.
func (m *Manager) readStored(id string) (Status, error) {
	raw, err := m.cfg.Store.Get(m.treeName(id) + "/" + campaign.ManifestFile)
	if err != nil {
		return Status{}, err
	}
	sum, err := campaign.Summarize(store.Tree{campaign.ManifestFile: raw})
	if err != nil {
		return Status{}, err
	}
	b := budget{sum.Elapsed}
	switch raw, err := m.cfg.Store.Get(m.treeName(id) + "/" + budgetKey); {
	case err == nil:
		// One that holds a whole spec, as earlier builds wrote it, decodes
		// too: only its budget counts.
		if err := json.Unmarshal(raw, &b); err != nil {
			return Status{}, fmt.Errorf("bad %s: %w", budgetKey, err)
		}
	case !errors.Is(err, store.ErrNotExist):
		return Status{}, err
	}
	return Status{
		ID:             id,
		Spec:           Spec{ID: id, Duration: b.Duration, Config: sum.Config},
		State:          StateStored,
		Elapsed:        sum.Elapsed,
		Edges:          sum.Edges,
		Corpus:         sum.Corpus,
		Crashes:        sum.Crashes,
		Workers:        sum.Config.Workers,
		CheckpointedAt: sum.Elapsed,
	}, nil
}

// Close stops every live campaign at its next slice boundary, writing a
// final checkpoint for each (when a store is configured), and waits for
// the actors to exit. The manager accepts no new work afterwards.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	gs := m.campaignsLocked()
	m.mu.Unlock()
	var firstErr error
	for _, g := range gs {
		err := g.do(func(c *campaign.Campaign) error {
			g.publish(c)
			err := g.checkpoint(c)
			g.stopping = true
			return err
		})
		if err != nil && !errors.Is(err, errNotLive) && firstErr == nil {
			firstErr = err
		}
	}
	m.wg.Wait()
	return firstErr
}
