package mario

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/coverage"
)

func TestBuildAllLevels(t *testing.T) {
	if len(AllLevels()) != 32 {
		t.Fatalf("levels = %d, want 32", len(AllLevels()))
	}
	for w := 1; w <= NumWorlds; w++ {
		for s := 1; s <= StagesPerWorld; s++ {
			l := BuildLevel(w, s)
			if l.Width < 40 || l.FlagX <= 0 || l.FlagX >= l.Width {
				t.Fatalf("%s: bad geometry width=%d flag=%d", l.Name, l.Width, l.FlagX)
			}
			// Spawn zone must be standable.
			if groundLevel(l, 2) >= l.Height {
				t.Fatalf("%s: no ground at spawn", l.Name)
			}
		}
	}
	// Determinism.
	a, b := BuildLevel(3, 2), BuildLevel(3, 2)
	for i := range a.tiles {
		if a.tiles[i] != b.tiles[i] {
			t.Fatal("level generation not deterministic")
		}
	}
}

func TestBuildLevelRejectsBadCoords(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for level 9-1")
		}
	}()
	BuildLevel(9, 1)
}

func TestPhysicsBasics(t *testing.T) {
	g := NewGame(BuildLevel(1, 1))
	if !g.feetSolid(g.X, g.Y) {
		t.Fatal("player should spawn on ground")
	}
	// Hold right: must move right.
	x0 := g.X
	for i := 0; i < 60; i++ {
		g.Step(BtnRight)
	}
	if g.X <= x0 {
		t.Fatal("holding right should move the player")
	}
	// Jump: leaves ground, comes back.
	g.Step(BtnJump)
	if g.OnGround {
		t.Fatal("jump should leave the ground")
	}
	airFrames := 0
	for !g.OnGround && airFrames < 200 {
		g.Step(0)
		airFrames++
	}
	if airFrames >= 200 {
		t.Fatal("player never landed")
	}
	if airFrames < 10 {
		t.Fatalf("jump too short: %d frames", airFrames)
	}
}

// flatLevel builds a featureless test level.
func flatLevel(width int) *Level {
	l := &Level{Name: "flat", Width: width, Height: 20, tiles: make([]Tile, width*20), FlagX: width - 2}
	for x := 0; x < width; x++ {
		for y := 13; y < 20; y++ {
			l.set(x, y, TileGround)
		}
	}
	return l
}

func TestRunIsFasterThanWalk(t *testing.T) {
	walk := NewGame(flatLevel(64))
	run := NewGame(flatLevel(64))
	for i := 0; i < 50; i++ {
		walk.Step(BtnRight)
		run.Step(BtnRight | BtnRun)
	}
	if run.X <= walk.X {
		t.Fatal("running should be faster than walking")
	}
}

// greedyBot plays hold-run-right and jumps when an obstacle or pit is two
// tiles ahead. It validates that generated levels are completable by
// ordinary play.
func greedyBot(g *Game, maxFrames int) {
	for f := 0; f < maxFrames && !g.Won && !g.Dead; f++ {
		b := byte(BtnRight | BtnRun)
		ahead := int(g.X) + 1
		feetY := int(g.Y) + 1
		jump := false
		// Wall ahead?
		if solid(g.L.At(ahead, int(g.Y))) || solid(g.L.At(ahead+1, int(g.Y))) {
			jump = true
		}
		// Pit ahead?
		if !solid(g.L.At(ahead+1, feetY)) && !solid(g.L.At(ahead+1, feetY+1)) {
			jump = true
		}
		// Enemy ahead?
		for _, e := range g.Enemies {
			if e.Alive && e.X > g.X && e.X-g.X < 2.5 {
				jump = true
			}
		}
		if jump && g.OnGround {
			// Hold the jump through its arc.
			for i := 0; i < 20 && !g.Won && !g.Dead; i++ {
				g.Step(b | BtnJump)
				f++
			}
			continue
		}
		g.Step(b)
	}
}

func TestWorldOneSolvableByBot(t *testing.T) {
	solved := 0
	for s := 1; s <= StagesPerWorld; s++ {
		l := BuildLevel(1, s)
		g := NewGame(l)
		greedyBot(g, 8000)
		if g.Won {
			solved++
		} else {
			t.Logf("1-%d not solved by greedy bot (died=%v at x=%.1f/%d)", s, g.Dead, g.X, l.FlagX)
		}
	}
	// The crude bot must clear most of world 1; levels it dies on (enemy
	// parked at a pit lip) are still solvable with better timing.
	if solved < 3 {
		t.Fatalf("bot solves only %d/4 world-1 levels", solved)
	}
}

func TestMostLevelsSolvableByBot(t *testing.T) {
	solved := 0
	total := 0
	for w := 1; w <= NumWorlds; w++ {
		for s := 1; s <= StagesPerWorld; s++ {
			if w == 2 && s == 1 {
				continue // the well level is not solvable by legal play
			}
			total++
			g := NewGame(BuildLevel(w, s))
			greedyBot(g, 10000)
			if g.Won {
				solved++
			}
		}
	}
	// The bot is a crude sanity check (fixed jump timing, no enemy
	// dodging); it clearing two-thirds of the levels confirms they are
	// completable by ordinary play, while the rest need the search a
	// fuzzer provides.
	if solved < total*2/3 {
		t.Fatalf("bot solves only %d/%d levels; generator too hard", solved, total)
	}
}

func TestWellLevelNotSolvableByLegalPlay(t *testing.T) {
	g := NewGame(BuildLevel(2, 1))
	greedyBot(g, 12000)
	if g.Won {
		t.Fatal("2-1 should not be solvable without the wall-jump glitch")
	}
}

func TestWallJumpEscapesWell(t *testing.T) {
	l := BuildLevel(2, 1)
	g := NewGame(l)
	// Drop the player into the well directly (the fuzzer gets here by
	// play; the test exercises the escape mechanics in isolation).
	g.X = float64(l.Width/2) + 3
	g.Y = 13
	for f := 0; f < 300 && !g.OnGround; f++ {
		g.Step(0)
	}
	if g.Dead || !g.OnGround {
		t.Fatalf("could not stand on the well floor (dead=%v y=%.1f)", g.Dead, g.Y)
	}
	startY := g.Y
	if startY < 14 {
		t.Fatalf("not in the well (y=%.1f, x=%.1f)", g.Y, g.X)
	}
	// Chain wall jumps against the right wall: push right with *fresh*
	// jump presses while falling against the wall.
	for f := 0; f < 3000 && g.Y > startY-7; f++ {
		b := byte(BtnRight)
		if f%6 < 3 {
			b |= BtnJump
		}
		g.Step(b)
	}
	if g.WallJumps == 0 {
		t.Fatal("no wall jumps registered")
	}
	if g.Y > startY-5 {
		t.Fatalf("wall jumps did not climb the well: y=%.1f (start %.1f)", g.Y, startY)
	}
}

func TestTargetStateRoundTrip(t *testing.T) {
	inst, err := Launch(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	seed := inst.Seeds()[0].Clone()
	seed.SnapshotAt = 5
	var tr coverage.Trace
	res, err := inst.Agent.RunCreatingSlot(seed, &tr, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.SnapshotTaken {
		t.Fatal("snapshot not taken")
	}
	// Two identical suffix runs must visit identical positions.
	var t1, t2 coverage.Trace
	if _, err := inst.Agent.RunFromSnapshot(0, seed, &t1); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Agent.RunFromSnapshot(0, seed, &t2); err != nil {
		t.Fatal(err)
	}
	if t1.CountEdges() != t2.CountEdges() {
		t.Fatal("suffix replays diverged: game state not fully restored")
	}
}

func TestFuzzerSolvesEasyLevel(t *testing.T) {
	inst, err := Launch(1, 4) // short early level
	if err != nil {
		t.Fatal(err)
	}
	f := core.New(inst.Agent, inst.Spec, core.Options{
		Policy: core.PolicyAggressive,
		Seeds:  inst.Seeds(),
		Rand:   rand.New(rand.NewSource(11)),
		Dict:   inst.Dict(),
	})
	deadline := 40 * time.Minute // virtual
	for f.Elapsed() < deadline && len(f.Crashes) == 0 {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if len(f.Crashes) == 0 {
		t.Fatalf("aggressive policy did not solve 1-4 in %v virtual (execs=%d, cov=%d)",
			deadline, f.Execs(), f.Coverage())
	}
	if f.Crashes[0].Kind != CrashSolved {
		t.Fatalf("unexpected crash kind: %v", f.Crashes[0].Kind)
	}
}

func TestIjonExecutorNoSnapshots(t *testing.T) {
	inst, err := Launch(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	e := NewIjon(inst)
	var tr coverage.Trace
	seed := inst.Seeds()[0].Clone()
	seed.SnapshotAt = 3
	res, err := e.RunFromRoot(seed, &tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.SnapshotTaken || inst.Agent.HasSlot(0) {
		t.Fatal("Ijon must not take snapshots")
	}
	// Not a SlotExecutor, so the fuzzer never places a snapshot for it.
	if _, ok := any(e).(core.SlotExecutor); ok {
		t.Fatal("Ijon must not offer snapshot slots")
	}
}
