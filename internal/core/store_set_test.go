package core

import (
	"fmt"
	"strings"
	"testing"

	"nextdvfs/internal/learner"
)

// trainDoubleQ drives a doubleq agent long enough that both estimators
// hold distinct values.
func trainDoubleQ(t *testing.T, seed int64) *Agent {
	t.Helper()
	cfg := DefaultAgentConfig()
	cfg.Seed = seed
	cfg.Learner = "doubleq"
	a := NewAgent(cfg)
	a.AppChanged("game", true)
	act := &recordActuator{caps: map[string]int{}}
	for i := 1; i <= 120; i++ {
		stepAgent(a, act, int64(i)*100_000, 30+float64(i%20), 4, 45, 38, [3]int{9, 5, 3})
	}
	return a
}

func setsEqual(t *testing.T, want, got *learner.TableSet) {
	t.Helper()
	if learner.Normalize(want.Learner) != learner.Normalize(got.Learner) {
		t.Fatalf("learner %q vs %q", want.Learner, got.Learner)
	}
	if len(want.Roles) != len(got.Roles) {
		t.Fatalf("roles %d vs %d", len(want.Roles), len(got.Roles))
	}
	for i := range want.Roles {
		w, g := want.Roles[i], got.Roles[i]
		if w.Role != g.Role {
			t.Fatalf("role %d: %q vs %q", i, w.Role, g.Role)
		}
		if len(w.Table.Q) != len(g.Table.Q) {
			t.Fatalf("role %q: %d vs %d states", w.Role, len(w.Table.Q), len(g.Table.Q))
		}
		for s, row := range w.Table.Q {
			gRow, ok := g.Table.Q[s]
			if !ok {
				t.Fatalf("role %q: state %d missing", w.Role, s)
			}
			for j := range row {
				if row[j] != gRow[j] {
					t.Fatalf("role %q: Q[%d][%d] = %g, want %g", w.Role, s, j, gRow[j], row[j])
				}
			}
		}
		for s, v := range w.Table.Visits {
			if g.Table.Visits[s] != v {
				t.Fatalf("role %q: visits[%d] = %d, want %d", w.Role, s, g.Table.Visits[s], v)
			}
		}
	}
}

// TestDoubleQStoreRoundTrip pins the multi-table persistence contract:
// a doubleq agent's two estimators survive SaveAgent → LoadAgent with
// every value and visit count intact, and keep learning after the
// reload.
func TestDoubleQStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	store := Store{Dir: dir}
	a := trainDoubleQ(t, 21)
	want := a.SnapshotFor("game")
	if len(want.Roles) != 2 {
		t.Fatalf("doubleq snapshot has %d roles, want 2 (a, b)", len(want.Roles))
	}
	if len(want.Roles[1].Table.Q) == 0 {
		t.Fatal("estimator B never learned — the round trip would be vacuous")
	}
	if err := store.SaveAgent(a); err != nil {
		t.Fatal(err)
	}

	b := NewAgent(a.Config())
	if err := store.LoadAgent(b); err != nil {
		t.Fatal(err)
	}
	// Before any control step the snapshot is exactly the loaded set:
	// both estimators, every value and visit count.
	got := b.SnapshotFor("game")
	setsEqual(t, want, got)
	if got.Learner != "doubleq" || len(got.Roles) != 2 {
		t.Fatalf("loaded agent runs %s with %d roles, want doubleq with 2", got.Learner, len(got.Roles))
	}
	// The loaded set materializes into a live learner on the first
	// control step and keeps learning.
	act := &recordActuator{caps: map[string]int{}}
	b.AppChanged("game", true)
	stepAgent(b, act, 100_000, 30, 4, 45, 38, [3]int{9, 5, 3})
	tab := b.TableFor("game")
	if tab == nil || tab.Table == nil || tab.Learner() == nil {
		t.Fatal("loaded agent did not wire the learner")
	}
	if tab.Learner().Name() != "doubleq" {
		t.Fatalf("loaded learner = %s", tab.Learner().Name())
	}
}

// TestLegacySingleTableFileLoadsAsWatkinsSet pins backward
// compatibility: pre-registry snapshot files (no learner/aux fields)
// load as single-role watkins sets, and a watkins save emits exactly
// the legacy format (no new fields).
func TestLegacySingleTableFileLoadsAsWatkinsSet(t *testing.T) {
	q := NewQTable(9)
	q.Update(StateKey(11), 3, 0.5, StateKey(12), 0.2, 0.9)
	legacy, err := MarshalTable("spotify", q, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, forbidden := range []string{`"learner"`, `"aux"`} {
		if strings.Contains(string(legacy), forbidden) {
			t.Fatalf("watkins snapshot leaked the %s field:\n%s", forbidden, legacy)
		}
	}
	app, set, trained, err := UnmarshalTableSet(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if app != "spotify" || !trained {
		t.Fatalf("app=%q trained=%v", app, trained)
	}
	if learner.Normalize(set.Learner) != "watkins" || len(set.Roles) != 1 || set.Roles[0].Role != "q" {
		t.Fatalf("legacy file parsed as %+v", set)
	}
	if set.Primary().Q[StateKey(11)][3] == 0 {
		t.Fatal("values lost")
	}
}

// TestDoubleQSnapshotKeepsIdentityInDefaultAgent pins the snapshot
// identity rule: a persisted doubleq set loaded into an agent that was
// NOT configured for doubleq must keep running doubleq for that app —
// collapsing it to watkins would silently drop estimator B and the
// next save would make the loss permanent.
func TestDoubleQSnapshotKeepsIdentityInDefaultAgent(t *testing.T) {
	dir := t.TempDir()
	store := Store{Dir: dir}
	trained := trainDoubleQ(t, 31)
	if err := store.SaveAgent(trained); err != nil {
		t.Fatal(err)
	}

	plain := NewAgent(DefaultAgentConfig()) // watkins-configured
	if err := store.LoadAgent(plain); err != nil {
		t.Fatal(err)
	}
	act := &recordActuator{caps: map[string]int{}}
	plain.AppChanged("game", true)
	stepAgent(plain, act, 100_000, 30, 4, 45, 38, [3]int{9, 5, 3})
	if got := plain.TableFor("game").Learner().Name(); got != "doubleq" {
		t.Fatalf("default agent collapsed the doubleq snapshot to %q", got)
	}
	// Re-saving must still carry both estimators.
	if err := store.SaveAgent(plain); err != nil {
		t.Fatal(err)
	}
	set, _, err := store.LoadSet("game")
	if err != nil {
		t.Fatal(err)
	}
	if set.Learner != "doubleq" || len(set.Roles) != 2 || len(set.Roles[1].Table.Q) == 0 {
		t.Fatalf("estimator B lost through the default agent: %s, %d roles", set.Learner, len(set.Roles))
	}
}

// TestUnmarshalTableSetRejectsUnregisteredLearners: snapshot files are
// untrusted input; an unknown learner name or a role layout that does
// not match the named learner must fail at parse.
func TestUnmarshalTableSetRejectsUnregisteredLearners(t *testing.T) {
	if _, _, _, err := UnmarshalTableSet([]byte(`{"actions":9,"learner":"zzz"}`)); err == nil {
		t.Fatal("unknown learner accepted")
	}
	// doubleq without its second role is a truncated set, not a policy.
	if _, _, _, err := UnmarshalTableSet([]byte(`{"actions":9,"learner":"doubleq"}`)); err == nil {
		t.Fatal("doubleq set without role b accepted")
	}
	// Extra roles on a single-table learner are equally malformed.
	if _, _, _, err := UnmarshalTableSet([]byte(`{"actions":9,"aux":{"b":{"q":{},"visits":{}}}}`)); err == nil {
		t.Fatal("watkins set with an aux role accepted")
	}
}

// TestUnmarshalTableSetCapsActions: the JSON decoder refuses the same
// action counts the binary codec does, so a hostile upload cannot open
// millions of merge cells with one row of zeros.
func TestUnmarshalTableSetCapsActions(t *testing.T) {
	for _, n := range []int{0, -1, maxActions + 1, 8_000_000} {
		body := fmt.Sprintf(`{"actions":%d,"q":{},"visits":{}}`, n)
		if _, _, _, err := UnmarshalTableSet([]byte(body)); err == nil {
			t.Errorf("actions=%d accepted", n)
		}
	}
	if _, _, _, err := UnmarshalTableSet([]byte(fmt.Sprintf(`{"actions":%d,"q":{},"visits":{}}`, maxActions))); err != nil {
		t.Errorf("actions=%d refused: %v", maxActions, err)
	}
}

// TestIncompatibleSnapshotFallsBackToFreshTraining: a store dir from a
// platform with a different action space must not crash the first
// control step — the stale table is discarded and the app trains fresh
// on this hardware.
func TestIncompatibleSnapshotFallsBackToFreshTraining(t *testing.T) {
	a := NewAgent(DefaultAgentConfig())
	stale := NewQTable(6) // trained elsewhere: 6 actions vs this chip's 9
	stale.Update(StateKey(1), 2, 1, StateKey(2), 0.5, 0.9)
	a.InstallTable("game", stale, true)

	act := &recordActuator{caps: map[string]int{}}
	a.AppChanged("game", true)
	for i := 1; i <= 10; i++ {
		stepAgent(a, act, int64(i)*100_000, 30, 4, 45, 38, [3]int{9, 5, 3})
	}
	tab := a.TableFor("game")
	if tab.Table.Actions != 9 {
		t.Fatalf("agent kept the stale %d-action table", tab.Table.Actions)
	}
	if tab.Trained {
		t.Fatal("stale snapshot must not count as trained on this hardware")
	}
	if tab.Table.Steps == 0 {
		t.Fatal("fresh training never started")
	}
}

// TestNStepConvergenceTracksUpdatedState: the flip signal must follow
// the state the n-step update actually modifies, and buffering steps
// must not feed the convergence EWMAs — otherwise the flip rate decays
// to zero on its own and training latches "converged" prematurely.
func TestNStepConvergenceTracksUpdatedState(t *testing.T) {
	cfg := DefaultAgentConfig()
	cfg.Seed = 44
	cfg.Learner = "nstep"
	a := NewAgent(cfg)
	a.AppChanged("app", false)
	act := &recordActuator{caps: map[string]int{}}
	// Three control steps: two transitions enter the buffer (N=4), no
	// update applies, so the EWMAs must still be unseeded.
	for i := 1; i <= 3; i++ {
		stepAgent(a, act, int64(i)*100_000, 30, 4, 45, 38, [3]int{9, 5, 3})
	}
	tab := a.TableFor("app")
	if tab.Table.Steps != 0 {
		t.Fatalf("n-step applied %d updates before the window filled", tab.Table.Steps)
	}
	if tab.tdSeeded || tab.flipSeeded {
		t.Fatal("buffering steps polluted the convergence EWMAs")
	}
	// Keep stepping with varied FPS so updates actually apply.
	for i := 4; i <= 200; i++ {
		stepAgent(a, act, int64(i)*100_000, float64(20+i%25), 4, 45, 38, [3]int{9, 5, 3})
	}
	if tab.Table.Steps == 0 {
		t.Fatal("n-step never applied an update")
	}
	if !tab.flipSeeded {
		t.Fatal("convergence tracking never engaged once updates applied")
	}
}

// TestAgentPerLearnerDeterminism: same seed → byte-identical table
// sets, for every registered learner driven through the full agent.
func TestAgentPerLearnerDeterminism(t *testing.T) {
	for _, name := range learner.Names() {
		run := func() []byte {
			cfg := DefaultAgentConfig()
			cfg.Seed = 99
			cfg.Learner = name
			a := NewAgent(cfg)
			a.AppChanged("app", false)
			act := &recordActuator{caps: map[string]int{}}
			for i := 1; i <= 200; i++ {
				stepAgent(a, act, int64(i)*100_000, float64(20+i%25), 4+float64(i%3), 45, 38, [3]int{9, 5, 3})
			}
			data, err := MarshalTableSet("app", a.SnapshotFor("app"), false)
			if err != nil {
				t.Fatal(err)
			}
			return data
		}
		if string(run()) != string(run()) {
			t.Fatalf("%s: same seed produced different tables", name)
		}
	}
}

// TestAgentRunsWithEachLearnerAndExplorer smoke-drives every
// learner × explorer pair through the agent.
func TestAgentRunsWithEachLearnerAndExplorer(t *testing.T) {
	for _, lrn := range learner.Names() {
		for _, ex := range learner.ExplorerNames() {
			cfg := DefaultAgentConfig()
			cfg.Seed = 5
			cfg.Learner = lrn
			cfg.Explorer = ex
			a := NewAgent(cfg)
			a.AppChanged("app", false)
			act := &recordActuator{caps: map[string]int{}}
			for i := 1; i <= 40; i++ {
				stepAgent(a, act, int64(i)*100_000, 30, 4, 45, 38, [3]int{9, 5, 3})
			}
			tab := a.TableFor("app")
			if tab == nil || tab.Table == nil || tab.Table.Steps == 0 {
				t.Fatalf("%s/%s: agent did not learn", lrn, ex)
			}
		}
	}
}

func TestNewAgentPanicsOnUnknownNames(t *testing.T) {
	for _, cfg := range []AgentConfig{
		{Learner: "nope"},
		{Explorer: "nope"},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewAgent accepted %+v", cfg)
				}
			}()
			c := DefaultAgentConfig()
			c.Learner = cfg.Learner
			c.Explorer = cfg.Explorer
			NewAgent(c)
		}()
	}
}
