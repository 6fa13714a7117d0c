package adapt

import (
	"bytes"
	"encoding/json"
	"errors"
	"path/filepath"
	"testing"

	"coradd/internal/costmodel"
	"coradd/internal/designer"
	"coradd/internal/durable"
)

// restoreViaDisk is the daemon's restart path in one call: capture the
// controller's State into a checkpoint, Save it to path, Load it back,
// decode the body and Restore from it.
func restoreViaDisk(t testing.TB, c *Controller, common designer.Common, cfg Config, path string) (State, *Controller) {
	t.Helper()
	cp, err := durable.Capture(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := durable.Save(path, cp); err != nil {
		t.Fatal(err)
	}
	loaded, err := durable.Load(path)
	if err != nil {
		t.Fatalf("reloading the checkpoint just saved: %v", err)
	}
	var st State
	if err := loaded.Decode(&st); err != nil {
		t.Fatal(err)
	}
	rc, err := Restore(common, st, cfg)
	if err != nil {
		t.Fatalf("restoring from the checkpoint: %v", err)
	}
	return st, rc
}

// TestCheckpointRoundTrip: State → Save → Load → Restore rebuilds a
// working controller at every point of a drift → migrate stream, idle and
// mid-migration alike — including before the first observation, when the
// snapshot is still empty.
func TestCheckpointRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	common, initial, cfg := smallEnv(t, 3000)
	cfg.ReplanTolerance = -1
	cfg.Cache = designer.NewObjectCache()
	c, err := New(common, initial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream := drivingStream(39, 156)
	path := filepath.Join(t.TempDir(), "cp.json")

	sawMigrating := false
	for i := -1; i < len(stream); i++ {
		if i >= 0 {
			if _, err := c.Process(stream[i]); err != nil {
				t.Fatal(err)
			}
		}
		st, rc := restoreViaDisk(t, c, common, cfg, path)
		// Mid-migration the record is the target; idle it is the serving
		// design itself, so a restart resurfaces the deployed identity
		// (prefix names like "CORADD+3"), not a lookalike.
		want := c.Deployed()
		if c.Migrating() {
			want = c.Incumbent()
			sawMigrating = true
		}
		if st.Design.Name != want.Name || rc.Incumbent().Name != want.Name {
			t.Fatalf("event %d: design %q round-tripped as %q, restored as %q",
				i, want.Name, st.Design.Name, rc.Incumbent().Name)
		}
		if (st.Journal != nil) != c.Migrating() || rc.Migrating() != c.Migrating() {
			t.Fatalf("event %d: journal present %v, restored Migrating()=%v, original %v",
				i, st.Journal != nil, rc.Migrating(), c.Migrating())
		}
		if _, err := rc.Process(stream[0]); err != nil {
			t.Fatalf("event %d: restored controller cannot process: %v", i, err)
		}
	}
	if !sawMigrating {
		t.Error("stream never entered a migration — the round trip exercised no journal")
	}
}

// TestRestoreCheckpointV1 pins the on-disk layout: a mid-migration
// checkpoint written by an earlier build (testdata/checkpoint_v1.json,
// 3000-row env, stopped after the first of four builds) still loads, its
// body re-encodes byte for byte, and the restored controller finishes
// the migration onto the recorded target.
func TestRestoreCheckpointV1(t *testing.T) {
	if durable.Format != "coradd-checkpoint" || durable.Version != 1 {
		t.Fatalf("layout %s v%d: a layout change bumps Version and re-pins this file",
			durable.Format, durable.Version)
	}
	cp, err := durable.Load(filepath.Join("testdata", "checkpoint_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var st State
	if err := cp.Decode(&st); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, cp.Body) {
		t.Fatalf("the state no longer encodes as the pinned body:\n%s\nvs\n%s", again, cp.Body)
	}

	common, _, cfg := smallEnv(t, 3000)
	cfg.FB.MaxIters = -1
	cfg.ReplanTolerance = -1
	c, err := Restore(common, st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Migrating() || len(st.Journal.Done) != 1 || len(st.Journal.Next) != 3 {
		t.Fatalf("restored Migrating()=%v from journal %+v", c.Migrating(), st.Journal)
	}
	stream := drivingStream(0, 156)
	for i := 0; c.Migrating(); i++ {
		if i == len(stream) {
			t.Fatal("restored migration wedged")
		}
		if _, err := c.Process(stream[i]); err != nil {
			t.Fatal(err)
		}
	}
	if rep := c.Report(); rep.BuildsDone != 3 {
		t.Errorf("restored migration ran %d builds, want the 3 journaled as next", rep.BuildsDone)
	}
	target := &designer.Design{Chosen: st.Design.Chosen}
	if c.Incumbent().Name != st.Design.Name || !sameObjects(c.Deployed(), target) {
		t.Errorf("migration landed on %s (incumbent %s), not the recorded target %s",
			c.Deployed().Name, c.Incumbent().Name, st.Design.Name)
	}
}

// FuzzRestore: a checkpoint body with a valid checksum is still bytes a
// previous process — or an attacker with write access — produced.
// Decoding it and restoring against a fixed env must never panic; every
// rejection must be durable.ErrCorrupt. Seeded with the pinned state cut
// to two workload queries (small seeds keep minimization fast) and three
// hostile variants of it: a null design object, a null workload query,
// and a design naming a column past the fact schema.
func FuzzRestore(f *testing.F) {
	common, _, cfg := smallEnv(f, 3000)
	cfg.FB.MaxIters = -1
	cp, err := durable.Load(filepath.Join("testdata", "checkpoint_v1.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, hostile := range []func(*State){
		func(*State) {},
		func(st *State) { st.Design.Chosen = append(st.Design.Chosen, nil) },
		func(st *State) { st.Workload = append(st.Workload, nil) },
		func(st *State) {
			st.Design.Chosen = append(st.Design.Chosen, &costmodel.MVDesign{Name: "far", Cols: []int{0, 999}, ClusterKey: []int{999}})
		},
		// A commercial-style idle design: its first object records dense
		// B+Trees on two carried columns besides the clustered lead.
		func(st *State) {
			st.Journal = nil
			st.Design.Style = designer.StyleCommercial
			md := *st.Design.Chosen[0]
			md.BTreeCols = []int{md.Cols[1], md.Cols[2]}
			st.Design.Chosen[0] = &md
		},
	} {
		var st State
		if err := cp.Decode(&st); err != nil {
			f.Fatal(err)
		}
		st.Workload = st.Workload[:2]
		hostile(&st)
		body, err := json.Marshal(st)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var st State
		if err := (&durable.Checkpoint{Body: body}).Decode(&st); err != nil {
			return
		}
		c, err := Restore(common, st, cfg)
		if err != nil {
			if !errors.Is(err, durable.ErrCorrupt) {
				t.Fatalf("rejection is not ErrCorrupt: %v", err)
			}
			return
		}
		if _, err := json.Marshal(c.State()); err != nil {
			t.Fatalf("restored controller's state does not encode: %v", err)
		}
	})
}
