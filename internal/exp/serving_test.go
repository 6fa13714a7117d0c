package exp

import (
	"bytes"
	"testing"

	"coradd/internal/scenario"
)

// TestServingLatencyShape is the observability acceptance gate: the
// replayed latency table must cover all three migration phases with
// ordered, positive percentiles, and the live multi-client HTTP pass
// must have crossed a migration with every request accounted for by the
// /metrics scrape.
func TestServingLatencyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, table, err := ServingLatency(scenario.QuickScale())
	if err != nil {
		t.Fatal(err)
	}

	// The replay must produce all three phases — a run where no
	// migration fires (or never finishes) has nothing to say about
	// latency under migration.
	if len(res.Phases) != 3 {
		t.Fatalf("got %d phases, want before/during/after: %+v", len(res.Phases), res.Phases)
	}
	for i, want := range servingPhaseNames {
		p := res.Phases[i]
		if p.Phase != want {
			t.Errorf("phase %d = %q, want %q", i, p.Phase, want)
		}
		if p.Events <= 0 {
			t.Errorf("phase %q has no events", p.Phase)
		}
		if !(p.P50 > 0 && p.P50 <= p.P95 && p.P95 <= p.P99) {
			t.Errorf("phase %q percentiles not ordered: p50=%g p95=%g p99=%g",
				p.Phase, p.P50, p.P95, p.P99)
		}
		if p.Mean <= 0 {
			t.Errorf("phase %q mean %g not positive", p.Phase, p.Mean)
		}
	}
	if res.Report.Redesigns == 0 || res.Report.BuildsDone == 0 {
		t.Errorf("replay did not migrate: redesigns=%d builds=%d",
			res.Report.Redesigns, res.Report.BuildsDone)
	}

	// The live pass: full success, no observation drops, a completed
	// migration under load, and an exact metrics/served match.
	live := res.Live
	total := live.Clients*live.PerClient + live.Extra
	if live.OK != total {
		t.Errorf("live pass: %d of %d requests returned 200", live.OK, total)
	}
	if live.Dropped != 0 {
		t.Errorf("live pass dropped %d observations with an oversized queue", live.Dropped)
	}
	if !live.Redesigned || !live.Migrated {
		t.Errorf("live pass did not cross a migration: redesigned=%v migrated=%v",
			live.Redesigned, live.Migrated)
	}
	if !live.MetricsMatch {
		t.Error("live pass: /metrics query-latency count did not match served requests")
	}
	if !live.TraceSeen {
		t.Error("live pass: /statusz carried no trace events")
	}

	var buf bytes.Buffer
	table.Print(&buf)
	if buf.Len() == 0 {
		t.Error("empty table")
	}
}
