// Multi-tenant design under one shared budget. Three tenants run their
// own workloads against the same SSB fact table — a hot tenant hammering
// the date/discount flights, a drill-down tenant on the brand queries,
// and a light tenant issuing occasional region scans. Instead of carving
// the space budget into fixed equal shares, the coordinator generates each
// tenant's candidate pool from its observed query templates (the paper's
// §4 generation) and splits the global budget with one exact solve over
// all tenants' pooled selection instances, so a byte goes to whichever
// tenant's workload buys the most with it. A redesign depends only on
// what the monitors hold, so a second redesign on the unchanged streams
// regenerates the same pools and reproduces the first allocation.
package main

import (
	"fmt"

	"coradd"
)

func main() {
	rel := coradd.GenerateSSB(coradd.SSBConfig{
		Rows: 30_000, Customers: 1500, Suppliers: 200, Parts: 1000, Seed: 42,
	})
	sys, err := coradd.NewSystem(rel, coradd.SSBQueries(), coradd.SystemConfig{Seed: 7})
	must(err)

	budget := rel.HeapBytes() / 2
	co := coradd.MultiTenant(coradd.TenantConfig{Budget: budget})

	// A deterministic clock: one simulated second per observation.
	clock := 0.0
	tick := func() float64 { clock++; return clock }

	qs := coradd.SSBQueries()
	tenants := []struct {
		name   string
		qs     []*coradd.Query
		rounds int
	}{
		{"hot", qs[0:6], 12},
		{"drill", qs[6:10], 5},
		{"light", qs[10:13], 2},
	}
	for _, spec := range tenants {
		tn, err := sys.AddTenant(co, spec.name, coradd.MonitorConfig{HalfLife: 1e6}, tick)
		must(err)
		for r := 0; r < spec.rounds; r++ {
			for _, q := range spec.qs {
				tn.Observe(q)
			}
		}
	}

	alloc, err := co.Redesign()
	must(err)

	fmt.Printf("global budget %.1f MB across %d tenants\n\n",
		float64(budget)/(1<<20), len(alloc.Tenants))
	fmt.Printf("%-8s %-10s %-6s %-10s %-7s %s\n",
		"tenant", "templates", "pool", "share_MB", "share%", "objective_s")
	for _, tr := range alloc.Tenants {
		share := 100 * float64(tr.Size) / float64(budget)
		fmt.Printf("%-8s %-10d %-6d %-10.1f %-7.1f %.3f\n",
			tr.Name, len(tr.Workload), tr.PoolSize,
			float64(tr.Size)/(1<<20), share, tr.Objective)
	}
	fmt.Printf("\npooled solve: objective %.3f after %d nodes (proven %v)\n",
		alloc.Objective, alloc.Nodes, alloc.Proven)
	fmt.Printf("allocation uses %.1f of %.1f MB\n",
		float64(alloc.TotalSize)/(1<<20), float64(budget)/(1<<20))

	// Nothing drifted: the second redesign regenerates the same pools and
	// lands on the same allocation.
	alloc2, err := co.Redesign()
	must(err)
	fmt.Printf("\nsecond redesign on unchanged streams:\n")
	for i, tr := range alloc2.Tenants {
		fmt.Printf("  %-8s pool %d, share %.1f MB, same objects as the first: %v\n",
			tr.Name, tr.PoolSize, float64(tr.Size)/(1<<20),
			sameObjects(alloc.Tenants[i].Design, tr.Design))
	}
}

// sameObjects reports whether two designs deploy the same objects.
func sameObjects(a, b *coradd.Design) bool {
	if len(a.Chosen) != len(b.Chosen) {
		return false
	}
	for i := range a.Chosen {
		if a.Chosen[i].Key() != b.Chosen[i].Key() {
			return false
		}
	}
	return true
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
