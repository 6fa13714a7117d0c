package feedback

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"coradd/internal/candgen"
	"coradd/internal/costmodel"
	"coradd/internal/ilp"
	"coradd/internal/query"
	"coradd/internal/schema"
	"coradd/internal/stats"
	"coradd/internal/storage"
	"coradd/internal/value"
)

func fbEnv(t testing.TB) (*candgen.Generator, []float64) {
	t.Helper()
	s := schema.New(
		schema.Column{Name: "a", ByteSize: 4},
		schema.Column{Name: "b", ByteSize: 4},
		schema.Column{Name: "c", ByteSize: 4},
		schema.Column{Name: "d", ByteSize: 8},
		schema.Column{Name: "pk", ByteSize: 4},
	)
	rng := rand.New(rand.NewSource(21))
	rows := make([]value.Row, 30000)
	for i := range rows {
		a := value.V(rng.Intn(100))
		rows[i] = value.Row{a, a / 10, value.V(rng.Intn(60)), value.V(rng.Intn(100)), value.V(i)}
	}
	rel := storage.NewRelation("t", s, s.ColSet("pk"), rows)
	st := stats.New(rel, 1024, 22)
	w := query.Workload{
		{Name: "q1", Fact: "t", Predicates: []query.Predicate{query.NewEq("a", 5)}, AggCol: "d"},
		{Name: "q2", Fact: "t", Predicates: []query.Predicate{query.NewEq("b", 3), query.NewRange("c", 0, 9)}, AggCol: "d"},
		{Name: "q3", Fact: "t", Predicates: []query.Predicate{query.NewEq("c", 30)}, AggCol: "d"},
	}
	model := costmodel.NewAware(st, storage.DefaultDiskParams())
	cfg := candgen.DefaultConfig()
	cfg.Alphas = []float64{0}
	cfg.Restarts = 1
	g := candgen.New(st, model, w, cfg)
	g.PKCols = s.ColSet("pk")
	base := make([]float64, len(w))
	baseDesign := &costmodel.MVDesign{Cols: []int{0, 1, 2, 3, 4}, ClusterKey: s.ColSet("pk")}
	for qi, q := range w {
		base[qi], _ = model.Estimate(baseDesign, q)
	}
	return g, base
}

func TestBuildProblemAlignsDesigns(t *testing.T) {
	g, base := fbEnv(t)
	designs := g.Generate()
	prob, aligned := BuildProblem(g, designs, base, 1<<30)
	if len(prob.Cands) != len(aligned) {
		t.Fatalf("misaligned: %d cands vs %d designs", len(prob.Cands), len(aligned))
	}
	if len(prob.Cands) > len(designs) {
		t.Error("pruning added candidates")
	}
	for i, c := range prob.Cands {
		if c.Ref.(*costmodel.MVDesign) != aligned[i] {
			t.Fatalf("candidate %d Ref mismatch", i)
		}
		if c.Size != aligned[i].Bytes(g.St) {
			t.Errorf("candidate %d size mismatch", i)
		}
	}
}

func TestBuildProblemPrunesDominated(t *testing.T) {
	g, base := fbEnv(t)
	designs := g.Generate()
	// Duplicate a design with an extra useless column: strictly larger,
	// same-or-worse times → must be pruned.
	victim := designs[0]
	bloated := &costmodel.MVDesign{
		Name:       "bloated",
		Cols:       append([]int(nil), victim.Cols...),
		ClusterKey: victim.ClusterKey,
		Queries:    victim.Queries,
	}
	for c := 0; c < 5; c++ {
		if !bloated.HasCol(c) {
			bloated.Cols = append(bloated.Cols, c)
		}
	}
	// (Cols must stay sorted for HasCol.)
	sortInts(bloated.Cols)
	prob, aligned := BuildProblem(g, append(designs, bloated), base, 1<<30)
	for i := range aligned {
		if aligned[i] == bloated {
			// It may survive if it covers extra queries; verify it at least
			// did not displace the original.
			t.Logf("bloated design survived pruning (covers more queries)")
		}
	}
	if len(prob.Cands) > len(designs)+1 {
		t.Error("problem grew unexpectedly")
	}
}

// TestWarmTwinKeepsIncumbentObject: a warm design pruned as the exact
// twin of an earlier candidate takes that candidate's place — same slot,
// same priced data — so the instance is unchanged and a warm-started
// solve keeps the incumbent's object rather than its equal copy.
func TestWarmTwinKeepsIncumbentObject(t *testing.T) {
	g, base := fbEnv(t)
	designs := g.Generate()
	budget := int64(1 << 26)
	for _, d := range designs {
		if d.FactRecluster || !d.HasCol(3) || slices.Contains(d.ClusterKey, 3) {
			continue
		}
		// A trailing key column no query predicates: the same object to
		// the cost model, a different one to build.
		twin := &costmodel.MVDesign{Name: "twin", Cols: d.Cols, Queries: d.Queries,
			ClusterKey: append(slices.Clone(d.ClusterKey), 3)}
		pool := append(slices.Clone(designs), twin)
		cold, coldAligned := BuildProblem(g, pool, base, budget)
		at := slices.Index(coldAligned, d)
		if at < 0 || slices.Contains(coldAligned, twin) {
			continue // d dominated, or the two are priced apart
		}
		warm, warmAligned, _ := buildProblem(g, pool, base, budget, []*costmodel.MVDesign{twin})
		if warmAligned[at] != twin || slices.Contains(warmAligned, d) || len(warmAligned) != len(coldAligned) {
			t.Fatalf("warm twin not swapped in at %d", at)
		}
		for i := range cold.Cands {
			if i != at && warmAligned[i] != coldAligned[i] {
				t.Fatalf("candidate %d moved", i)
			}
			if !ilp.Twins(&cold.Cands[i], &warm.Cands[i]) {
				t.Fatalf("candidate %d priced differently", i)
			}
		}
		res := RunBlocks([]Block{{Gen: g, Designs: pool, Base: base, Warm: []*costmodel.MVDesign{twin}}}, budget, Config{MaxIters: -1})[0]
		for _, ci := range res.Sol.Chosen {
			if res.Designs[ci] == d {
				t.Fatal("warm-started solve chose the incumbent's copy")
			}
		}
		return
	}
	t.Fatal("no design has a priced twin; the test exercises nothing")
}

// TestWarmDominatedMapsToDominator: a warm design pruned by a strict
// dominator is replaced in the warm set by that dominator, in its place,
// so the next solve's warm incumbent keeps what the warm design served.
func TestWarmDominatedMapsToDominator(t *testing.T) {
	g, base := fbEnv(t)
	designs := g.Generate()
	budget := int64(1 << 26)
	pk := g.PKCols[0]
	for _, d := range designs {
		if d.FactRecluster || d.HasCol(pk) {
			continue
		}
		// The same object carrying a column no query reads: larger, and
		// no faster anywhere.
		wide := &costmodel.MVDesign{Name: "wide", Cols: append(slices.Clone(d.Cols), pk), Queries: d.Queries, ClusterKey: d.ClusterKey}
		slices.Sort(wide.Cols)
		pool := append(slices.Clone(designs), wide)
		_, aligned, warm := buildProblem(g, pool, base, budget, []*costmodel.MVDesign{designs[0], wide})
		if slices.Contains(aligned, wide) || !slices.Contains(aligned, d) {
			continue // priced apart, or d itself dominated
		}
		if len(warm) != 2 || warm[0] != designs[0] || !slices.Contains(aligned, warm[1]) {
			t.Fatalf("warm set %v: the dominated design was not replaced in place", designKeys(warm))
		}
		return
	}
	t.Fatal("no design has a dominated copy; the test exercises nothing")
}

func TestFeedbackNeverWorsens(t *testing.T) {
	g, base := fbEnv(t)
	designs := g.Generate()
	prob, _ := BuildProblem(g, designs, base, 1<<23)
	plain := ilp.Solve(prob, ilp.SolveOptions{})
	res := Run(g, designs, base, 1<<23, Config{MaxIters: 2})
	if res.Sol.Objective > plain.Objective+1e-9 {
		t.Errorf("feedback %.6f worse than plain ILP %.6f", res.Sol.Objective, plain.Objective)
	}
}

func TestFeedbackConverges(t *testing.T) {
	g, base := fbEnv(t)
	designs := g.Generate()
	res := Run(g, designs, base, 1<<23, Config{MaxIters: 10})
	if res.Iters >= 10 {
		t.Errorf("feedback did not converge within 10 iterations (ran %d)", res.Iters)
	}
}

func TestFeedbackRespectsBudget(t *testing.T) {
	g, base := fbEnv(t)
	designs := g.Generate()
	for _, budget := range []int64{1 << 21, 1 << 23, 1 << 26} {
		res := Run(g, designs, base, budget, Config{MaxIters: 2})
		if res.Sol.Size > budget {
			t.Errorf("budget %d: design size %d over budget", budget, res.Sol.Size)
		}
	}
}

func TestFeedbackAddsCandidates(t *testing.T) {
	g, base := fbEnv(t)
	// Seed with only single-query designs so expansion has room to work.
	var seedDesigns []*costmodel.MVDesign
	for qi := range g.W {
		seedDesigns = append(seedDesigns, g.GroupDesigns([]int{qi}, 1)...)
	}
	res := Run(g, seedDesigns, base, 1<<26, Config{MaxIters: 3})
	if res.Added == 0 {
		t.Error("feedback added no candidates from a dedicated-only pool")
	}
}

// referenceRun is the single-fact feedback loop written out directly: one
// BuildProblem and one ilp.Solve per round, each round warm from the
// previous round's solution, intermediate rounds sharing half the node cap
// (negative: unlimited) and the final round the rest, feedback read off
// the whole solution, no pooling. RunBlocks over one block must reproduce
// it bit for bit.
func referenceRun(g *candgen.Generator, designs []*costmodel.MVDesign, base []float64, budget int64,
	warm []*costmodel.MVDesign, maxIters, nodeCap int) *Result {

	pool := append([]*costmodel.MVDesign(nil), designs...)
	seen := make(map[string]bool, len(pool))
	for _, d := range pool {
		seen[d.Key()] = true
	}
	groupT := make(map[string]int)
	res := &Result{}
	used, final := 0, maxIters == 0
	prob, aligned, warm := buildProblem(g, pool, base, budget, warm)
	for {
		maxNodes := nodeCap
		if nodeCap >= 0 {
			maxNodes = max(nodeCap/2-used, 1)
			if final {
				maxNodes = max(nodeCap-used, 1)
			}
		}
		sol := ilp.Solve(prob, ilp.SolveOptions{WarmStart: warmIndexes(aligned, warm), MaxNodes: maxNodes})
		used += sol.Nodes
		res.Sol, res.Prob, res.Designs, res.Nodes, res.Proven = sol, prob, aligned, used, sol.Proven
		if final {
			return res
		}
		warm = chosenDesigns(res)
		added := 0
		for _, d := range newCandidates(g, res, budget, groupT, 2) {
			if !seen[d.Key()] {
				seen[d.Key()] = true
				pool = append(pool, d)
				added++
			}
		}
		if added == 0 {
			if sol.Proven {
				return res
			}
			final = true // the same pool again, with the nodes left
			continue
		}
		res.Added += added
		res.Iters++
		final = res.Iters >= maxIters
		prob, aligned, warm = buildProblem(g, pool, base, budget, warm)
	}
}

// TestOneBlockMatchesReference: one block through the N-block loop is the
// single-fact loop — the same instance, candidates, selection, routing
// and search — cold and warm, with and without feedback rounds, at node
// caps that cut rounds and at the default one.
func TestOneBlockMatchesReference(t *testing.T) {
	g, base := fbEnv(t)
	designs := g.Generate()
	fedBack, cut := 0, 0
	for _, budget := range []int64{1 << 20, 1 << 22, 1 << 23, 1 << 26} {
		cold := Run(g, designs, base, budget, Config{MaxIters: 2})
		warm := chosenDesigns(cold)
		for _, tc := range []struct {
			iters int
			warm  []*costmodel.MVDesign
		}{{-1, nil}, {2, nil}, {4, nil}, {-1, warm}, {2, warm}} {
			for _, nodeCap := range []int{0, 3, 8} {
				got := RunBlocks([]Block{{Gen: g, Designs: designs, Base: base, Warm: tc.warm}}, budget,
					Config{MaxIters: tc.iters, Solve: ilp.SolveOptions{MaxNodes: nodeCap}})[0]
				refCap := nodeCap
				if refCap == 0 {
					refCap = ilp.DefaultMaxNodes
				}
				want := referenceRun(g, designs, base, budget, tc.warm, max(tc.iters, 0), refCap)
				if !slices.Equal(designKeys(got.Designs), designKeys(want.Designs)) ||
					!slices.Equal(got.Sol.Chosen, want.Sol.Chosen) || !slices.Equal(got.Sol.PerQuery, want.Sol.PerQuery) ||
					got.Sol.Objective != want.Sol.Objective || got.Sol.Size != want.Sol.Size ||
					got.Nodes != want.Nodes || got.Proven != want.Proven ||
					got.Iters != want.Iters || got.Added != want.Added ||
					len(got.Prob.Cands) != len(want.Prob.Cands) || got.Prob.Budget != want.Prob.Budget {
					t.Fatalf("budget %d iters %d warm %d cap %d: one block diverges from the reference loop:\n got chosen %v obj %v nodes %d iters %d added %d\nwant chosen %v obj %v nodes %d iters %d added %d",
						budget, tc.iters, len(tc.warm), nodeCap, got.Sol.Chosen, got.Sol.Objective, got.Nodes, got.Iters, got.Added,
						want.Sol.Chosen, want.Sol.Objective, want.Nodes, want.Iters, want.Added)
				}
				for i := range got.Prob.Cands {
					if !slices.Equal(got.Prob.Cands[i].Times, want.Prob.Cands[i].Times) {
						t.Fatalf("budget %d: candidate %d priced differently", budget, i)
					}
				}
				if len(tc.warm) > 0 && want.Added > 0 {
					fedBack++
				}
				if !want.Proven {
					cut++
				}
			}
		}
	}
	if fedBack == 0 || cut == 0 {
		t.Fatalf("%d warm cases ran a feedback round and %d were cut; the comparison misses a chained warm start or a cut search", fedBack, cut)
	}
}

// round is one pooled solve as Config.onSolve sees it.
type round struct {
	maxNodes int
	sol      *ilp.Solution
}

// runRounds runs one block and records its rounds.
func runRounds(g *candgen.Generator, b Block, budget int64, cfg Config) (*Result, []round) {
	var rounds []round
	cfg.onSolve = func(maxNodes int, sol *ilp.Solution) { rounds = append(rounds, round{maxNodes, sol}) }
	return RunBlocks([]Block{b}, budget, cfg)[0], rounds
}

// TestRoundsShareNodeCapDeterministic: over a node-cap sweep, one and three
// feedback rounds, cold and warm, no round's objective is worse than the
// previous round's; the rounds' nodes sum to Result.Nodes, which stays
// within the cap (once the cap affords every round a node); intermediate
// rounds spend at most half the cap; the final round gets the rest;
// Proven is the final round's proof; and a second run repeats the first
// exactly. CI runs it at several worker counts (pricing fans out).
func TestRoundsShareNodeCapDeterministic(t *testing.T) {
	g, base := fbEnv(t)
	designs := g.Generate()
	cutFirst := 0
	for _, budget := range []int64{1 << 20, 1 << 22, 1 << 23, 1 << 26} {
		warm := chosenDesigns(Run(g, designs, base, budget, Config{MaxIters: -1}))
		for _, iters := range []int{1, 3} {
			for _, w := range [][]*costmodel.MVDesign{nil, warm} {
				for _, nodeCap := range []int{1, 2, 4, 6, 10, 32, 0, -1} {
					b := Block{Gen: g, Designs: designs, Base: base, Warm: w}
					cfg := Config{MaxIters: iters, Solve: ilp.SolveOptions{MaxNodes: nodeCap}}
					res, rounds := runRounds(g, b, budget, cfg)
					again, rounds2 := runRounds(g, b, budget, cfg)
					where := fmt.Sprintf("budget %d iters %d warm %d cap %d", budget, iters, len(w), nodeCap)
					if !slices.Equal(designKeys(res.Designs), designKeys(again.Designs)) || !reflect.DeepEqual(res.Sol, again.Sol) ||
						res.Nodes != again.Nodes || res.Proven != again.Proven || res.Iters != again.Iters ||
						res.Added != again.Added || !reflect.DeepEqual(rounds, rounds2) {
						t.Fatalf("%s: a second run differs", where)
					}
					if len(rounds) > iters+1 {
						t.Fatalf("%s: %d solves", where, len(rounds))
					}
					capN := nodeCap
					if capN == 0 {
						capN = ilp.DefaultMaxNodes
					}
					sum, inter := 0, 0
					for r, rd := range rounds {
						if r > 0 && rd.sol.Objective > rounds[r-1].sol.Objective {
							t.Fatalf("%s: round %d objective %v worse than round %d's %v", where, r, rd.sol.Objective, r-1, rounds[r-1].sol.Objective)
						}
						if capN > 0 && rd.sol.Nodes > rd.maxNodes {
							t.Fatalf("%s: round %d used %d nodes of %d", where, r, rd.sol.Nodes, rd.maxNodes)
						}
						if r < len(rounds)-1 {
							inter += rd.sol.Nodes
						}
						sum += rd.sol.Nodes
					}
					last := rounds[len(rounds)-1]
					if sum != res.Nodes || res.Proven != last.sol.Proven || res.Sol.Objective != last.sol.Objective {
						t.Fatalf("%s: Nodes %d (rounds sum %d), Proven %v (final round %v)", where, res.Nodes, sum, res.Proven, last.sol.Proven)
					}
					if capN > 0 {
						// Each intermediate round may expand one node past
						// the spent half.
						if capN >= 2*iters && (res.Nodes > capN || inter > capN/2+max(len(rounds)-2, 0)) {
							t.Fatalf("%s: %d nodes, %d in intermediate rounds", where, res.Nodes, inter)
						}
						// The last solve is a final round, or an intermediate
						// one that proved and gained no column.
						stopped := last.sol.Proven && res.Iters < iters && last.maxNodes == max(capN/2-inter, 1)
						if len(rounds) > 1 && last.maxNodes != max(capN-inter, 1) && !stopped {
							t.Fatalf("%s: final round got %d nodes, %d left", where, last.maxNodes, capN-inter)
						}
					} else if last.maxNodes >= 0 || !res.Proven {
						t.Fatalf("%s: an unlimited design capped a round", where)
					}
					if len(rounds) > 1 && !rounds[0].sol.Proven {
						cutFirst++
					}
				}
			}
		}
	}
	if cutFirst == 0 {
		t.Fatal("no intermediate round was cut; the sweep exercises no node sharing")
	}
}

// TestEmptyFeedbackAfterCutRoundResolves: when feedback adds nothing after
// a cut intermediate round, the design is that pool solved again with the
// nodes left, warm from the cut round: the same as one such solve by hand.
func TestEmptyFeedbackAfterCutRoundResolves(t *testing.T) {
	g, base := fbEnv(t)
	const nodeCap = 2
	checked := 0
	for _, budget := range []int64{1 << 20, 1 << 21, 1 << 22, 1 << 23, 1 << 24} {
		// Grow the pool until the cut first round's feedback finds nothing
		// new.
		pool := g.Generate()
		seen := map[string]bool{}
		for _, d := range pool {
			seen[d.Key()] = true
		}
		var prob *ilp.Problem
		var aligned []*costmodel.MVDesign
		var first *ilp.Solution
		for grew := true; grew; {
			prob, aligned, _ = buildProblem(g, pool, base, budget, nil)
			first = ilp.Solve(prob, ilp.SolveOptions{MaxNodes: nodeCap / 2})
			grew = false
			for _, d := range newCandidates(g, &Result{Sol: first, Designs: aligned}, budget, map[string]int{}, 2) {
				if !seen[d.Key()] {
					seen[d.Key()] = true
					pool = append(pool, d)
					grew = true
				}
			}
		}
		if first.Proven {
			continue
		}
		checked++
		warm := warmIndexes(aligned, chosenDesigns(&Result{Sol: first, Designs: aligned}))
		want := ilp.Solve(prob, ilp.SolveOptions{WarmStart: warm, MaxNodes: nodeCap - first.Nodes})

		res, rounds := runRounds(g, Block{Gen: g, Designs: pool, Base: base}, budget, Config{MaxIters: 3, Solve: ilp.SolveOptions{MaxNodes: nodeCap}})
		if len(rounds) != 2 || res.Iters != 0 || res.Added != 0 {
			t.Fatalf("budget %d: %d solves, %d iterations, %d added; want the cut round and its re-solve", budget, len(rounds), res.Iters, res.Added)
		}
		if !reflect.DeepEqual(rounds[0].sol, first) || !reflect.DeepEqual(res.Sol, want) ||
			res.Nodes != first.Nodes+want.Nodes || res.Proven != want.Proven {
			t.Fatalf("budget %d re-solve: chosen %v obj %v nodes %d proven %v; by hand chosen %v obj %v nodes %d+%d proven %v",
				budget, res.Sol.Chosen, res.Sol.Objective, res.Nodes, res.Proven, want.Chosen, want.Objective, first.Nodes, want.Nodes, want.Proven)
		}
	}
	if checked == 0 {
		t.Fatal("every first round proved; the test needs a cut one")
	}
}

// TestTwoBlocksShareBudget: two blocks under one budget stay within it
// jointly, and each block's feedback reads only its own share — a block
// whose share is empty gains nothing, while the other gains exactly the
// candidates its own share derives.
func TestTwoBlocksShareBudget(t *testing.T) {
	g, base := fbEnv(t)
	designs := g.Generate()
	// Block B's queries already run in zero time: no candidate helps it,
	// so its share is always empty.
	zero := make([]float64, len(base))
	blocks := []Block{
		{Gen: g, Designs: designs, Base: base},
		{Gen: g, Designs: designs, Base: zero},
	}
	const budget = 1 << 23
	first := RunBlocks(blocks, budget, Config{MaxIters: -1})
	if len(first[0].Sol.Chosen) == 0 || len(first[1].Sol.Chosen) != 0 {
		t.Fatalf("first round shares: %d and %d objects, want some and none",
			len(first[0].Sol.Chosen), len(first[1].Sol.Chosen))
	}
	seen := map[string]bool{}
	for _, d := range designs {
		seen[d.Key()] = true
	}
	wantAdded := 0
	for _, d := range newCandidates(g, first[0], budget, map[string]int{}, 2) {
		if !seen[d.Key()] {
			seen[d.Key()] = true
			wantAdded++
		}
	}
	res := RunBlocks(blocks, budget, Config{MaxIters: 1})
	if res[0].Added != wantAdded || res[1].Added != 0 {
		t.Fatalf("feedback added %d and %d candidates, want %d from block A's own share and none for B",
			res[0].Added, res[1].Added, wantAdded)
	}
	for _, r := range []*Result{first[0], first[1], res[0], res[1]} {
		if !r.Proven {
			t.Fatal("pooled solve not proven on this small instance")
		}
	}
	for _, cfg := range []Config{{MaxIters: -1}, {MaxIters: 2}} {
		for _, b := range []int64{1 << 21, 1 << 23} {
			rs := RunBlocks([]Block{{Gen: g, Designs: designs, Base: base}, {Gen: g, Designs: designs, Base: base}}, b, cfg)
			if size := rs[0].Sol.Size + rs[1].Sol.Size; size > b {
				t.Fatalf("budget %d: blocks use %d bytes together", b, size)
			}
			if rs[0].Nodes != rs[1].Nodes || rs[0].Iters != rs[1].Iters {
				t.Fatal("blocks report different pooled telemetry")
			}
		}
	}
}

func designKeys(ds []*costmodel.MVDesign) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Key()
	}
	return out
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
