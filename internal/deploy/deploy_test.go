package deploy

import (
	"math"
	"math/rand"
	"testing"
)

// randProblem draws a well-formed random instance: positive build costs,
// times at or below base on a random query subset, shortcuts and
// precedence edges only toward lower indexes (acyclic by construction).
func randProblem(rng *rand.Rand, n, nQ int, withEdges bool) *Problem {
	p := &Problem{Base: make([]float64, nQ)}
	for q := range p.Base {
		p.Base[q] = 1 + 9*rng.Float64()
	}
	for i := 0; i < n; i++ {
		o := Object{
			Name:  string(rune('A' + i)),
			Build: 0.5 + 4*rng.Float64(),
			Times: make([]float64, nQ),
		}
		for q := range o.Times {
			if rng.Intn(2) == 0 {
				o.Times[q] = p.Base[q] * rng.Float64()
			} else {
				o.Times[q] = math.Inf(1) // cannot serve q
			}
		}
		if withEdges && i > 0 {
			if rng.Intn(2) == 0 {
				o.From = append(o.From, Shortcut{Src: rng.Intn(i), Cost: o.Build * (0.2 + 0.5*rng.Float64())})
			}
			if rng.Intn(4) == 0 {
				o.After = append(o.After, rng.Intn(i))
			}
		}
		p.Objects = append(p.Objects, o)
	}
	return p
}

// bruteForce enumerates every precedence-feasible permutation and returns
// the minimum cumulative cost.
func bruteForce(t *testing.T, p *Problem) float64 {
	t.Helper()
	n := len(p.Objects)
	perm := make([]int, 0, n)
	used := make([]bool, n)
	best := math.Inf(1)
	var rec func()
	rec = func() {
		if len(perm) == n {
			s, err := Evaluate(p, perm)
			if err != nil {
				return // precedence-violating order
			}
			if s.Cum < best {
				best = s.Cum
			}
			return
		}
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			used[i] = true
			perm = append(perm, i)
			rec()
			perm = perm[:len(perm)-1]
			used[i] = false
		}
	}
	rec()
	return best
}

func TestSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(6)
		p := randProblem(rng, n, 4, trial%2 == 0)
		want := bruteForce(t, p)
		got, err := Solve(p, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !got.Proven {
			t.Fatalf("trial %d: tiny instance not proven", trial)
		}
		if math.Abs(got.Cum-want) > 1e-9*(1+want) {
			t.Fatalf("trial %d (n=%d): Solve cum %.12f, brute force %.12f", trial, n, got.Cum, want)
		}
		// The returned accounting must re-evaluate to itself bit for bit.
		re, err := Evaluate(p, got.Order)
		if err != nil {
			t.Fatalf("trial %d: returned order invalid: %v", trial, err)
		}
		if re.Cum != got.Cum {
			t.Fatalf("trial %d: Evaluate(Order) = %v, Solve reported %v", trial, re.Cum, got.Cum)
		}
	}
}

func TestSolveDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randProblem(rng, 6, 6, true)
	a, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(a.Cum) != math.Float64bits(b.Cum) || a.Nodes != b.Nodes {
		t.Fatalf("repeat run differs: cum %v/%v nodes %d/%d", a.Cum, b.Cum, a.Nodes, b.Nodes)
	}
	for k := range a.Order {
		if a.Order[k] != b.Order[k] {
			t.Fatalf("repeat run order differs: %v vs %v", a.Order, b.Order)
		}
	}
}

// TestBenefitFirstSchedule checks the core economics on a hand instance:
// a large high-benefit object and a cheap no-benefit one. The optimal
// order builds the beneficial object first even though it is bigger.
func TestBenefitFirstSchedule(t *testing.T) {
	p := &Problem{
		Base: []float64{10, 10},
		Objects: []Object{
			{Name: "big-mv", Build: 5, Times: []float64{1, 1}},
			{Name: "small-idle", Build: 1, Times: []float64{10, 10}},
		},
	}
	s, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Order[0] != 0 {
		t.Fatalf("schedule %v: high-benefit object not first", s.Order)
	}
	// cum = 5·20 (build big at base rate) + 1·2 (build idle at improved
	// rate) = 102, versus 1·20 + 5·20 = 120 the size-ascending order pays.
	if math.Abs(s.Cum-102) > 1e-12 {
		t.Fatalf("cum = %v, want 102", s.Cum)
	}
	naive, err := Evaluate(p, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if naive.Cum <= s.Cum {
		t.Fatalf("naive order not worse: %v vs %v", naive.Cum, s.Cum)
	}
}

// TestShortcutChangesSchedule: a wide MV that makes a narrow MV's build
// cheap. The solver must exploit the build-from-MV shortcut.
func TestShortcutChangesSchedule(t *testing.T) {
	p := &Problem{
		Base: []float64{10},
		Objects: []Object{
			{Name: "narrow", Build: 8, Times: []float64{9}, From: []Shortcut{{Src: 1, Cost: 1}}},
			{Name: "wide", Build: 4, Times: []float64{2}},
		},
	}
	s, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// wide first: 4·10 + 1·2 = 42; narrow first: 8·10 + 4·1... rates:
	// narrow first → 8·10 + 4·9 = 116. Shortcut order wins.
	if s.Order[0] != 1 || s.Order[1] != 0 {
		t.Fatalf("order %v, want wide then narrow", s.Order)
	}
	if s.Builds[1] != 1 {
		t.Fatalf("narrow build cost %v, want shortcut cost 1", s.Builds[1])
	}
	if s.Sources[1] != 1 {
		t.Fatalf("narrow build source %d, want 1 (wide)", s.Sources[1])
	}
	if math.Abs(s.Cum-42) > 1e-12 {
		t.Fatalf("cum = %v, want 42", s.Cum)
	}
}

func TestPrecedenceRespected(t *testing.T) {
	p := &Problem{
		Base: []float64{10},
		Objects: []Object{
			{Name: "first", Build: 9, Times: []float64{10}},
			{Name: "second", Build: 1, Times: []float64{1}, After: []int{0}},
		},
	}
	s, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Order[0] != 0 {
		t.Fatalf("order %v violates precedence", s.Order)
	}
	if _, err := Evaluate(p, []int{1, 0}); err == nil {
		t.Fatal("Evaluate accepted a precedence-violating order")
	}
}

func TestValidation(t *testing.T) {
	bad := []*Problem{
		{Base: []float64{1}, Objects: []Object{{Name: "z", Build: 0, Times: []float64{1}}}},
		{Base: []float64{1}, Objects: []Object{{Name: "z", Build: 1, Times: []float64{1, 2}}}},
		{Base: []float64{1}, Objects: []Object{{Name: "z", Build: 1, Times: []float64{1}, From: []Shortcut{{Src: 0, Cost: 1}}}}},
		{Base: []float64{1}, Objects: []Object{
			{Name: "a", Build: 1, Times: []float64{1}, After: []int{1}},
			{Name: "b", Build: 1, Times: []float64{1}, After: []int{0}},
		}},
	}
	for i, p := range bad {
		if _, err := Solve(p, Options{}); err == nil {
			t.Errorf("instance %d: invalid problem accepted", i)
		}
	}
	if s, err := Solve(&Problem{Base: []float64{2}}, Options{}); err != nil || !s.Proven || s.FinalRate != 2 {
		t.Errorf("empty problem: %v %+v", err, s)
	}
}

func TestNodeCapUnproven(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := randProblem(rng, 8, 4, false)
	s, err := Solve(p, Options{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Proven {
		t.Fatal("1-node search claimed optimality")
	}
	if len(s.Order) != 8 {
		t.Fatalf("capped search returned incomplete schedule %v", s.Order)
	}
}
