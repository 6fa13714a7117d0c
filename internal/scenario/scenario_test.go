package scenario

import (
	"fmt"
	"strings"
	"testing"
)

// TestParseMaxNodes pins CORADD_SOLVER_MAXNODES validation. The valid
// inputs include the caps real callers start the daemon with (500000 from
// the benchmark harness, 200000 from the daemon's restart test); garbage
// is rejected with an error naming the variable and the value instead of
// silently meaning the 5M default.
func TestParseMaxNodes(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int
		ok   bool
	}{
		{"500000", 500_000, true},
		{"200000", 200_000, true},
		{"0", 0, true},
		{"-1", -1, true},
		{"abc", 0, false},
		{"5M", 0, false},
		{"5e6", 0, false},
		{"0x10", 0, false},
		{" 500000", 0, false},
		{"", 0, false},
	} {
		got, err := parseMaxNodes(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("parseMaxNodes(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("parseMaxNodes(%q) accepted %d, want error", tc.in, got)
			} else if prefix := fmt.Sprintf("%s=%q: ", maxNodesEnv, tc.in); !strings.HasPrefix(err.Error(), prefix) {
				t.Errorf("parseMaxNodes(%q) error %q lacks prefix %q", tc.in, err, prefix)
			}
		}
	}
}

// TestSolverMaxNodesEnv: unset is the default, a valid value reaches every
// environment's solve options, and garbage is an error at startup and a
// loud panic in a constructor.
func TestSolverMaxNodesEnv(t *testing.T) {
	t.Setenv(maxNodesEnv, "")
	if n, err := SolverMaxNodes(); n != 0 || err != nil {
		t.Fatalf("unset: SolverMaxNodes() = %d, %v; want 0, nil", n, err)
	}
	t.Setenv(maxNodesEnv, "200000")
	s := QuickScale()
	s.SSBRows, s.Sample = 2000, 256
	if env := SSB(s, false); env.Common.Solve.MaxNodes != 200_000 {
		t.Fatalf("SSB env solve cap = %d, want 200000", env.Common.Solve.MaxNodes)
	}
	t.Setenv(maxNodesEnv, "abc")
	if _, err := SolverMaxNodes(); err == nil {
		t.Fatal("garbage value accepted")
	}
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), `CORADD_SOLVER_MAXNODES="abc": `) {
			t.Fatalf("garbage value: recovered %v, want a loud CORADD_SOLVER_MAXNODES rejection", r)
		}
	}()
	SSB(s, false)
}
