package candgen

import (
	"fmt"
	"testing"
)

// TestQueryGroupsSharedStreamUnchanged pins the one k-means sweep, whose
// groupings the recorded experiment tables depend on, to a function of
// the seed alone: every call reseeds the shared stream, so a second call
// and a fresh generator group alike, and the all-queries group from k=1
// is present.
func TestQueryGroupsSharedStreamUnchanged(t *testing.T) {
	g, _ := genEnv(t, 20000)
	want := g.QueryGroups()
	fresh, _ := genEnv(t, 20000)
	for _, got := range [][][]int{g.QueryGroups(), fresh.QueryGroups()} {
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("QueryGroups is not repeatable at one seed:\n got %v\nwant %v", got, want)
		}
	}
	foundAll := false
	for _, grp := range want {
		if len(grp) == len(g.W) {
			foundAll = true
		}
	}
	if !foundAll {
		t.Error("k=1 grouping (all queries together) missing")
	}
}
