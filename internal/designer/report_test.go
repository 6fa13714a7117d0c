package designer

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"coradd/internal/feedback"
)

func reportDesign(t *testing.T) (*Design, Common) {
	t.Helper()
	rel, _, c := smallSSB(t, 20000)
	d := NewCORADD(c, smallCandCfg(), feedback.Config{MaxIters: -1})
	design, err := d.Design(rel.HeapBytes() * 3)
	if err != nil {
		t.Fatal(err)
	}
	return design, c
}

func TestDDLMentionsEveryObject(t *testing.T) {
	design, c := reportDesign(t)
	ddl := design.DDL(c.St.Rel.Schema)
	for _, md := range design.Chosen {
		if !strings.Contains(ddl, md.Name) {
			t.Errorf("DDL missing object %s", md.Name)
		}
	}
	if strings.Count(ddl, "CREATE MATERIALIZED VIEW")+strings.Count(ddl, "ALTER TABLE") < len(design.Chosen) {
		t.Error("DDL has fewer statements than chosen objects")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	design, c := reportDesign(t)
	var buf bytes.Buffer
	if err := design.WriteJSON(&buf, c.St.Rel.Schema, c.W); err != nil {
		t.Fatal(err)
	}
	var sum designJSON
	if err := json.Unmarshal(buf.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Name != design.Name || sum.Size != design.Size || sum.Budget != design.Budget {
		t.Error("header fields did not round-trip")
	}
	if len(sum.Objects) != len(design.Chosen) {
		t.Fatalf("objects = %d, want %d", len(sum.Objects), len(design.Chosen))
	}
	if len(sum.Routing) != len(c.W) {
		t.Fatalf("routing = %d, want %d", len(sum.Routing), len(c.W))
	}
	for i, o := range sum.Objects {
		if len(o.ClusterKey) != len(design.Chosen[i].ClusterKey) {
			t.Errorf("object %d cluster key length mismatch", i)
		}
	}
	for qi, r := range sum.Routing {
		if r.Query != c.W[qi].Name {
			t.Errorf("routing %d query %q, want %q", qi, r.Query, c.W[qi].Name)
		}
		if r.Expected <= 0 {
			t.Errorf("routing %d: non-positive expected runtime", qi)
		}
	}
}
