package designer

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"coradd/internal/query"
	"coradd/internal/schema"
)

// DDL renders the design as the CREATE statements a DBA would deploy:
// one CREATE MATERIALIZED VIEW ... CLUSTER BY per MV, an ALTER TABLE ...
// CLUSTER BY for a fact re-clustering (plus its PK index), written against
// the base schema s. The SQL dialect is generic; the point is a reviewable
// artifact of what the designer chose.
func (d *Design) DDL(s *schema.Schema) string {
	var b strings.Builder
	fmt.Fprintf(&b, "-- design %q: %d objects, %.1f MB of %.1f MB budget\n",
		d.Name, len(d.Chosen), float64(d.Size)/(1<<20), float64(d.Budget)/(1<<20))
	for _, md := range d.Chosen {
		if md.FactRecluster {
			fmt.Fprintf(&b, "ALTER TABLE fact CLUSTER BY (%s); -- %s\n",
				s.ColNames(md.ClusterKey), md.Name)
			if len(md.PKCols) > 0 {
				fmt.Fprintf(&b, "CREATE INDEX %s_pk ON fact (%s);\n",
					md.Name, s.ColNames(md.PKCols))
			}
			continue
		}
		fmt.Fprintf(&b, "CREATE MATERIALIZED VIEW %s AS SELECT %s FROM fact CLUSTER BY (%s);\n",
			md.Name, s.ColNames(md.Cols), s.ColNames(md.ClusterKey))
	}
	return b.String()
}

// designJSON is the stable wire form of a design.
type designJSON struct {
	Name    string       `json:"name"`
	Budget  int64        `json:"budget_bytes"`
	Size    int64        `json:"size_bytes"`
	Objects []objectJSON `json:"objects"`
	Routing []routeJSON  `json:"routing"`
}

type objectJSON struct {
	Name          string   `json:"name"`
	Columns       []string `json:"columns"`
	ClusterKey    []string `json:"cluster_key"`
	FactRecluster bool     `json:"fact_recluster,omitempty"`
}

type routeJSON struct {
	Query    string  `json:"query"`
	Object   string  `json:"object"` // "" means the base table
	Path     string  `json:"path"`
	Expected float64 `json:"expected_seconds"`
}

// WriteJSON serializes the design (with column positions resolved to
// names via s, and routing labelled with the workload's query names) for
// downstream tooling.
func (d *Design) WriteJSON(w io.Writer, s *schema.Schema, workload query.Workload) error {
	out := designJSON{Name: d.Name, Budget: d.Budget, Size: d.Size}
	for _, md := range d.Chosen {
		out.Objects = append(out.Objects, objectJSON{
			Name:          md.Name,
			Columns:       colNames(s, md.Cols),
			ClusterKey:    colNames(s, md.ClusterKey),
			FactRecluster: md.FactRecluster,
		})
	}
	for qi, q := range workload {
		r := routeJSON{Query: q.Name, Expected: d.Expected[qi], Path: d.Paths[qi].String()}
		if ri := d.Routing[qi]; ri >= 0 {
			r.Object = d.Chosen[ri].Name
		}
		out.Routing = append(out.Routing, r)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func colNames(s *schema.Schema, cols []int) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = s.Columns[c].Name
	}
	return out
}
