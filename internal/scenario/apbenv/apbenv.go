// Package apbenv builds the APB-1 scenario environment. It sits apart
// from internal/scenario so that the serving daemon, which serves SSB
// only, does not link the APB-1 generator.
package apbenv

import (
	"coradd/internal/apb"
	"coradd/internal/scenario"
)

// New generates the APB-1 environment: Scale.APBRows fact rows drawn with
// Seed+2 and a synopsis drawn with Seed+3, so an SSB and an APB
// environment of one Scale never share a random stream.
func New(s scenario.Scale) *scenario.Env {
	rel := apb.Generate(apb.Config{Rows: s.APBRows, Seed: s.Seed + 2})
	return scenario.NewEnv(s, rel, s.Seed+3, apb.Queries(), apb.PKCols(rel.Schema))
}
