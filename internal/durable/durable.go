// Package durable persists the adaptive controller's crash-state to disk,
// turning PR 6's restart *semantics* (deploy.Journal + adapt.Resume) into
// restart *capability* across real process deaths. A checkpoint bundles
// everything adapt.Resume/RestartIdle need that cannot be reconstructed
// from the (deterministic, seeded) dataset: the active target design, the
// in-flight migration journal in its stable serialized form, and the
// workload monitor's snapshot.
//
// The write protocol is write-temp → fsync → rename → fsync(dir): a crash
// at any point leaves either the previous complete checkpoint or the new
// complete checkpoint, never a torn one, because rename is atomic on the
// filesystems we care about and the directory fsync makes the rename
// itself durable. The payload carries a format tag, a version and a
// CRC-32 of the body; Load rejects foreign files, unknown versions,
// truncations and bit flips loudly (ErrCorrupt / ErrVersion) instead of
// resuming from garbage — a corrupt checkpoint must stop the operator,
// not silently restart the controller cold.
package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"coradd/internal/adapt"
	"coradd/internal/costmodel"
	"coradd/internal/deploy"
	"coradd/internal/designer"
	"coradd/internal/query"
)

// Format tags every checkpoint file, and Version is the current layout.
// A reader that does not know a version must refuse: field semantics may
// have changed underneath an otherwise-parsable document.
const (
	Format  = "coradd-checkpoint"
	Version = 1
)

// ErrCorrupt marks a checkpoint that failed structural or checksum
// validation (torn write, truncation, bit flip, foreign file); ErrVersion
// a checkpoint written by a layout this build does not read.
var (
	ErrCorrupt = errors.New("durable: corrupt checkpoint")
	ErrVersion = errors.New("durable: unsupported checkpoint version")
)

// DesignRecord is the serialized form of a designer.Design: the physical
// object specs (costmodel.MVDesign is pure data) without the
// workload-relative routing tables, which Restore recomputes for whatever
// workload the restarted process serves.
type DesignRecord struct {
	Name         string                `json:"name"`
	Style        int                   `json:"style"`
	Budget       int64                 `json:"budget"`
	Size         int64                 `json:"size"`
	Chosen       []*costmodel.MVDesign `json:"chosen,omitempty"`
	Base         *costmodel.MVDesign   `json:"base"`
	SolverNodes  int                   `json:"solver_nodes,omitempty"`
	SolverProven bool                  `json:"solver_proven,omitempty"`
}

// RecordDesign captures d's durable identity.
func RecordDesign(d *designer.Design) *DesignRecord {
	if d == nil {
		return nil
	}
	return &DesignRecord{
		Name:         d.Name,
		Style:        int(d.Style),
		Budget:       d.Budget,
		Size:         d.Size,
		Chosen:       d.Chosen,
		Base:         d.Base,
		SolverNodes:  d.SolverNodes,
		SolverProven: d.SolverProven,
	}
}

// Restore rebuilds the design, routing it for workload w under model. The
// object specs are positional over the fact schema, so a restored design
// is only meaningful against the same (deterministically regenerated)
// relation the checkpointing process ran on.
func (r *DesignRecord) Restore(model costmodel.Model, w query.Workload) (*designer.Design, error) {
	if r == nil || r.Base == nil {
		return nil, fmt.Errorf("durable: checkpoint carries no design")
	}
	d := &designer.Design{
		Name:         r.Name,
		Style:        designer.Style(r.Style),
		Budget:       r.Budget,
		Size:         r.Size,
		Chosen:       r.Chosen,
		Base:         r.Base,
		SolverNodes:  r.SolverNodes,
		SolverProven: r.SolverProven,
	}
	return designer.Reroute(d, model, w), nil
}

// Checkpoint is the controller state a restarted process resumes from.
type Checkpoint struct {
	// SavedClock/Observed locate the save point on the crashed
	// controller's simulated timeline (informational; a resumed timeline
	// restarts at zero).
	SavedClock float64 `json:"saved_clock"`
	Observed   int     `json:"observed"`
	// Design is the active design: the migration's target while one is in
	// flight, otherwise the deployed incumbent.
	Design *DesignRecord `json:"design"`
	// Journal is the in-flight migration's step journal in its stable
	// encoded form (deploy.Journal.Encode — versioned, format-tagged),
	// absent when the controller was idle. Sharing deploy's encoding means
	// there is exactly one on-disk journal layout.
	Journal json.RawMessage `json:"journal,omitempty"`
	// Workload is the monitor snapshot: one representative query per
	// template, Weight = the decayed rate at save time.
	Workload query.Workload `json:"workload"`
}

// Capture snapshots a controller's durable state. Call it from the
// goroutine driving the controller (after Process returns), never
// concurrently with it — the controller is single-timeline.
func Capture(c *adapt.Controller) (*Checkpoint, error) {
	// Mid-migration the record must be the TARGET (adapt.Resume's input);
	// idle, it must be the design actually serving. The two are
	// structurally equal when idle — a completed migration's full prefix
	// is its target — but the deployed one carries the serving identity
	// (prefix names like "CORADD+3"), and a restart must resurface the
	// identity the daemon reported before it died, not a lookalike under
	// another name.
	design := c.Incumbent()
	if !c.Migrating() {
		design = c.Deployed()
	}
	cp := &Checkpoint{
		SavedClock: c.Clock(),
		Observed:   int(c.Mon.Observed()),
		Design:     RecordDesign(design),
		Workload:   c.Mon.Snapshot(),
	}
	if c.Migrating() {
		data, err := c.Journal().Encode()
		if err != nil {
			return nil, fmt.Errorf("durable: encoding journal: %w", err)
		}
		cp.Journal = data
	}
	return cp, nil
}

// Controller rebuilds an adaptive controller from the checkpoint:
// adapt.Resume when a migration was in flight (the journaled build order
// replays from the completed prefix), adapt.RestartIdle otherwise. common
// supplies the regenerated statistics and tuning; its W is replaced by the
// checkpointed snapshot.
func (cp *Checkpoint) Controller(common designer.Common, cfg adapt.Config) (*adapt.Controller, error) {
	model := costmodel.NewAware(common.St, common.Disk)
	d, err := cp.Design.Restore(model, cp.Workload)
	if err != nil {
		return nil, err
	}
	common.W = cp.Workload
	if len(cp.Journal) == 0 {
		return adapt.RestartIdle(common, d, cfg)
	}
	j, err := deploy.DecodeJournal(cp.Journal)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return adapt.Resume(common, d, j, cfg)
}

// envelope is the on-disk frame: format tag, version and a CRC-32 (IEEE)
// of the body bytes. The checksum turns silent corruption — a torn
// sector, a bit flip — into a loud ErrCorrupt.
type envelope struct {
	Format  string          `json:"format"`
	Version int             `json:"version"`
	CRC     uint32          `json:"crc32"`
	Body    json.RawMessage `json:"body"`
}

// Save writes the checkpoint to path with the write-temp-fsync-rename
// protocol, so a crash mid-save never destroys the previous checkpoint.
func Save(path string, cp *Checkpoint) error {
	data, err := encode(cp)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".checkpoint-*.tmp")
	if err != nil {
		return fmt.Errorf("durable: creating temp checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("durable: writing checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("durable: fsync checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("durable: closing checkpoint: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("durable: installing checkpoint: %w", err)
	}
	// Make the rename itself durable: fsync the directory entry. Failure
	// here is reported — the data is safe, but the *name* may not survive
	// a power cut, and the operator should know.
	if d, err := os.Open(dir); err == nil {
		syncErr := d.Sync()
		d.Close()
		if syncErr != nil {
			return fmt.Errorf("durable: fsync checkpoint directory: %w", syncErr)
		}
	}
	return nil
}

// encode renders the checkpoint inside its checksummed envelope.
func encode(cp *Checkpoint) ([]byte, error) {
	body, err := json.Marshal(cp)
	if err != nil {
		return nil, fmt.Errorf("durable: encoding checkpoint: %w", err)
	}
	data, err := json.Marshal(envelope{
		Format:  Format,
		Version: Version,
		CRC:     crc32.ChecksumIEEE(body),
		Body:    body,
	})
	if err != nil {
		return nil, fmt.Errorf("durable: encoding envelope: %w", err)
	}
	return data, nil
}

// Load reads and validates a checkpoint. Missing files return os.ErrNotExist
// (a fresh start, not an error state); anything unreadable, foreign,
// version-unknown, truncated or checksum-mismatched is rejected loudly.
func Load(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decode(data, path)
}

// decode validates the envelope read from path and parses its body.
func decode(data []byte, path string) (*Checkpoint, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("%w: %s is not a checkpoint envelope: %v", ErrCorrupt, path, err)
	}
	if env.Format != Format {
		return nil, fmt.Errorf("%w: %s has format %q, want %q", ErrCorrupt, path, env.Format, Format)
	}
	if env.Version != Version {
		return nil, fmt.Errorf("%w: %s is version %d, this build reads version %d", ErrVersion, path, env.Version, Version)
	}
	if got := crc32.ChecksumIEEE(env.Body); got != env.CRC {
		return nil, fmt.Errorf("%w: %s checksum mismatch (stored %08x, computed %08x) — torn write or bit flip", ErrCorrupt, path, env.CRC, got)
	}
	cp := &Checkpoint{}
	if err := json.Unmarshal(env.Body, cp); err != nil {
		return nil, fmt.Errorf("%w: %s body does not parse despite a valid checksum: %v", ErrCorrupt, path, err)
	}
	if cp.Design == nil || cp.Design.Base == nil {
		return nil, fmt.Errorf("%w: %s carries no design", ErrCorrupt, path)
	}
	return cp, nil
}
