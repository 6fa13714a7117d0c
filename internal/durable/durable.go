// Package durable persists a checkpoint body — opaque JSON bytes, in
// practice the adaptive controller's adapt.State — so that a restarted
// process can pick up where a killed one stopped. What a checkpoint
// contains is its owner's decision; this package only frames, writes and
// validates the bytes.
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
)

// Format tags every checkpoint file, and Version is the current layout.
// A reader that does not know a version must refuse: field semantics may
// have changed underneath an otherwise-parsable document.
const (
	Format  = "coradd-checkpoint"
	Version = 1
)

// ErrCorrupt marks a checkpoint that failed structural or checksum
// validation (torn write, truncation, bit flip, foreign file) or whose
// body its owner rejects; ErrVersion a checkpoint written by a layout
// this build does not read.
var (
	ErrCorrupt = errors.New("durable: corrupt checkpoint")
	ErrVersion = errors.New("durable: unsupported checkpoint version")
)

// Checkpoint is one checksummed body: the JSON encoding of the state a
// restarted process resumes from.
type Checkpoint struct {
	Body json.RawMessage
}

// Capture encodes the state of src — anything with a State method, such
// as *adapt.Controller — as a checkpoint. Call it from the goroutine
// driving src, never concurrently with it.
func Capture[S any](src interface{ State() S }) (*Checkpoint, error) {
	body, err := json.Marshal(src.State())
	if err != nil {
		return nil, fmt.Errorf("durable: encoding checkpoint: %w", err)
	}
	return &Checkpoint{Body: body}, nil
}

// Decode parses the checkpoint body into v. A body that does not parse
// into v despite its valid checksum is ErrCorrupt.
func (cp *Checkpoint) Decode(v any) error {
	if err := json.Unmarshal(cp.Body, v); err != nil {
		return fmt.Errorf("%w: body does not parse despite a valid checksum: %v", ErrCorrupt, err)
	}
	return nil
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
	data, err := encode(cp.Body)
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

// encode renders body inside its checksummed envelope. The body is
// compacted first, so the checksum covers exactly the bytes Load reads
// back.
func encode(body json.RawMessage) ([]byte, error) {
	body, err := json.Marshal(body)
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

// decode validates the envelope read from path.
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
	if len(env.Body) == 0 {
		return nil, fmt.Errorf("%w: %s carries no body", ErrCorrupt, path)
	}
	return &Checkpoint{Body: env.Body}, nil
}
