package deploy

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Journal is the durable step record of an in-flight migration: which
// objects the migration kept, dropped and has built so far, and the
// planned order of what remains. The adaptive controller writes it after
// every state change (migration start, build completion, replan, skip),
// so a controller killed mid-migration can be rebuilt from the journal
// and resume from the journaled prefix design — following the journaled
// plan rather than re-deciding it, which is what makes the resumed step
// sequence identical to the uninterrupted run's.
//
// Objects are recorded by their structural key (costmodel.MVDesign.Key),
// the same identity PlanMigration matches designs with, so a journal is
// meaningful across process restarts as long as the target design can be
// reconstructed (in a real deployment, from the durable design catalog).
type Journal struct {
	// From/To name the migration's endpoint designs.
	From string `json:"from"`
	To   string `json:"to"`
	// Kept are objects present in both designs (deployed throughout);
	// Dropped the old objects removed up front; Builds every object the
	// migration must construct, in plan order. All structural keys.
	Kept    []string `json:"kept,omitempty"`
	Dropped []string `json:"dropped,omitempty"`
	Builds  []string `json:"builds"`
	// Done are completed builds in deployment order; Skipped builds
	// abandoned after retry exhaustion; Next the remaining planned order,
	// head first. All indexes into Builds; together they partition it.
	Done    []int `json:"done,omitempty"`
	Skipped []int `json:"skipped,omitempty"`
	Next    []int `json:"next,omitempty"`
}

// JournalFormat tags every serialized journal so a reader never misparses
// an unrelated JSON file as a migration journal, and JournalVersion is the
// current layout version. A reader encountering a newer version must
// refuse rather than misread: field semantics may have changed underneath
// an otherwise-parsable document.
const (
	JournalFormat  = "coradd-journal"
	JournalVersion = 1
)

// journalFile is the stable serialized form: the format tag and version
// wrap the journal fields. A controller checkpoint (adapt.State) embeds
// exactly this encoding, so there is one on-disk journal layout.
//
// Structural keys (costmodel.MVDesign.Key) are arbitrary byte strings —
// they contain 0xff separators that are not valid UTF-8, and Go's JSON
// encoder silently replaces such bytes with U+FFFD, corrupting the key.
// The serialized form therefore carries every key hex-encoded; Encode/
// DecodeJournal are lossless where a naive json.Marshal of Journal is not.
type journalFile struct {
	Format  string   `json:"format"`
	Version int      `json:"version"`
	From    string   `json:"from"`
	To      string   `json:"to"`
	Kept    []string `json:"kept,omitempty"`
	Dropped []string `json:"dropped,omitempty"`
	Builds  []string `json:"builds"`
	Done    []int    `json:"done,omitempty"`
	Skipped []int    `json:"skipped,omitempty"`
	Next    []int    `json:"next,omitempty"`
}

func hexKeys(keys []string) []string {
	if keys == nil {
		return nil
	}
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = hex.EncodeToString([]byte(k))
	}
	return out
}

func unhexKeys(field string, keys []string) ([]string, error) {
	if keys == nil {
		return nil, nil
	}
	out := make([]string, len(keys))
	for i, k := range keys {
		b, err := hex.DecodeString(k)
		if err != nil {
			return nil, fmt.Errorf("deploy: corrupt journal: %s[%d] is not a hex structural key: %v", field, i, err)
		}
		out[i] = string(b)
	}
	return out, nil
}

// Encode renders the journal in its stable serialized form (versioned,
// format-tagged JSON, hex-encoded structural keys) — the durable
// representation a controller fsyncs per step and embeds in its
// checkpoints.
func (j *Journal) Encode() ([]byte, error) {
	return json.Marshal(journalFile{
		Format:  JournalFormat,
		Version: JournalVersion,
		From:    j.From,
		To:      j.To,
		Kept:    hexKeys(j.Kept),
		Dropped: hexKeys(j.Dropped),
		Builds:  hexKeys(j.Builds),
		Done:    j.Done,
		Skipped: j.Skipped,
		Next:    j.Next,
	})
}

// DecodeJournal parses and validates an encoded journal. Documents without
// the journal format tag, carrying an unknown version, or with undecodable
// keys are rejected with a clear error instead of being misread as an
// empty or torn journal.
func DecodeJournal(data []byte) (*Journal, error) {
	var f journalFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("deploy: corrupt journal: %v", err)
	}
	if f.Format != JournalFormat {
		return nil, fmt.Errorf("deploy: not a migration journal (format %q, want %q)", f.Format, JournalFormat)
	}
	if f.Version != JournalVersion {
		return nil, fmt.Errorf("deploy: journal version %d is not supported (this build reads version %d); refusing to guess at its layout", f.Version, JournalVersion)
	}
	j := &Journal{From: f.From, To: f.To, Done: f.Done, Skipped: f.Skipped, Next: f.Next}
	var err error
	if j.Kept, err = unhexKeys("kept", f.Kept); err != nil {
		return nil, err
	}
	if j.Dropped, err = unhexKeys("dropped", f.Dropped); err != nil {
		return nil, err
	}
	if j.Builds, err = unhexKeys("builds", f.Builds); err != nil {
		return nil, err
	}
	if err := j.Validate(); err != nil {
		return nil, err
	}
	return j, nil
}

// MarshalJSON renders the journal in its stable serialized form (Encode),
// so a journal embedded in a larger document keeps its structural keys.
func (j *Journal) MarshalJSON() ([]byte, error) { return j.Encode() }

// UnmarshalJSON parses and validates the stable serialized form
// (DecodeJournal).
func (j *Journal) UnmarshalJSON(data []byte) error {
	d, err := DecodeJournal(data)
	if err != nil {
		return err
	}
	*j = *d
	return nil
}

// Validate checks structural well-formedness: Done, Skipped and Next must
// partition the build indexes exactly.
func (j *Journal) Validate() error {
	n := len(j.Builds)
	seen := make([]bool, n)
	total := 0
	for _, part := range [][]int{j.Done, j.Skipped, j.Next} {
		for _, bi := range part {
			if bi < 0 || bi >= n {
				return fmt.Errorf("deploy: journal references build %d of %d", bi, n)
			}
			if seen[bi] {
				return fmt.Errorf("deploy: journal lists build %d (%s) twice", bi, j.Builds[bi])
			}
			seen[bi] = true
			total++
		}
	}
	if total != n {
		return fmt.Errorf("deploy: journal covers %d of %d builds", total, n)
	}
	return nil
}

// Clone deep-copies the journal, so a caller-held snapshot cannot be
// mutated by the controller's next step.
func (j *Journal) Clone() *Journal {
	if j == nil {
		return nil
	}
	c := *j
	c.Kept = append([]string(nil), j.Kept...)
	c.Dropped = append([]string(nil), j.Dropped...)
	c.Builds = append([]string(nil), j.Builds...)
	c.Done = append([]int(nil), j.Done...)
	c.Skipped = append([]int(nil), j.Skipped...)
	c.Next = append([]int(nil), j.Next...)
	return &c
}
