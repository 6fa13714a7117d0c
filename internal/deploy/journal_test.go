package deploy

import (
	"reflect"
	"strings"
	"testing"
)

// TestJournalRoundTrip pins the durable form: Encode → DecodeJournal is
// the identity on a well-formed journal. The keys are real structural
// keys — arbitrary bytes including the 0xff separator that is not valid
// UTF-8 — because a naive json.Marshal silently rewrites such bytes to
// U+FFFD; the hex key encoding exists exactly for them.
func TestJournalRoundTrip(t *testing.T) {
	j := &Journal{
		From: "CORADD", To: "CORADD",
		Kept:    []string{"\x06\x00\x0b\x00\xff\x06\x00"},
		Dropped: []string{"\x01\x00\xff\x01\x00", "\x02\x00\xff\x02\x00"},
		Builds:  []string{"\x03\x00\xff\x03\x00", "\x04\x00\xff\x04\x00", "\x05\x00\xff\x05\x00", "\x07\x00\xff\x07\x00\xfe"},
		Done:    []int{2},
		Skipped: []int{0},
		Next:    []int{3, 1},
	}
	data, err := j.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(j, got) {
		t.Errorf("round trip changed the journal:\n%+v\n%+v", j, got)
	}
}

// TestJournalFormatVersion pins the stable serialized form: the format
// tag and version are present in the encoding, and documents with a
// missing/foreign tag or an unknown version are rejected with an error
// naming the problem — never misread as an empty journal.
func TestJournalFormatVersion(t *testing.T) {
	j := &Journal{Builds: []string{"b0"}, Next: []int{0}}
	data, err := j.Encode()
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.Contains(s, `"format":"coradd-journal"`) || !strings.Contains(s, `"version":1`) {
		t.Fatalf("encoding lacks format tag or version: %s", s)
	}
	for name, doc := range map[string]string{
		"no tag":         `{"builds":["b0"],"next":[0]}`,
		"foreign tag":    `{"format":"coradd-checkpoint","version":1,"builds":["b0"],"next":[0]}`,
		"future version": `{"format":"coradd-journal","version":99,"builds":["b0"],"next":[0]}`,
		"non-hex key":    `{"format":"coradd-journal","version":1,"builds":["zz"],"next":[0]}`,
		"not json":       `migration in progress`,
		"truncated":      s[:len(s)/2],
	} {
		if _, err := DecodeJournal([]byte(doc)); err == nil {
			t.Errorf("%s: DecodeJournal accepted %q", name, doc)
		}
	}
	// An unknown version's error must say so, not report corruption.
	_, err = DecodeJournal([]byte(`{"format":"coradd-journal","version":99,"builds":[]}`))
	if err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Errorf("future-version error does not name the version: %v", err)
	}
}

// TestJournalValidate rejects out-of-range, duplicated and missing build
// indexes — a corrupt journal must fail loudly, not resume wrongly.
func TestJournalValidate(t *testing.T) {
	cases := []struct {
		name string
		j    Journal
		ok   bool
	}{
		{"complete", Journal{Builds: []string{"a", "b"}, Done: []int{0}, Next: []int{1}}, true},
		{"empty", Journal{}, true},
		{"out of range", Journal{Builds: []string{"a"}, Next: []int{1}}, false},
		{"negative", Journal{Builds: []string{"a"}, Done: []int{-1}, Next: []int{0}}, false},
		{"duplicate", Journal{Builds: []string{"a", "b"}, Done: []int{0}, Next: []int{0, 1}}, false},
		{"missing", Journal{Builds: []string{"a", "b"}, Done: []int{0}}, false},
	}
	for _, tc := range cases {
		if err := tc.j.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestJournalCloneIsolation: mutating a clone leaves the original intact.
func TestJournalCloneIsolation(t *testing.T) {
	j := &Journal{Builds: []string{"a", "b"}, Done: []int{0}, Next: []int{1}}
	c := j.Clone()
	c.Done[0] = 1
	c.Next = append(c.Next, 0)
	if j.Done[0] != 0 || len(j.Next) != 1 {
		t.Error("clone shares backing arrays with the original")
	}
	if (*Journal)(nil).Clone() != nil {
		t.Error("nil clone not nil")
	}
}

// FuzzDecodeJournal: journal bytes come back from disk (inside a
// checkpoint) and may be torn, foreign or written by a newer build.
// DecodeJournal must never panic; it either rejects the document with an
// error or returns a journal that validates and survives a re-encode
// unchanged.
func FuzzDecodeJournal(f *testing.F) {
	good, err := (&Journal{
		From: "CORADD", To: "CORADD+2",
		Kept:    []string{"\x06\x00\x0b\x00\xff\x06\x00"},
		Dropped: []string{"\x01\x00\xff\x01\x00"},
		Builds:  []string{"\x03\x00\xff\x03\x00", "\x04\x00\xff\x04\x00", "\x07\x00\xff\x07\x00\xfe"},
		Done:    []int{2}, Skipped: []int{0}, Next: []int{1},
	}).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte(`{"format":"coradd-journal","version":1,"builds":["zz"],"next":[0]}`))
	f.Add([]byte(`{"format":"coradd-journal","version":99,"builds":[]}`))
	f.Add([]byte(`{"format":"coradd-checkpoint","version":1,"builds":["00"],"next":[0]}`))
	f.Add([]byte(`{"format":"coradd-journal","version":1,"builds":["00"],"done":[0],"next":[0]}`))
	f.Add([]byte(`{"format":"coradd-journal","version":1,"builds":["00"],"next":[-1]}`))
	f.Add([]byte(`migration in progress`))
	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := DecodeJournal(data)
		if err != nil {
			if j != nil {
				t.Fatalf("rejected document still returned a journal: %v", err)
			}
			return
		}
		if err := j.Validate(); err != nil {
			t.Fatalf("accepted journal does not validate: %v", err)
		}
		enc, err := j.Encode()
		if err != nil {
			t.Fatal(err)
		}
		j2, err := DecodeJournal(enc)
		if err != nil {
			t.Fatalf("re-encoded journal rejected: %v", err)
		}
		enc2, err := j2.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if string(enc) != string(enc2) {
			t.Fatalf("journal changed across a round trip:\n%s\n%s", enc, enc2)
		}
	})
}
