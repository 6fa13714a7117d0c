package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// body is a literal checkpoint body: the envelope treats it as opaque.
const body = `{"design":{"name":"seed","base":{"Cols":[0,1,2],"ClusterKey":[0]}},"workload":[{"Name":"q<1>"}]}`

// stater is the smallest State owner Capture accepts.
type stater struct{ Name string }

func (s stater) State() stater { return s }

// TestCaptureDecode: Capture encodes whatever State returns; Decode parses
// it back, and a body that does not parse into the target is ErrCorrupt.
func TestCaptureDecode(t *testing.T) {
	cp, err := Capture(stater{Name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	var got stater
	if err := cp.Decode(&got); err != nil || got.Name != "a" {
		t.Fatalf("decoded %+v, %v", got, err)
	}
	var n int
	if err := cp.Decode(&n); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("decoding into the wrong shape: got %v, want ErrCorrupt", err)
	}
}

// TestSaveIsAtomic: repeated Saves over an existing checkpoint leave no
// temp droppings, and the file always loads back to the body saved —
// compacted, so the checksum covers what Load reads.
func TestSaveIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cp.json")
	for i := 0; i < 3; i++ {
		if err := Save(path, &Checkpoint{Body: []byte(" " + body + "\n")}); err != nil {
			t.Fatal(err)
		}
		cp, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(cp.Body), `"design":{"name":"seed"`) {
			t.Fatalf("body came back as %s", cp.Body)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("directory holds %d entries after repeated saves, want just the checkpoint", len(ents))
	}
}

// TestLoadRejectsCorruption: truncations and a bit flip in every third
// byte are all rejected — never loaded as a plausible-but-wrong
// checkpoint — while the intact file still loads.
func TestLoadRejectsCorruption(t *testing.T) {
	good, err := encode([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decode(good, "good"); err != nil {
		t.Fatalf("intact checkpoint rejected: %v", err)
	}
	check := func(name string, data []byte) {
		t.Helper()
		if _, err := decode(data, name); err == nil {
			t.Errorf("%s: accepted a damaged checkpoint", name)
		} else if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
			t.Errorf("%s: damage reported as neither ErrCorrupt nor ErrVersion: %v", name, err)
		}
	}
	for cut := 1; cut < len(good); cut += 7 {
		check("truncated", good[:cut])
	}
	// A single bit flip anywhere must trip the checksum (or the JSON
	// parse — either way, a loud rejection).
	for i := 0; i < len(good); i += 3 {
		flipped := bytes.Clone(good)
		flipped[i] ^= 0x10
		check("bit flip", flipped)
	}
	check("foreign file", []byte(`{"format":"coradd-journal","version":1,"builds":[]}`))
	check("no body", []byte(`{"format":"coradd-checkpoint","version":1,"crc32":0}`))
	check("not json", []byte("checkpoint"))
}

// TestLoadVersionAndMissing: an unknown version fails with ErrVersion
// naming both versions; a missing file surfaces os.ErrNotExist so a
// fresh start is distinguishable from damage.
func TestLoadVersionAndMissing(t *testing.T) {
	dir := t.TempDir()
	future := filepath.Join(dir, "future.json")
	if err := os.WriteFile(future, []byte(`{"format":"coradd-checkpoint","version":99,"crc32":0,"body":{}}`), 0o600); err != nil {
		t.Fatal(err)
	}
	_, err := Load(future)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("future version: got %v, want ErrVersion", err)
	}
	if !strings.Contains(err.Error(), "99") {
		t.Errorf("version error does not name the unknown version: %v", err)
	}
	_, err = Load(filepath.Join(dir, "absent.json"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: got %v, want os.ErrNotExist", err)
	}
}

// FuzzLoad: a checkpoint file is bytes this process did not just write —
// a previous life's, possibly torn, flipped, foreign or from a newer
// build. The envelope decoder must never panic and must classify every
// rejection as ErrCorrupt or ErrVersion; whatever it accepts re-encodes
// to an envelope it accepts again with the same body. What the body
// means is its owner's to check (adapt.FuzzRestore).
func FuzzLoad(f *testing.F) {
	for _, b := range []string{body, `{}`, `null`, `[1,"é"]`} {
		good, err := encode([]byte(b))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(good)
		f.Add(good[:len(good)*2/3])
	}
	f.Add([]byte(`{"format":"coradd-checkpoint","version":99,"crc32":0,"body":{}}`))
	f.Add([]byte(`{"format":"coradd-checkpoint","version":1,"crc32":2745614147,"body":{}}`))
	f.Add([]byte(`{"format":"coradd-journal","version":1,"builds":[]}`))
	f.Add([]byte("checkpoint"))
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := decode(data, "fuzz")
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("rejection is neither ErrCorrupt nor ErrVersion: %v", err)
			}
			return
		}
		again, err := encode(cp.Body)
		if err != nil {
			t.Fatalf("accepted checkpoint does not re-encode: %v", err)
		}
		cp2, err := decode(again, "fuzz")
		if err != nil {
			t.Fatalf("re-encoded checkpoint rejected: %v", err)
		}
		if thrice, err := encode(cp2.Body); err != nil || !bytes.Equal(thrice, again) {
			t.Fatalf("re-encoding is not stable: %v\n%s\nvs\n%s", err, thrice, again)
		}
	})
}
