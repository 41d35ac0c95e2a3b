package serialize

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCheckpointLoad feeds arbitrary bytes to Checkpoint.Load at a
// legacy JSON path and at a stream (".gz") path. Load must never panic;
// when it succeeds, storing one more cell, flushing, and loading afresh
// must return every cell the first Load did, plus the new one. That is
// the resume contract a torn or hand-edited store has to keep.
func FuzzCheckpointLoad(f *testing.F) {
	dir := f.TempDir()
	seed := func(name string, write func(path string)) {
		path := filepath.Join(dir, name)
		write(path)
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		if len(data) > 8 {
			f.Add(data[:len(data)-5]) // torn tail
		}
	}
	store := func(flushEvery int, ks ...int) func(string) {
		return func(path string) {
			ck := NewCheckpoint(path)
			ck.SetFingerprint("fuzz sweep")
			ck.SetFlushEvery(flushEvery)
			for _, k := range ks {
				if err := ck.Store(k, json.RawMessage(fmt.Sprintf(`{"ratio":%d.5,"instance":[%d]}`, k, k))); err != nil {
					f.Fatal(err)
				}
			}
			if err := ck.Flush(); err != nil {
				f.Fatal(err)
			}
		}
	}
	seed("legacy.json", store(10, 0, 3, 1))
	seed("one-member.gz", store(10, 0, 3, 1))
	seed("multi-member.gz", store(1, 2, 0, 5, 4))
	seed("batched.gz", store(2, 0, 1, 2, 3, 4))
	f.Add([]byte{})
	f.Add([]byte("not a store"))
	f.Add([]byte(`{"fingerprint":"fuzz sweep","cells":{"1":null,"-2":"<&>"}}`))
	f.Add([]byte{0x1f, 0x8b, 0x08, 0x00, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, name := range []string{"store.ckpt", "store.ckpt.gz"} {
			path := filepath.Join(t.TempDir(), name)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			fp, _ := PeekFingerprint(path) // bind to the store's own sweep to reach past the fingerprint check
			ck := NewCheckpoint(path)
			ck.SetFingerprint(fp)
			before, err := ck.Load()
			if err != nil {
				continue
			}
			next := len(before)
			for _, taken := before[next]; taken; _, taken = before[next] {
				next++
			}
			if err := ck.Store(next, json.RawMessage(`"fuzz"`)); err != nil {
				t.Fatalf("%s: store after a clean load: %v", name, err)
			}
			if err := ck.Flush(); err != nil {
				t.Fatalf("%s: flush after a clean load: %v", name, err)
			}
			again := NewCheckpoint(path)
			again.SetFingerprint(fp)
			after, err := again.Load()
			if err != nil {
				t.Fatalf("%s: reload after a store: %v", name, err)
			}
			if len(after) != len(before)+1 || string(after[next]) != `"fuzz"` {
				t.Fatalf("%s: reload holds %d cells, want %d plus cell %d", name, len(after), len(before), next)
			}
			for k, raw := range before {
				if got, ok := after[k]; !ok || !bytes.Equal(canonJSON(got), canonJSON(raw)) {
					t.Fatalf("%s: cell %d was %s, reloads as %s", name, k, raw, got)
				}
			}
		}
	})
}

// canonJSON is the form encoding/json writes a raw cell in: compacted,
// HTML-escaped, and null for a missing value.
func canonJSON(raw json.RawMessage) []byte {
	if raw == nil {
		return []byte("null")
	}
	var c, e bytes.Buffer
	if err := json.Compact(&c, raw); err != nil {
		return raw
	}
	json.HTMLEscape(&e, c.Bytes())
	return e.Bytes()
}
