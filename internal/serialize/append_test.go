package serialize

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// memberBytes encodes cells (ascending, no header) as the one gzip
// member a Checkpoint appends for them.
func memberBytes(t *testing.T, cells ...string) []byte {
	t.Helper()
	var b bytes.Buffer
	w := &StoreWriter{dst: &b}
	for _, c := range cells {
		var k int
		if _, err := fmt.Sscanf(c, "[%d]", &k); err != nil {
			t.Fatal(err)
		}
		if err := w.Append(k, json.RawMessage(c)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// countMembers decodes data member by member and returns how many
// complete gzip members it holds.
func countMembers(t *testing.T, data []byte) int {
	t.Helper()
	r := bytes.NewReader(data)
	zr, err := gzip.NewReader(r)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		zr.Multistream(false)
		if _, err := io.Copy(io.Discard, zr); err != nil {
			t.Fatal(err)
		}
		n++
		if err := zr.Reset(r); err == io.EOF {
			return n
		} else if err != nil {
			t.Fatal(err)
		}
	}
}

// storeCells opens a .gz checkpoint flushing every cell and stores
// cells [k] for k in ks, returning the store and its path.
func storeCells(t *testing.T, dir, fp string, ks ...int) (*Checkpoint, string) {
	t.Helper()
	path := filepath.Join(dir, "ck.json.gz")
	ck := NewCheckpoint(path)
	ck.SetFingerprint(fp)
	if _, err := ck.Load(); err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		if err := ck.Store(k, json.RawMessage(fmt.Sprintf("[%d]", k))); err != nil {
			t.Fatal(err)
		}
	}
	return ck, path
}

// loadAll loads the store at path with a fresh Checkpoint.
func loadAll(t *testing.T, path, fp string) map[int]json.RawMessage {
	t.Helper()
	ck := NewCheckpoint(path)
	ck.SetFingerprint(fp)
	cells, err := ck.Load()
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

func wantCells(t *testing.T, cells map[int]json.RawMessage, ks ...int) {
	t.Helper()
	if len(cells) != len(ks) {
		t.Fatalf("%d cells, want %d: %v", len(cells), len(ks), cells)
	}
	for _, k := range ks {
		if got, want := string(cells[k]), fmt.Sprintf("[%d]", k); got != want {
			t.Fatalf("cell %d = %s, want %s", k, got, want)
		}
	}
}

// TestCheckpointStreamAppendsOneMemberPerFlush pins the append-only
// write path: with a flush per cell, every Store leaves the previous
// file as a strict prefix and adds exactly one member holding exactly
// that cell — never a re-encode of the whole store.
func TestCheckpointStreamAppendsOneMemberPerFlush(t *testing.T) {
	const fp = "sweep append"
	ck, path := storeCells(t, t.TempDir(), fp)
	var prev []byte
	for k := 0; k < 6; k++ {
		if err := ck.Store(k, json.RawMessage(fmt.Sprintf("[%d]", k))); err != nil {
			t.Fatal(err)
		}
		cur, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if k > 0 {
			if len(cur) <= len(prev) || !bytes.Equal(cur[:len(prev)], prev) {
				t.Fatalf("store %d rewrote earlier bytes", k)
			}
			if got, want := cur[len(prev):], memberBytes(t, fmt.Sprintf("[%d]", k)); !bytes.Equal(got, want) {
				t.Fatalf("store %d appended %d bytes, want the %d-byte member of that cell alone", k, len(got), len(want))
			}
		}
		if n := countMembers(t, cur); n != k+1 {
			t.Fatalf("after %d stores the file holds %d members", k+1, n)
		}
		prev = cur
	}

	// Resume: Load, Store, then a fresh Load sees every cell.
	ck2 := NewCheckpoint(path)
	ck2.SetFingerprint(fp)
	if _, err := ck2.Load(); err != nil {
		t.Fatal(err)
	}
	if err := ck2.Store(6, json.RawMessage(`[6]`)); err != nil {
		t.Fatal(err)
	}
	wantCells(t, loadAll(t, path, fp), 0, 1, 2, 3, 4, 5, 6)
}

// TestCheckpointStreamBatchedMemberSorted pins that a batched flush
// appends its cells as one member, ascending by index, with a cell
// stored twice in the batch written once.
func TestCheckpointStreamBatchedMemberSorted(t *testing.T) {
	const fp = "sweep batch"
	ck, path := storeCells(t, t.TempDir(), fp, 0)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ck.SetFlushEvery(4)
	for _, k := range []int{3, 1, 2, 1} {
		if err := ck.Store(k, json.RawMessage(fmt.Sprintf("[%d]", k))); err != nil {
			t.Fatal(err)
		}
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after[:len(before)], before) || !bytes.Equal(after[len(before):], memberBytes(t, "[1]", "[2]", "[3]")) {
		t.Fatal("batched flush did not append one sorted, deduplicated member")
	}
	wantCells(t, loadAll(t, path, fp), 0, 1, 2, 3)
}

// TestCheckpointAppendTruncatesOnWriteError pins crash safety without
// temp+rename: a failed or short member write cuts the file back to its
// previous length before returning, and the cells stay pending for the
// next write.
func TestCheckpointAppendTruncatesOnWriteError(t *testing.T) {
	const fp = "sweep short write"
	for _, tc := range []struct {
		name  string
		write func(f *os.File, b []byte) (int, error)
	}{
		{"short write", func(f *os.File, b []byte) (int, error) {
			n, _ := f.Write(b[:len(b)/2])
			return n, errors.New("no space left on device")
		}},
		{"whole write then error", func(f *os.File, b []byte) (int, error) {
			n, _ := f.Write(b)
			return n, errors.New("input/output error")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ck, path := storeCells(t, t.TempDir(), fp, 0, 1)
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			writeMember = tc.write
			err = ck.Store(2, json.RawMessage(`[2]`))
			writeMember = (*os.File).Write
			if err == nil {
				t.Fatal("failed member write reported success")
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, before) {
				t.Fatalf("failed write left %d bytes, want the previous %d", len(after), len(before))
			}
			wantCells(t, loadAll(t, path, fp), 0, 1)
			// The failed cell is still pending: the next write carries it.
			if err := ck.Store(3, json.RawMessage(`[3]`)); err != nil {
				t.Fatal(err)
			}
			wantCells(t, loadAll(t, path, fp), 0, 1, 2, 3)
		})
	}
}

// TestCheckpointLoadRecoversTornTail pins resume after a crash
// mid-append: Load of a store whose final member is torn at any byte
// returns the complete members' cells, the next append cuts the torn
// bytes off, and the recomputed cell restores the exact bytes of the
// untorn store. Iter stays strict about the same file.
func TestCheckpointLoadRecoversTornTail(t *testing.T) {
	const fp = "sweep torn append"
	dir := t.TempDir()
	_, path := storeCells(t, dir, fp, 0, 1, 2, 3)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	last := len(whole) - len(memberBytes(t, "[3]"))
	torn := filepath.Join(dir, "torn.gz")
	for n := last + 1; n < len(whole); n++ {
		if err := os.WriteFile(torn, whole[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		ck := NewCheckpoint(torn)
		ck.SetFingerprint(fp)
		cells, err := ck.Load()
		if err != nil {
			t.Fatalf("torn at %d of %d bytes: %v", n, len(whole), err)
		}
		wantCells(t, cells, 0, 1, 2)
		if _, err := Iter(torn, func(int, json.RawMessage) error { return nil }); err == nil ||
			!strings.Contains(err.Error(), "corrupt or truncated") {
			t.Fatalf("Iter of a torn store at %d bytes: %v", n, err)
		}
		if err := ck.Store(3, json.RawMessage(`[3]`)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(torn)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, whole) {
			t.Fatalf("torn at %d bytes: the recomputed cell did not restore the store's bytes", n)
		}
	}
}

// TestCheckpointLoadRefusesDamageBeforeTail pins the limits of torn-tail
// recovery: a torn header member, or damage in a member followed by
// more data, is corruption and fails Load — only a file that ends
// inside its final member is recovered.
func TestCheckpointLoadRefusesDamageBeforeTail(t *testing.T) {
	const fp = "sweep damaged"
	dir := t.TempDir()
	_, path := storeCells(t, dir, fp, 0, 1, 2)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	first := len(whole) - len(memberBytes(t, "[1]")) - len(memberBytes(t, "[2]"))
	badMagic := append([]byte(nil), whole...)
	badMagic[first] = 0 // the second member's gzip magic
	for name, data := range map[string][]byte{
		"torn header member": whole[:first-3],
		"bad member header":  badMagic,
	} {
		bad := filepath.Join(dir, "bad.gz")
		if err := os.WriteFile(bad, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck := NewCheckpoint(bad)
		ck.SetFingerprint(fp)
		if _, err := ck.Load(); err == nil || !strings.Contains(err.Error(), "corrupt or truncated") {
			t.Fatalf("%s: Load = %v, want the corrupt-store diagnostic", name, err)
		}
	}
}

// TestCheckpointStreamConvertsLegacyStore pins the one full rewrite the
// append path still does: a legacy JSON store at a ".gz" path becomes a
// single-member stream store on its first write, then grows by appends.
func TestCheckpointStreamConvertsLegacyStore(t *testing.T) {
	const fp = "sweep legacy"
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.gz")
	legacy := writeShard(t, dir, "legacy.json", fp, map[int]string{0: `[0]`, 1: `[1]`})
	if err := os.Rename(legacy, path); err != nil {
		t.Fatal(err)
	}
	ck := NewCheckpoint(path)
	ck.SetFingerprint(fp)
	if _, err := ck.Load(); err != nil {
		t.Fatal(err)
	}
	if err := ck.Store(2, json.RawMessage(`[2]`)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !isGzip(data) || countMembers(t, data) != 1 {
		t.Fatal("legacy store not converted to a one-member stream store")
	}
	if err := ck.Store(3, json.RawMessage(`[3]`)); err != nil {
		t.Fatal(err)
	}
	grown, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(grown[:len(data)], data) || countMembers(t, grown) != 2 {
		t.Fatal("the write after conversion did not append")
	}
	wantCells(t, loadAll(t, path, fp), 0, 1, 2, 3)
}

// TestCheckpointStreamRewritesVanishedStore pins the fallback when an
// appendable store disappears under the sweep: the next write rewrites
// every cell rather than failing or appending a headerless member.
func TestCheckpointStreamRewritesVanishedStore(t *testing.T) {
	const fp = "sweep vanished"
	ck, path := storeCells(t, t.TempDir(), fp, 0, 1)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := ck.Store(2, json.RawMessage(`[2]`)); err != nil {
		t.Fatal(err)
	}
	wantCells(t, loadAll(t, path, fp), 0, 1, 2)
}
