package serialize

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// errStopIter halts an Iter pass that only needed the header.
var errStopIter = errors.New("serialize: stop iteration")

// Checkpoint is a file-backed store of per-cell sweep results — the
// persistence side of runner's checkpoint/resume hook. Completed cells
// are kept as raw JSON keyed by cell index. A legacy JSON store is
// rewritten atomically (write-to-temp, rename) on every write; a stream
// store (".gz" path) gets one gzip member appended per write, so a
// write costs O(cells written), and a member torn by a crash is
// truncated away by the write that failed or by the next Load. Either
// way a killed sweep never leaves a store that fails to resume.
//
// The zero value is not usable; construct with NewCheckpoint.
type Checkpoint struct {
	path string

	mu          sync.Mutex
	fingerprint string
	cells       map[int]json.RawMessage
	// unflushed lists the cells stored since the last write; Store writes
	// every flushEvery cells, and Flush always writes when any are
	// unflushed.
	unflushed  []int
	flushEvery int

	// Stream-store state. appendable says the file's first size bytes are
	// complete members holding the header and every written cell, so the
	// next write appends a member there; otherwise it rewrites the whole
	// store. sw encodes members into buf, reusing one gzip.Writer.
	appendable bool
	size       int64
	sw         *StoreWriter
	buf        bytes.Buffer
}

// NewCheckpoint returns a checkpoint store persisted at path. Cells are
// written through on every Store; see SetFlushEvery to batch writes for
// sweeps with many cheap cells.
func NewCheckpoint(path string) *Checkpoint {
	return &Checkpoint{path: path, flushEvery: 1}
}

// SetFingerprint binds the store to one specific sweep. The fingerprint
// — typically the sweep's parameters rendered as a string — is written
// into the file, and Load refuses a store whose fingerprint differs:
// without this, resuming with changed options (seed, iterations, grid
// contents of the same size) would silently mix stale cells into the
// new result. Set it before Load.
func (c *Checkpoint) SetFingerprint(fp string) {
	c.mu.Lock()
	c.fingerprint = fp
	c.mu.Unlock()
}

// SetFlushEvery makes Store rewrite the file only every n-th stored cell
// (Flush still always persists). n < 1 is treated as 1.
func (c *Checkpoint) SetFlushEvery(n int) {
	if n < 1 {
		n = 1
	}
	c.mu.Lock()
	c.flushEvery = n
	c.mu.Unlock()
}

// checkpointFile is the on-disk format: cell indices as JSON object keys.
type checkpointFile struct {
	Fingerprint string                     `json:"fingerprint,omitempty"`
	Cells       map[string]json.RawMessage `json:"cells"`
}

// Load implements runner.Checkpoint: it reads the store from disk (an
// absent file is an empty store) and returns the cells by index.
func (c *Checkpoint) Load() (map[int]json.RawMessage, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.unflushed = c.unflushed[:0]
	c.appendable, c.size = false, 0
	data, err := os.ReadFile(c.path)
	if os.IsNotExist(err) {
		c.cells = map[int]json.RawMessage{}
		return map[int]json.RawMessage{}, nil
	}
	if err != nil {
		return nil, err
	}
	if isGzip(data) {
		// Stream-format store (see stream.go): decode record by record,
		// then serve the same map shape the JSON path produces.
		cells, size, err := loadStream(c.path, data, c.fingerprint)
		if err != nil {
			return nil, err
		}
		c.cells = cells
		c.appendable, c.size = true, size
		out := make(map[int]json.RawMessage, len(cells))
		for k, raw := range cells {
			out[k] = raw
		}
		return out, nil
	}
	var cf checkpointFile
	if err := json.Unmarshal(data, &cf); err != nil {
		// Atomic rename makes a torn write unlikely, but stores can still
		// arrive truncated or corrupt (a crash mid-copy between machines,
		// a full disk, a worker killed while streaming its store over the
		// network). Name the file and say what to do — never let a bad
		// store surface as a bare decode failure three layers up.
		return nil, fmt.Errorf("serialize: checkpoint %s is corrupt or truncated (%d bytes): %w — a crash mid-write? delete it (or restore it from the worker that wrote it) and re-run",
			c.path, len(data), err)
	}
	if cf.Fingerprint != c.fingerprint {
		return nil, fmt.Errorf("serialize: checkpoint %s was written by a different sweep (%q, want %q) — delete it or pass a fresh path",
			c.path, cf.Fingerprint, c.fingerprint)
	}
	c.cells = make(map[int]json.RawMessage, len(cf.Cells))
	out := make(map[int]json.RawMessage, len(cf.Cells))
	for key, raw := range cf.Cells {
		k, err := strconv.Atoi(key)
		if err != nil {
			return nil, fmt.Errorf("serialize: checkpoint %s: bad cell key %q", c.path, key)
		}
		c.cells[k] = raw
		out[k] = raw
	}
	return out, nil
}

// Store implements runner.Checkpoint: it records one completed cell and
// persists the store according to the flush policy.
func (c *Checkpoint) Store(index int, cell json.RawMessage) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cells == nil {
		c.cells = map[int]json.RawMessage{}
	}
	c.cells[index] = cell
	c.unflushed = append(c.unflushed, index)
	if len(c.unflushed) >= c.flushEvery {
		return c.writeLocked()
	}
	return nil
}

// StoreDedup records one completed cell, tolerating duplicate
// completions: a cell already present with byte-identical content is a
// no-op (stored = false), while a cell present with *different* bytes
// is an error — the sweep is deterministic, so a disagreeing duplicate
// means the result came from a different sweep (or a corrupted worker)
// and must never silently overwrite the committed value. This is the
// commit primitive of the coordinator protocol (internal/coord), where
// reclaimed leases and duplicated deliveries make redundant completions
// routine.
func (c *Checkpoint) StoreDedup(index int, cell json.RawMessage) (stored bool, err error) {
	c.mu.Lock()
	if prev, ok := c.cells[index]; ok {
		c.mu.Unlock()
		if !bytes.Equal(prev, cell) {
			return false, fmt.Errorf("serialize: checkpoint %s: duplicate completion of cell %d disagrees with the committed value (%d vs %d bytes) — results from a different sweep?",
				c.path, index, len(cell), len(prev))
		}
		return false, nil
	}
	c.mu.Unlock()
	return true, c.Store(index, cell)
}

// PeekFingerprint reads only the fingerprint of the store at path,
// without binding a Checkpoint to it or validating its cells. Merge
// uses it to diagnose mixed-sweep shards with both fingerprints in
// hand; an unreadable or corrupt store fails with the same per-file
// diagnostics Load gives.
func PeekFingerprint(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	if isGzip(data) {
		// Stream-format store: the fingerprint is the header record, so
		// only the first member's first value is decoded.
		fp, err := Iter(path, func(int, json.RawMessage) error { return errStopIter })
		if err != nil && err != errStopIter {
			return "", err
		}
		return fp, nil
	}
	var cf checkpointFile
	if err := json.Unmarshal(data, &cf); err != nil {
		return "", fmt.Errorf("serialize: checkpoint %s is corrupt or truncated (%d bytes): %w — a crash mid-write? delete it (or restore it from the worker that wrote it) and re-run",
			path, len(data), err)
	}
	return cf.Fingerprint, nil
}

// Flush implements runner.Checkpoint: it persists any cells not yet on
// disk.
func (c *Checkpoint) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.unflushed) == 0 {
		return nil
	}
	return c.writeLocked()
}

// Touch persists the store even when it holds no cells (Store/Flush
// only write when something is unflushed). A shard of a distributed sweep
// that owns zero cells still must leave a fingerprinted empty store
// behind, or the merge would refuse the "missing" file despite the
// other shards covering every cell.
func (c *Checkpoint) Touch() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := os.Stat(c.path); err == nil {
		return nil
	}
	return c.writeLocked()
}

// Remove deletes the store from disk — call it after a sweep completes
// so a finished checkpoint is not mistaken for a resumable one.
func (c *Checkpoint) Remove() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cells = nil
	c.unflushed = c.unflushed[:0]
	c.appendable, c.size = false, 0
	err := os.Remove(c.path)
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// writeLocked persists the unflushed cells. Callers hold c.mu. Paths
// ending in ".gz" opt into the stream format (stream.go); everything
// else rewrites the legacy JSON object, byte-identical to prior
// releases. On failure the cells stay unflushed for the next write.
func (c *Checkpoint) writeLocked() error {
	var err error
	if strings.HasSuffix(c.path, streamSuffix) {
		err = c.writeMemberLocked()
	} else {
		err = c.writeJSONLocked()
	}
	if err == nil {
		c.unflushed = c.unflushed[:0]
	}
	return err
}

// writeJSONLocked rewrites the legacy JSON store atomically.
func (c *Checkpoint) writeJSONLocked() error {
	cf := checkpointFile{
		Fingerprint: c.fingerprint,
		Cells:       make(map[string]json.RawMessage, len(c.cells)),
	}
	for k, raw := range c.cells {
		cf.Cells[strconv.Itoa(k)] = raw
	}
	data, err := json.Marshal(cf)
	if err != nil {
		return err
	}
	return writeFileAtomic(c.path, data)
}

// writeMemberLocked writes one gzip member holding the unflushed cells,
// ascending by index. It appends the member when the store is
// appendable; otherwise — a fresh store, one never loaded, a legacy
// JSON store at a ".gz" path, or one that vanished or shrank under the
// sweep — the member holds the header and every cell and replaces the
// file atomically, so a store written once is byte-identical however
// its cells arrived.
func (c *Checkpoint) writeMemberLocked() error {
	keys := c.unflushed
	if !c.appendable {
		keys = make([]int, 0, len(c.cells))
		for k := range c.cells {
			keys = append(keys, k)
		}
	}
	sort.Ints(keys)
	if c.sw == nil {
		c.sw = &StoreWriter{dst: &c.buf}
	}
	c.buf.Reset()
	var err error
	if !c.appendable {
		err = c.sw.header(c.fingerprint)
	}
	for i, k := range keys {
		if err != nil {
			break
		}
		if i > 0 && k == keys[i-1] {
			continue // stored again since the last write
		}
		err = c.sw.Append(k, c.cells[k])
	}
	if ferr := c.sw.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		return err
	}
	if !c.appendable {
		if err := writeFileAtomic(c.path, c.buf.Bytes()); err != nil {
			return err
		}
		c.appendable, c.size = true, int64(c.buf.Len())
		return nil
	}
	err = appendMember(c.path, c.size, c.buf.Bytes())
	if err == errStoreMoved {
		c.appendable = false
		return c.writeMemberLocked()
	}
	if err != nil {
		return err
	}
	c.size += int64(c.buf.Len())
	return nil
}

// errStoreMoved reports a stream store that vanished or shrank since it
// was last written, so appending to it would lose cells.
var errStoreMoved = errors.New("serialize: checkpoint store moved")

// writeMember is the one write that appends a member; tests replace it
// to inject failed and short writes.
var writeMember = (*os.File).Write

// appendMember appends one gzip member at offset at of the store at
// path with a single write, opening the file only for the call. Bytes
// past at are a torn member (a crash mid-append, or the tail Load
// dropped) and are cut off first. A failed or short write truncates the
// file back to at, so the store never keeps a torn member.
func appendMember(path string, at int64, member []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if os.IsNotExist(err) {
		return errStoreMoved
	}
	if err != nil {
		return err
	}
	fi, err := f.Stat()
	switch {
	case err != nil:
	case fi.Size() < at:
		err = errStoreMoved
	case fi.Size() > at:
		err = f.Truncate(at)
	}
	if err == nil {
		if _, err = writeMember(f, member); err != nil {
			if terr := f.Truncate(at); terr != nil {
				err = fmt.Errorf("%w (and truncating the torn member failed: %v)", err, terr)
			}
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeFileAtomic replaces path with data: write to a temp file beside
// it, then rename.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
