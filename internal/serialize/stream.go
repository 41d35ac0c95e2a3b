package serialize

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
)

// Streaming checkpoint store (the scale-tier format).
//
// The legacy JSON store holds every cell of a sweep in one object, so
// writing or merging a store means materializing all of it — fine at
// Table I sizes, not at 10k-cell scale tiers. The stream format is an
// append-only sequence of gzip members whose decompressed content is
// JSON values: first a header object carrying the fingerprint, then one
// record per committed cell. Appends never rewrite earlier bytes, each
// Flush closes a gzip member so everything before it is durable and
// self-delimiting, and readers decode record by record without ever
// holding the whole store.
//
// Format sniffing is by magic bytes: a store starting with 0x1f 0x8b is
// a gzip stream; anything else is the legacy JSON object. Checkpoint
// reads both transparently (Load/PeekFingerprint sniff), and writes the
// stream format whenever its path ends in ".gz" — the format choice
// rides on the path so every existing byte-identity harness that
// compares JSON stores is untouched.

// streamHeader is the first JSON value of a stream store.
type streamHeader struct {
	Fingerprint string `json:"fingerprint"`
}

// streamRecord is one committed cell.
type streamRecord struct {
	Index int             `json:"i"`
	Cell  json.RawMessage `json:"cell"`
}

// isGzip reports whether data begins with the gzip magic bytes.
func isGzip(data []byte) bool {
	return len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b
}

// streamSuffix is the path suffix that opts a Checkpoint into writing
// the stream format.
const streamSuffix = ".gz"

// StoreWriter appends cells to a stream-format checkpoint store without
// holding prior contents. Creating one on a fresh path writes the
// fingerprint header; creating one on an existing stream store verifies
// the fingerprint and appends after the existing members. Append buffers
// into the current gzip member; Flush closes the member, making every
// cell appended so far durable and readable even if the process dies
// before Close. StoreWriter is not safe for concurrent use.
//
// It is the only encoder of stream bytes: Checkpoint drives one over an
// in-memory buffer to build each member it appends.
type StoreWriter struct {
	dst      io.Writer // the store file, or Checkpoint's member buffer
	zw       *gzip.Writer
	enc      *json.Encoder
	inMember bool // a gzip member is open
	n        int
}

// NewStoreWriter opens (or creates) the stream store at path for
// appending cells under the given fingerprint.
func NewStoreWriter(path, fingerprint string) (*StoreWriter, error) {
	if data, err := os.ReadFile(path); err == nil && len(data) > 0 {
		if !isGzip(data) {
			return nil, fmt.Errorf("serialize: %s is a legacy JSON store — the streaming writer only appends to stream-format (.gz) stores; merge it into a fresh path instead", path)
		}
		got, err := PeekFingerprint(path)
		if err != nil {
			return nil, err
		}
		if got != fingerprint {
			return nil, fmt.Errorf("serialize: checkpoint %s was written by a different sweep (%q, want %q) — delete it or pass a fresh path",
				path, got, fingerprint)
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		return &StoreWriter{dst: f}, nil
	} else if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	w := &StoreWriter{dst: f}
	if err := w.header(fingerprint); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// begin opens a gzip member on the destination unless one is open. The
// gzip.Writer (and its flate state) is allocated once and Reset for
// every later member.
func (w *StoreWriter) begin() {
	if w.inMember {
		return
	}
	if w.zw == nil {
		w.zw = gzip.NewWriter(w.dst)
		w.enc = json.NewEncoder(w.zw)
	} else {
		w.zw.Reset(w.dst)
	}
	w.inMember = true
}

// header writes the fingerprint header, the first value of a store.
func (w *StoreWriter) header(fingerprint string) error {
	w.begin()
	return w.enc.Encode(streamHeader{Fingerprint: fingerprint})
}

// Append commits one cell to the store. The write lands in the current
// gzip member and becomes durable at the next Flush (or Close).
func (w *StoreWriter) Append(index int, cell json.RawMessage) error {
	w.begin()
	w.n++
	return w.enc.Encode(streamRecord{Index: index, Cell: cell})
}

// Cells returns the number of cells appended through this writer.
func (w *StoreWriter) Cells() int { return w.n }

// Flush closes the current gzip member, so every cell appended so far
// survives a crash as a complete, readable store prefix. The next
// Append opens a new member (gzip readers concatenate members
// transparently).
func (w *StoreWriter) Flush() error {
	if !w.inMember {
		return nil
	}
	w.inMember = false
	return w.zw.Close()
}

// Close flushes the current member and closes the file.
func (w *StoreWriter) Close() error {
	err := w.Flush()
	if c, ok := w.dst.(io.Closer); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Iter streams the checkpoint store at path — either format — calling
// fn for every cell in on-disk order (ascending index for legacy JSON
// stores, append order for stream stores) and returning the store's
// fingerprint. A stream store is decoded record by record, so the
// store's full contents are never resident; fn's cell slice is only
// valid during the call. Iteration stops at fn's first error, which is
// returned verbatim. A truncated stream store (torn final member) fails
// with the same corrupt-store diagnostics Load gives.
func Iter(path string, fn func(index int, cell json.RawMessage) error) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	magic, err := br.Peek(2)
	if err != nil || !isGzip(magic) {
		// Legacy JSON store: one object, necessarily materialized.
		data, err := io.ReadAll(br)
		if err != nil {
			return "", err
		}
		var cf checkpointFile
		if err := json.Unmarshal(data, &cf); err != nil {
			return "", corruptErr(path, int64(len(data)), err)
		}
		keys := make([]int, 0, len(cf.Cells))
		byKey := make(map[int]json.RawMessage, len(cf.Cells))
		for key, raw := range cf.Cells {
			k, err := strconv.Atoi(key)
			if err != nil {
				return "", fmt.Errorf("serialize: checkpoint %s: bad cell key %q", path, key)
			}
			keys = append(keys, k)
			byKey[k] = raw
		}
		sort.Ints(keys)
		for _, k := range keys {
			if err := fn(k, byKey[k]); err != nil {
				return cf.Fingerprint, err
			}
		}
		return cf.Fingerprint, nil
	}
	zr, err := gzip.NewReader(br)
	if err != nil {
		return "", corruptErr(path, fileSize(f), err)
	}
	defer zr.Close()
	dec := json.NewDecoder(zr)
	var hdr streamHeader
	if err := dec.Decode(&hdr); err != nil {
		return "", corruptErr(path, fileSize(f), err)
	}
	for {
		var rec streamRecord
		if err := dec.Decode(&rec); err == io.EOF {
			return hdr.Fingerprint, nil
		} else if err != nil {
			return hdr.Fingerprint, corruptErr(path, fileSize(f), err)
		}
		if err := fn(rec.Index, rec.Cell); err != nil {
			return hdr.Fingerprint, err
		}
	}
}

// corruptErr is the shared diagnostic for unreadable stores in either
// format — the wording operators have learned from the JSON path.
func corruptErr(path string, size int64, err error) error {
	return fmt.Errorf("serialize: checkpoint %s is corrupt or truncated (%d bytes): %w — a crash mid-write? delete it (or restore it from the worker that wrote it) and re-run",
		path, size, err)
}

// fileSize best-effort stats an open file for diagnostics.
func fileSize(f *os.File) int64 {
	if fi, err := f.Stat(); err == nil {
		return fi.Size()
	}
	return -1
}

// loadStream decodes the stream store data read from path for
// Checkpoint.Load. Unlike Iter it recovers a torn final member, which is
// what a crash mid-append leaves behind: the cells of every complete
// member load, and size is the length of those members, where the next
// append cuts the torn bytes off. A torn tail is one the file ends
// inside of; the header member must be complete, and damage anywhere
// else (a bad checksum, garbage after a member) is as fatal as in Iter.
func loadStream(path string, data []byte, wantFP string) (cells map[int]json.RawMessage, size int64, err error) {
	r := bytes.NewReader(data) // an io.ByteReader, so gzip never reads past a member
	corrupt := func(err error) error { return corruptErr(path, int64(len(data)), err) }
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, 0, corrupt(err)
	}
	zr.Multistream(false)
	dec := json.NewDecoder(zr)
	var hdr streamHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, 0, corrupt(err)
	}
	if hdr.Fingerprint != wantFP {
		return nil, 0, fmt.Errorf("serialize: checkpoint %s was written by a different sweep (%q, want %q) — delete it or pass a fresh path",
			path, hdr.Fingerprint, wantFP)
	}
	torn := func(err error) bool {
		return size > 0 && r.Len() == 0 && errors.Is(err, io.ErrUnexpectedEOF)
	}
	cells = map[int]json.RawMessage{}
	var member []streamRecord // a member's cells count only once its checksum verifies
	for {
		member = member[:0]
		for {
			var rec streamRecord
			err := dec.Decode(&rec)
			if err == io.EOF {
				break
			}
			if err != nil {
				if torn(err) {
					return cells, size, nil
				}
				return nil, 0, corrupt(err)
			}
			member = append(member, rec)
		}
		for _, rec := range member {
			cells[rec.Index] = rec.Cell
		}
		size = int64(len(data) - r.Len())
		if err := zr.Reset(r); err == io.EOF {
			return cells, size, nil
		} else if err != nil {
			if torn(err) {
				return cells, size, nil
			}
			return nil, 0, corrupt(err)
		}
		zr.Multistream(false)
		dec = json.NewDecoder(zr)
	}
}
