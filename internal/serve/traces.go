package serve

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"repro/internal/aes"
	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/leakscan"
	"repro/internal/tracestore"
)

// Real-trace ingestion (enabled by Options.DataDir):
//
//	POST /v1/traces                     declare an upload (idempotent)
//	PUT  /v1/traces/{id}/parts/{offset} upload one declared part
//	GET  /v1/traces/{id}                upload status (missing parts)
//	POST /v1/traces/{id}/commit         verify + ingest into a store
//	POST /v1/analyze                    out-of-core CPA/TVLA over a store
//
// The declaration names every part of a serialized trace set (the
// cmd/tracegen wire format) by offset, size and CRC32C; the upload id is
// the declaration's canonical digest, so re-declaring the same content
// resumes the same upload. Parts may arrive in any order, duplicated and
// retried — a part that verifies is a no-op to re-send, and which parts
// are still missing is recomputed from the bytes on disk, so resumption
// survives a server restart. Commit re-verifies every declared part
// against the disk and refuses (409, listing the missing parts) until
// all of them check out; only then is the stream ingested into a chunked
// trace store, atomically renamed into place. Analysis streams the store
// out-of-core through the same cache→singleflight→queue path as every
// other computation, keyed on the store's content digest.

// maxUploadBytes bounds one declared upload (and one part body).
const maxUploadBytes = 1 << 31

// uploadPart is one declared slice of the upload stream.
type uploadPart struct {
	Offset int64 `json:"offset"`
	Size   int64 `json:"size"`
	// CRC32C is the part's digest as 8 lowercase hex digits.
	CRC32C string `json:"crc32c"`
}

// uploadDecl is the POST /v1/traces body: the full upload, part by part.
type uploadDecl struct {
	// Size is the total byte length of the serialized trace set.
	Size int64 `json:"size"`
	// ChunkTraces selects the store chunking at commit (0: default).
	ChunkTraces int `json:"chunk_traces,omitempty"`
	// Parts must tile [0, Size) contiguously in ascending offset order.
	Parts []uploadPart `json:"parts"`
}

// validate checks the declaration's internal consistency.
func (d *uploadDecl) validate() error {
	if d.Size <= 0 || d.Size > maxUploadBytes {
		return fmt.Errorf("serve: upload size %d out of (0, %d]", d.Size, int64(maxUploadBytes))
	}
	if d.ChunkTraces < 0 {
		return fmt.Errorf("serve: negative chunk_traces")
	}
	if len(d.Parts) == 0 {
		return errors.New("serve: upload declares no parts")
	}
	next := int64(0)
	for i, p := range d.Parts {
		switch {
		case p.Offset != next:
			return fmt.Errorf("serve: part %d at offset %d, want %d (parts must tile the stream)", i, p.Offset, next)
		case p.Size <= 0:
			return fmt.Errorf("serve: part %d has size %d", i, p.Size)
		case !crcHexOK(p.CRC32C):
			return fmt.Errorf("serve: part %d digest %q is not 8 lowercase hex digits", i, p.CRC32C)
		}
		next += p.Size
	}
	if next != d.Size {
		return fmt.Errorf("serve: parts cover %d bytes, declaration says %d", next, d.Size)
	}
	return nil
}

func crcHexOK(s string) bool {
	if len(s) != 8 {
		return false
	}
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// uploadStatus is the status body every trace-upload endpoint returns.
type uploadStatus struct {
	ID        string `json:"id"`
	Size      int64  `json:"size"`
	Committed bool   `json:"committed"`
	// Missing lists the offsets of parts not yet verified on disk
	// (absent once committed).
	Missing []int64 `json:"missing,omitempty"`
	// Store describes the committed store.
	Store *storeInfo `json:"store,omitempty"`
}

// storeInfo summarizes a committed store.
type storeInfo struct {
	Digest  string `json:"digest"`
	Traces  int    `json:"traces"`
	Samples int    `json:"samples"`
	AuxLen  int    `json:"aux_len"`
	Chunks  int    `json:"chunks"`
}

// uploads coordinates the resumable-upload state under DataDir:
//
//	uploads/{id}.json  the declaration (persisted, restart-safe)
//	uploads/{id}.bin   the partially assembled stream
//	sets/{id}/         the committed store (atomic rename target)
type uploads struct {
	dir string

	mu    sync.Mutex
	locks map[string]*uploadLock
}

// uploadLock is one upload id's lock. holders, guarded by uploads.mu,
// counts the requests that took it and have not yet released it; the
// last one out deletes the entry, so ids that are gone, or were never
// declared, leave nothing behind.
type uploadLock struct {
	sync.RWMutex
	holders int
}

func newUploads(dir string) *uploads {
	return &uploads{dir: dir, locks: map[string]*uploadLock{}}
}

// idLock returns the lock of one upload id, counting the caller as a
// holder until it calls release; cross-id operations never contend.
func (u *uploads) idLock(id string) *uploadLock {
	u.mu.Lock()
	defer u.mu.Unlock()
	l, ok := u.locks[id]
	if !ok {
		l = &uploadLock{}
		u.locks[id] = l
	}
	l.holders++
	return l
}

// release drops one holder of id's lock taken by idLock.
func (u *uploads) release(id string, l *uploadLock) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if l.holders--; l.holders == 0 {
		delete(u.locks, id)
	}
}

// lock takes an upload exclusively: declare, status and commit, which
// read or replace the assembled stream as a whole.
func (u *uploads) lock(id string) func() {
	l := u.idLock(id)
	l.Lock()
	return func() {
		l.Unlock()
		u.release(id, l)
	}
}

// sharePart takes an upload for one part write. Part writes share it —
// each lands on its own declared byte range — and exclude the
// exclusive holders, so no part lands while a commit reads the stream
// or recreates it after the commit removed it.
func (u *uploads) sharePart(id string) func() {
	l := u.idLock(id)
	l.RLock()
	return func() {
		l.RUnlock()
		u.release(id, l)
	}
}

func (u *uploads) declPath(id string) string { return filepath.Join(u.dir, "uploads", id+".json") }
func (u *uploads) binPath(id string) string  { return filepath.Join(u.dir, "uploads", id+".bin") }
func (u *uploads) setPath(id string) string  { return filepath.Join(u.dir, "sets", id) }

// loadDecl reads a persisted declaration; os.ErrNotExist for unknown ids.
func (u *uploads) loadDecl(id string) (*uploadDecl, error) {
	raw, err := os.ReadFile(u.declPath(id))
	if err != nil {
		return nil, err
	}
	var d uploadDecl
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("serve: parsing upload declaration %s: %w", id, err)
	}
	if err := d.validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// missing re-verifies every declared part against the bytes on disk and
// returns the offsets that do not check out. Trusting only the disk —
// not an in-memory "seen" set — is what makes resumption survive both
// lost requests and server restarts.
func (u *uploads) missing(id string, d *uploadDecl) ([]int64, error) {
	f, err := os.Open(u.binPath(id))
	if errors.Is(err, os.ErrNotExist) {
		out := make([]int64, len(d.Parts))
		for i, p := range d.Parts {
			out[i] = p.Offset
		}
		return out, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []int64
	buf := make([]byte, 0)
	for _, p := range d.Parts {
		if int64(cap(buf)) < p.Size {
			buf = make([]byte, p.Size)
		}
		buf = buf[:p.Size]
		if _, err := f.ReadAt(buf, p.Offset); err != nil {
			out = append(out, p.Offset)
			continue
		}
		if tracestore.CRCHex(buf) != p.CRC32C {
			out = append(out, p.Offset)
		}
	}
	return out, nil
}

// committed reports whether the upload's store exists.
func (u *uploads) committed(id string) bool {
	_, err := os.Stat(filepath.Join(u.setPath(id), tracestore.ManifestName))
	return err == nil
}

// status assembles the full status view for one upload.
func (u *uploads) status(id string, d *uploadDecl) (*uploadStatus, error) {
	st := &uploadStatus{ID: id, Size: d.Size}
	if u.committed(id) {
		st.Committed = true
		s, err := tracestore.Open(u.setPath(id))
		if err != nil {
			return nil, err
		}
		defer s.Close()
		st.Store = &storeInfo{
			Digest: s.Digest(), Traces: s.Traces(), Samples: s.Samples(),
			AuxLen: s.AuxLen(), Chunks: s.Chunks(),
		}
		return st, nil
	}
	missing, err := u.missing(id, d)
	if err != nil {
		return nil, err
	}
	st.Missing = missing
	return st, nil
}

// handleTracesDeclare is POST /v1/traces: register (or re-register) an
// upload. The id is the declaration's canonical digest, so the call is
// idempotent — the same declaration always lands on the same upload, and
// the response reports which parts are still missing.
func (s *Server) handleTracesDeclare(w http.ResponseWriter, r *http.Request) {
	var d uploadDecl
	if err := decodeStrict(r, &d); err != nil {
		badRequest(w, err)
		return
	}
	if err := d.validate(); err != nil {
		badRequest(w, err)
		return
	}
	id := campaign.CanonicalDigest(&d)
	unlock := s.uploads.lock(id)
	defer unlock()
	path := s.uploads.declPath(id)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
		raw, err := json.Marshal(&d)
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
			return
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
			return
		}
	}
	st, err := s.uploads.status(id, &d)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleTracesStatus is GET /v1/traces/{id}.
func (s *Server) handleTracesStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	unlock := s.uploads.lock(id)
	defer unlock()
	d, err := s.uploads.loadDecl(id)
	if errors.Is(err, os.ErrNotExist) {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such upload"})
		return
	}
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	st, err := s.uploads.status(id, d)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleTracesPart is PUT /v1/traces/{id}/parts/{offset}: store one
// declared part. The body must match the declared size and CRC32C
// exactly — a mismatch is refused with 422 before any byte lands, so a
// corrupted transfer can never poison the assembled stream. Duplicate
// and reordered deliveries are no-ops; a retry after a torn write
// simply overwrites the same range with the right bytes. Parts of one
// upload land side by side: they share the upload's lock, which
// declare, status and commit take exclusively.
func (s *Server) handleTracesPart(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	offset, err := strconv.ParseInt(r.PathValue("offset"), 10, 64)
	if err != nil {
		badRequest(w, fmt.Errorf("serve: bad part offset: %w", err))
		return
	}
	unlock := s.uploads.sharePart(id)
	defer unlock()
	d, err := s.uploads.loadDecl(id)
	if errors.Is(err, os.ErrNotExist) {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such upload"})
		return
	}
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	idx := sort.Search(len(d.Parts), func(i int) bool { return d.Parts[i].Offset >= offset })
	if idx == len(d.Parts) || d.Parts[idx].Offset != offset {
		badRequest(w, fmt.Errorf("serve: offset %d is not a declared part boundary", offset))
		return
	}
	part := d.Parts[idx]
	if s.uploads.committed(id) {
		// The store is already sealed; accepting more bytes would be
		// meaningless, refusing a retry would be unhelpful. Verified
		// no-op either way.
		w.WriteHeader(http.StatusNoContent)
		return
	}
	// Read into a buffer of the declared size (plus the room ReadFrom
	// wants to see the end) when the request announces that size, so
	// the body is never copied to grow it.
	var buf bytes.Buffer
	if r.ContentLength == part.Size {
		buf.Grow(int(part.Size) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, part.Size+1)); err != nil {
		badRequest(w, fmt.Errorf("serve: reading part: %w", err))
		return
	}
	body := buf.Bytes()
	if int64(len(body)) != part.Size {
		badRequest(w, fmt.Errorf("serve: part body is %d bytes, declaration says %d", len(body), part.Size))
		return
	}
	if got := tracestore.CRCHex(body); got != part.CRC32C {
		writeJSON(w, http.StatusUnprocessableEntity, apiError{
			Error: fmt.Sprintf("serve: part %d digest %s, declaration says %s — refusing corrupt bytes", offset, got, part.CRC32C),
		})
		return
	}
	f, err := os.OpenFile(s.uploads.binPath(id), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	defer f.Close()
	if _, err := f.WriteAt(body, offset); err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	if err := f.Sync(); err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleTracesCommit is POST /v1/traces/{id}/commit: verify every
// declared part against the disk and ingest the assembled stream into a
// chunked store. An incomplete upload is refused with 409 listing the
// missing parts; a commit of an already committed upload is an
// idempotent success. The store appears atomically: ingestion runs into
// a temp directory renamed into place only after the stream verified
// end to end.
func (s *Server) handleTracesCommit(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	unlock := s.uploads.lock(id)
	defer unlock()
	d, err := s.uploads.loadDecl(id)
	if errors.Is(err, os.ErrNotExist) {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such upload"})
		return
	}
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	if !s.uploads.committed(id) {
		missing, err := s.uploads.missing(id, d)
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
			return
		}
		if len(missing) > 0 {
			st := &uploadStatus{ID: id, Size: d.Size, Missing: missing}
			writeJSON(w, http.StatusConflict, st)
			return
		}
		f, err := os.Open(s.uploads.binPath(id))
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
			return
		}
		tmp := s.uploads.setPath(id) + ".ingest"
		os.RemoveAll(tmp) // leftover from a crashed ingest
		err = os.MkdirAll(filepath.Dir(tmp), 0o755)
		if err == nil {
			err = tracestore.Ingest(tmp, io.LimitReader(f, d.Size), d.ChunkTraces)
		}
		f.Close()
		if err != nil {
			os.RemoveAll(tmp)
			badRequest(w, fmt.Errorf("serve: ingesting upload: %w", err))
			return
		}
		if err := os.Rename(tmp, s.uploads.setPath(id)); err != nil {
			os.RemoveAll(tmp)
			writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
			return
		}
		// The assembled stream served its purpose; the store is the
		// durable artifact now.
		os.Remove(s.uploads.binPath(id))
	}
	st, err := s.uploads.status(id, d)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// analyzeRequest is the POST /v1/analyze body.
type analyzeRequest struct {
	// Set is the committed upload id to analyze.
	Set string `json:"set"`
	// Kind selects the analysis: "cpa" (Figure 3 model) or "tvla".
	Kind string `json:"kind"`
	// KeyByte selects the attacked byte (cpa only).
	KeyByte int `json:"key_byte,omitempty"`
	// Key, when non-empty, is the known AES key as hex (cpa only); the
	// result then reports the true byte's rank.
	Key string `json:"key,omitempty"`
}

// analyzeFingerprintable keys the analysis cache: the store's content
// digest stands in for the traces, so equal stores share results and a
// re-ingested (different) set can never collide.
type analyzeFingerprintable struct {
	Endpoint string `json:"endpoint"`
	Store    string `json:"store"`
	Kind     string `json:"kind"`
	KeyByte  int    `json:"key_byte"`
	Key      string `json:"key"`
}

// handleAnalyze is POST /v1/analyze: out-of-core CPA or TVLA over a
// committed store, served through the shared cache→singleflight→queue
// path. Results over a damaged store still flow — with Complete false
// and the quarantine counts itemized — because the store's digest
// covers only the committed chunk set, and the skip counts ride inside
// the cached body.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req analyzeRequest
	if err := decodeStrict(r, &req); err != nil {
		badRequest(w, err)
		return
	}
	var key []byte
	if req.Key != "" {
		var err error
		if key, err = hex.DecodeString(req.Key); err != nil {
			badRequest(w, fmt.Errorf("serve: key is not hex: %w", err))
			return
		}
		if len(key) != aes.KeySize {
			badRequest(w, fmt.Errorf("serve: key must be %d bytes, got %d", aes.KeySize, len(key)))
			return
		}
	}
	switch req.Kind {
	case "cpa", "tvla":
	default:
		badRequest(w, fmt.Errorf("serve: unknown analysis kind %q (want cpa or tvla)", req.Kind))
		return
	}
	if !s.uploads.committed(req.Set) {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no committed trace set with that id"})
		return
	}
	dir := s.uploads.setPath(req.Set)
	store, err := tracestore.Open(dir)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	digest := store.Digest()
	store.Close()
	fp := campaign.CanonicalDigest(analyzeFingerprintable{
		Endpoint: "analyze", Store: digest, Kind: req.Kind, KeyByte: req.KeyByte, Key: req.Key,
	})
	s.respond(w, r, "analyze", fp, func(ctx context.Context) (any, error) {
		st, err := tracestore.Open(dir)
		if err != nil {
			return nil, err
		}
		defer st.Close()
		switch req.Kind {
		case "tvla":
			return leakscan.RunStoreTVLA(st)
		default:
			return attack.RunStoreCPA(st, attack.StoreCPAOptions{KeyByte: req.KeyByte, Key: key})
		}
	})
}
