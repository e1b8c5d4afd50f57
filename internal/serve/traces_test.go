package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aes"
	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/sca"
	"repro/internal/trace"
	"repro/internal/tracestore"
)

// leakyStream serializes a trace set leaking the Figure 3 model for one
// key byte, returning the wire bytes.
func leakyStream(t *testing.T, n, samples, keyByte int, key byte) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	var buf bytes.Buffer
	sw, err := trace.NewSetWriter(&buf, n, samples)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		pt := make([]byte, aes.BlockSize)
		rng.Read(pt)
		tr := make(trace.Trace, samples)
		for s := range tr {
			tr[s] = rng.NormFloat64()
		}
		tr[samples/2] += 2 * float64(sca.HW8(aes.SubBytesOut(pt[keyByte], key)))
		if err := sw.Append(tr, pt); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// declareParts splits stream into partSize slices and builds the upload
// declaration.
func declareParts(stream []byte, partSize int) uploadDecl {
	d := uploadDecl{Size: int64(len(stream)), ChunkTraces: 16}
	for off := 0; off < len(stream); off += partSize {
		end := off + partSize
		if end > len(stream) {
			end = len(stream)
		}
		d.Parts = append(d.Parts, uploadPart{
			Offset: int64(off), Size: int64(end - off),
			CRC32C: tracestore.CRCHex(stream[off:end]),
		})
	}
	return d
}

func putPart(t *testing.T, base, id string, off int64, body []byte) *http.Response {
	t.Helper()
	resp, err := sendPart(base, id, off, body)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// sendPart is putPart for goroutines other than the test's own.
func sendPart(base, id string, off int64, body []byte) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPut,
		fmt.Sprintf("%s/v1/traces/%s/parts/%d", base, id, off), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	resp.Body.Close()
	return resp, nil
}

func declare(t *testing.T, base string, d uploadDecl) (int, uploadStatus) {
	t.Helper()
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := post(t, base+"/v1/traces", string(raw))
	var st uploadStatus
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusConflict {
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("declare response: %v\n%s", err, body)
		}
	}
	return resp.StatusCode, st
}

func commit(t *testing.T, base, id string) (int, uploadStatus, []byte) {
	t.Helper()
	resp, body := post(t, base+"/v1/traces/"+id+"/commit", "")
	var st uploadStatus
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusConflict {
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("commit response: %v\n%s", err, body)
		}
	}
	return resp.StatusCode, st, body
}

func TestTracesUploadLifecycle(t *testing.T) {
	const keyByte, trueKey = 2, byte(0x3c)
	stream := leakyStream(t, 120, 24, keyByte, trueKey)
	dataDir := t.TempDir()
	_, ts := newTestServer(t, Options{DataDir: dataDir})

	d := declareParts(stream, 1000)
	code, st := declare(t, ts.URL, d)
	if code != http.StatusOK || st.Committed || len(st.Missing) != len(d.Parts) {
		t.Fatalf("declare: %d %+v", code, st)
	}
	id := st.ID

	// Commit before any part arrived: refused, every part listed.
	if code, st, _ := commit(t, ts.URL, id); code != http.StatusConflict || len(st.Missing) != len(d.Parts) {
		t.Fatalf("premature commit: %d %+v", code, st)
	}

	// Upload parts out of order, duplicating one; every delivery is a
	// no-op beyond its bytes landing.
	order := []int{len(d.Parts) - 1, 0, 1, 0}
	for _, i := range order {
		p := d.Parts[i]
		if resp := putPart(t, ts.URL, id, p.Offset, stream[p.Offset:p.Offset+p.Size]); resp.StatusCode != http.StatusNoContent {
			t.Fatalf("part %d: %d", i, resp.StatusCode)
		}
	}
	// A part whose bytes do not match its declared digest is refused
	// before landing.
	bad := append([]byte(nil), stream[d.Parts[2].Offset:d.Parts[2].Offset+d.Parts[2].Size]...)
	bad[0] ^= 0xFF
	if resp := putPart(t, ts.URL, id, d.Parts[2].Offset, bad); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt part accepted: %d", resp.StatusCode)
	}

	// Still incomplete: the corrupt part never landed.
	code, st, _ = commit(t, ts.URL, id)
	if code != http.StatusConflict {
		t.Fatalf("commit with a hole: %d %+v", code, st)
	}

	// Re-declaring is idempotent and reports exactly the open holes.
	if code, st := declare(t, ts.URL, d); code != http.StatusOK || st.ID != id || len(st.Missing) != len(d.Parts)-3 {
		t.Fatalf("re-declare: %d %+v", code, st)
	}

	// Fill the remaining parts and commit.
	for i, p := range d.Parts {
		if i == 0 || i == 1 || i == len(d.Parts)-1 {
			continue
		}
		if resp := putPart(t, ts.URL, id, p.Offset, stream[p.Offset:p.Offset+p.Size]); resp.StatusCode != http.StatusNoContent {
			t.Fatalf("part %d: %d", i, resp.StatusCode)
		}
	}
	code, st, _ = commit(t, ts.URL, id)
	if code != http.StatusOK || !st.Committed || st.Store == nil {
		t.Fatalf("commit: %d %+v", code, st)
	}
	if st.Store.Traces != 120 || st.Store.Samples != 24 || st.Store.AuxLen != aes.BlockSize {
		t.Fatalf("store %+v", st.Store)
	}

	// Commit is idempotent; a retried part after commit is a no-op.
	if code2, st2, _ := commit(t, ts.URL, id); code2 != http.StatusOK || st2.Store == nil || st2.Store.Digest != st.Store.Digest {
		t.Fatalf("re-commit: %d %+v", code2, st2)
	}
	p := d.Parts[0]
	if resp := putPart(t, ts.URL, id, p.Offset, stream[p.Offset:p.Offset+p.Size]); resp.StatusCode != http.StatusNoContent {
		t.Fatal("part retry after commit should be a no-op")
	}

	// The committed store matches a direct local ingest bit for bit.
	localDir := filepath.Join(t.TempDir(), "local")
	if err := tracestore.Ingest(localDir, bytes.NewReader(stream), 16); err != nil {
		t.Fatal(err)
	}
	local, err := tracestore.Open(localDir)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	if local.Digest() != st.Store.Digest {
		t.Fatal("uploaded store digest differs from a local ingest of the same bytes")
	}

	// Analyze: out-of-core CPA recovers the planted key and the response
	// flows through the cache (second call is a hit).
	key := make([]byte, aes.KeySize)
	key[keyByte] = trueKey
	areq := fmt.Sprintf(`{"set":%q,"kind":"cpa","key_byte":%d,"key":"%x"}`, id, keyByte, key)
	resp, body := post(t, ts.URL+"/v1/analyze", areq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: %d\n%s", resp.StatusCode, body)
	}
	var env struct {
		Kind   string                `json:"kind"`
		Result attack.StoreCPAResult `json:"result"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Kind != "analyze" || env.Result.Recovered != trueKey || env.Result.Rank != 0 || !env.Result.Complete {
		t.Fatalf("analyze result %+v", env.Result)
	}
	resp2, body2 := post(t, ts.URL+"/v1/analyze", areq)
	if resp2.Header.Get("X-Scad-Cache") != "hit" || !bytes.Equal(body, body2) {
		t.Fatal("repeated analyze did not hit the cache byte-identically")
	}

	// TVLA over the same store also flows.
	resp, body = post(t, ts.URL+"/v1/analyze", fmt.Sprintf(`{"set":%q,"kind":"tvla"}`, id))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tvla analyze: %d\n%s", resp.StatusCode, body)
	}
}

func TestTracesCommitRefusesServerSideDamage(t *testing.T) {
	stream := leakyStream(t, 40, 16, 0, 0x11)
	dataDir := t.TempDir()
	_, ts := newTestServer(t, Options{DataDir: dataDir})

	d := declareParts(stream, 512)
	_, st := declare(t, ts.URL, d)
	id := st.ID
	for _, p := range d.Parts {
		putPart(t, ts.URL, id, p.Offset, stream[p.Offset:p.Offset+p.Size])
	}

	// Damage the assembled stream on the server between upload and
	// commit (bit rot, torn write on the spool volume).
	bin := filepath.Join(dataDir, "uploads", id+".bin")
	f, err := os.OpenFile(bin, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xAA}, 600); err != nil {
		t.Fatal(err)
	}
	f.Close()

	code, st2, _ := commit(t, ts.URL, id)
	if code != http.StatusConflict {
		t.Fatalf("commit over damaged spool: %d (must refuse, never ingest silently)", code)
	}
	if len(st2.Missing) != 1 || st2.Missing[0] != 512 {
		t.Fatalf("damage not localized to its part: %+v", st2.Missing)
	}

	// Resumption heals: re-upload just that part, then commit.
	p := d.Parts[1]
	if resp := putPart(t, ts.URL, id, p.Offset, stream[p.Offset:p.Offset+p.Size]); resp.StatusCode != http.StatusNoContent {
		t.Fatal("healing part refused")
	}
	if code, st3, _ := commit(t, ts.URL, id); code != http.StatusOK || !st3.Committed {
		t.Fatalf("commit after heal: %d %+v", code, st3)
	}
}

// TestTracesConcurrentPartsAndCommit sends every part from four clients
// at once, each in its own shuffled order with repeats, while commits
// are attempted. A commit may only refuse with parts that had not yet
// landed, and once one succeeds the upload is sealed: the assembled
// stream is gone for good, late parts are no-ops, and the store equals
// a local ingest of the same bytes.
func TestTracesConcurrentPartsAndCommit(t *testing.T) {
	stream := leakyStream(t, 200, 24, 1, 0x5a)
	dataDir := t.TempDir()
	_, ts := newTestServer(t, Options{DataDir: dataDir})
	d := declareParts(stream, 700)
	_, st := declare(t, ts.URL, d)
	id := st.ID
	partAt := map[int64]int{}
	for i, p := range d.Parts {
		partAt[p.Offset] = i
	}
	put := func(i int) bool {
		p := d.Parts[i]
		resp, err := sendPart(ts.URL, id, p.Offset, stream[p.Offset:p.Offset+p.Size])
		if err != nil {
			t.Error(err)
			return false
		}
		if resp.StatusCode != http.StatusNoContent {
			t.Errorf("part %d: status %d", p.Offset, resp.StatusCode)
			return false
		}
		return true
	}

	landed := make([]atomic.Bool, len(d.Parts))
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			order := append(rng.Perm(len(d.Parts)), rng.Perm(len(d.Parts))[:len(d.Parts)/2]...)
			for _, i := range order {
				if !put(i) {
					return
				}
				landed[i].Store(true)
			}
		}()
	}
	sent := make(chan struct{})
	go func() {
		wg.Wait()
		close(sent)
	}()

	var final uploadStatus
	for attempts := 0; ; attempts++ {
		allSent := false
		select {
		case <-sent:
			allSent = true
		default:
		}
		before := make([]bool, len(d.Parts))
		for i := range landed {
			before[i] = landed[i].Load()
		}
		code, st, body := commit(t, ts.URL, id)
		if code == http.StatusOK {
			final = st
			break
		}
		if code != http.StatusConflict {
			t.Fatalf("commit attempt %d: status %d\n%s", attempts, code, body)
		}
		if allSent {
			t.Fatalf("commit after every part landed refused: missing %v", st.Missing)
		}
		for _, off := range st.Missing {
			i, ok := partAt[off]
			if !ok {
				t.Fatalf("commit lists %d, not a declared part", off)
			}
			if before[i] {
				t.Fatalf("commit lists part %d as missing after it landed", off)
			}
		}
	}
	<-sent
	bin := filepath.Join(dataDir, "uploads", id+".bin")
	if _, err := os.Stat(bin); !os.IsNotExist(err) {
		t.Fatalf("assembled stream survives the commit: %v", err)
	}
	if !put(0) {
		t.Fatal("part after commit is not a no-op")
	}
	if _, err := os.Stat(bin); !os.IsNotExist(err) {
		t.Fatalf("a part after the commit recreated the assembled stream: %v", err)
	}
	localDir := filepath.Join(t.TempDir(), "local")
	if err := tracestore.Ingest(localDir, bytes.NewReader(stream), d.ChunkTraces); err != nil {
		t.Fatal(err)
	}
	local, err := tracestore.Open(localDir)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	if final.Store == nil || final.Store.Digest != local.Digest() {
		t.Fatalf("committed store %+v, local ingest digests %s", final.Store, local.Digest())
	}
}

// TestTracesCommitWaitsForPartInFlight holds a part's body open across
// a commit: the commit must wait for that part to land rather than seal
// the upload under it, or the late write would recreate the assembled
// stream the commit removed.
func TestTracesCommitWaitsForPartInFlight(t *testing.T) {
	stream := leakyStream(t, 40, 16, 0, 0x11)
	dataDir := t.TempDir()
	srv, ts := newTestServer(t, Options{DataDir: dataDir})
	d := declareParts(stream, 512)
	_, st := declare(t, ts.URL, d)
	id := st.ID
	for _, p := range d.Parts {
		putPart(t, ts.URL, id, p.Offset, stream[p.Offset:p.Offset+p.Size])
	}

	p := d.Parts[0]
	body := stream[p.Offset : p.Offset+p.Size]
	pr, pw := io.Pipe()
	defer pw.Close()
	req, err := http.NewRequest(http.MethodPut, fmt.Sprintf("%s/v1/traces/%s/parts/%d", ts.URL, id, p.Offset), pr)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = p.Size
	putCode := make(chan int, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			putCode <- 0
			return
		}
		resp.Body.Close()
		putCode <- resp.StatusCode
	}()
	go pw.Write(body[:1])
	// Wait until the part's handler holds the upload while it reads the
	// rest of the body.
	l := srv.uploads.idLock(id)
	defer srv.uploads.release(id, l)
	for deadline := time.Now().Add(10 * time.Second); l.TryLock(); {
		l.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("the part's handler never took the upload's lock")
		}
		time.Sleep(time.Millisecond)
	}
	commitCode := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/traces/"+id+"/commit", "application/json", nil)
		if err != nil {
			t.Error(err)
			commitCode <- 0
			return
		}
		resp.Body.Close()
		commitCode <- resp.StatusCode
	}()
	select {
	case code := <-commitCode:
		t.Fatalf("commit returned %d while a part was still arriving", code)
	case <-time.After(100 * time.Millisecond):
	}
	go func() {
		pw.Write(body[1:])
		pw.Close()
	}()
	if code := <-putCode; code != http.StatusNoContent {
		t.Fatalf("part held open across the commit: status %d", code)
	}
	if code := <-commitCode; code != http.StatusOK {
		t.Fatalf("commit: status %d", code)
	}
	if _, err := os.Stat(filepath.Join(dataDir, "uploads", id+".bin")); !os.IsNotExist(err) {
		t.Fatalf("a part in flight during the commit recreated the assembled stream: %v", err)
	}
}

// TestTracesLockMapDrains proves the per-id lock map holds only ids
// with a request in flight: after status and part requests for unknown
// ids, run side by side, and a full declare → parts → commit lifecycle,
// no entry is left once every request has returned.
func TestTracesLockMapDrains(t *testing.T) {
	srv, err := New(Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	serve := func(method, url string, body []byte) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, url, bytes.NewReader(body)))
		return rec.Code
	}

	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("unknown%d", i%8)
			if code := serve(http.MethodGet, "/v1/traces/"+id, nil); code != http.StatusNotFound {
				t.Errorf("status of %s: %d", id, code)
			}
			if code := serve(http.MethodPut, "/v1/traces/"+id+"/parts/0", []byte("x")); code != http.StatusNotFound {
				t.Errorf("part of %s: %d", id, code)
			}
		}(i)
	}
	wg.Wait()

	stream := leakyStream(t, 40, 16, 0, 0x11)
	d := declareParts(stream, 512)
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if code := serve(http.MethodPost, "/v1/traces", raw); code != http.StatusOK {
		t.Fatalf("declare: %d", code)
	}
	id := campaign.CanonicalDigest(&d)
	for _, p := range d.Parts {
		wg.Add(1)
		go func(p uploadPart) {
			defer wg.Done()
			url := fmt.Sprintf("/v1/traces/%s/parts/%d", id, p.Offset)
			if code := serve(http.MethodPut, url, stream[p.Offset:p.Offset+p.Size]); code != http.StatusNoContent {
				t.Errorf("part %d: %d", p.Offset, code)
			}
		}(p)
	}
	wg.Wait()
	if code := serve(http.MethodPost, "/v1/traces/"+id+"/commit", nil); code != http.StatusOK {
		t.Fatalf("commit: %d", code)
	}

	srv.uploads.mu.Lock()
	defer srv.uploads.mu.Unlock()
	if n := len(srv.uploads.locks); n != 0 {
		t.Fatalf("%d upload locks left after every request returned", n)
	}
}

func TestTracesValidation(t *testing.T) {
	dataDir := t.TempDir()
	_, ts := newTestServer(t, Options{DataDir: dataDir})

	// Non-tiling parts.
	if code, _ := declare(t, ts.URL, uploadDecl{Size: 10, Parts: []uploadPart{
		{Offset: 0, Size: 4, CRC32C: "00000000"}, {Offset: 5, Size: 5, CRC32C: "00000000"},
	}}); code != http.StatusBadRequest {
		t.Fatalf("gapped parts accepted: %d", code)
	}
	// Unknown upload id.
	resp, _ := post(t, ts.URL+"/v1/traces/deadbeef/commit", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("commit of unknown id: %d", resp.StatusCode)
	}
	if resp := putPart(t, ts.URL, "deadbeef", 0, []byte("x")); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("part for unknown id: %d", resp.StatusCode)
	}
	// Analyze of an uncommitted set.
	resp, _ = post(t, ts.URL+"/v1/analyze", `{"set":"deadbeef","kind":"cpa"}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("analyze of unknown set: %d", resp.StatusCode)
	}
	// Undeclared offset.
	stream := leakyStream(t, 16, 8, 0, 1)
	d := declareParts(stream, len(stream))
	_, st := declare(t, ts.URL, d)
	if resp := putPart(t, ts.URL, st.ID, 7, []byte("x")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("undeclared offset accepted: %d", resp.StatusCode)
	}
	// A stream that is not a trace set, and a set torn after its first
	// record (so the ingest has begun a store), are refused at commit,
	// not half-ingested.
	full := leakyStream(t, 16, 8, 0, 2)
	for name, junk := range map[string][]byte{
		"not a trace set": []byte(strings.Repeat("not a trace set ", 8)),
		"torn set":        full[:len(full)-5],
	} {
		jd := declareParts(junk, len(junk))
		_, jst := declare(t, ts.URL, jd)
		putPart(t, ts.URL, jst.ID, 0, junk)
		code, _, body := commit(t, ts.URL, jst.ID)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: commit %d\n%s", name, code, body)
		}
		for _, dir := range []string{jst.ID, jst.ID + ".ingest"} {
			if _, err := os.Stat(filepath.Join(dataDir, "sets", dir)); !os.IsNotExist(err) {
				t.Fatalf("%s: the refused ingest left sets/%s behind: %v", name, dir, err)
			}
		}
	}
}

func TestTracesDisabledWithoutDataDir(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, _ := post(t, ts.URL+"/v1/traces", `{}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace endpoints should be absent without DataDir: %d", resp.StatusCode)
	}
}
