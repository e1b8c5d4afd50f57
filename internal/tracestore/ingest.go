package tracestore

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// Ingest streams a serialized trace set (the trace.SetWriter format —
// what cmd/tracegen emits and external SCA tooling exchanges) into a
// new store at dir, one chunk at a time, without ever materializing the
// whole set. The fixed aux length is taken from the first record; a set
// whose records disagree on aux length is refused rather than padded —
// measured metadata is never silently altered. chunkTraces == 0 selects
// DefaultChunkTraces.
//
// Ingest commits the store only after the final declared trace arrived
// intact; any earlier error leaves at most an unsealed (recoverable)
// prefix behind: the full chunks that precede the failing record.
//
// The work runs as a bounded three-stage pipeline. One goroutine reads
// records, undecoded, into a chunk's buffers; up to GOMAXPROCS encoders
// transpose each chunk to its sample-major payload and digest it; the
// calling goroutine writes the encoded chunks strictly in index order
// with the Writer's discipline (write, fsync, manifest recommit). The
// store's bytes are exactly those of appending every trace to a Writer
// and committing it, and no goroutine outlives the call.
func Ingest(dir string, r io.Reader, chunkTraces int) (retErr error) {
	sr, err := trace.NewSetReader(bufio.NewReaderSize(r, ingestReadBuffer))
	if err != nil {
		return fmt.Errorf("tracestore: ingest: %w", err)
	}
	samples := sr.Samples()
	if samples < 1 {
		// The set format permits zero-sample traces; the store does not
		// (a trace with no samples carries no information to analyze).
		return fmt.Errorf("tracestore: ingest: set declares %d samples per trace", samples)
	}

	// The first record fixes the aux length, which the store needs
	// before it exists; a set that fails before it leaves no store.
	first := make([]byte, 8*samples)
	firstAux, err := sr.NextRaw(nil, first)
	if errors.Is(err, io.EOF) {
		// Empty set: a sealed store with zero chunks is still a valid,
		// honest artifact.
		w, err := Create(dir, Options{Samples: samples, AuxLen: 0, ChunkTraces: chunkTraces})
		if err != nil {
			return err
		}
		return w.Commit()
	}
	if err != nil {
		return fmt.Errorf("tracestore: ingest: %w", err)
	}
	w, err := Create(dir, Options{Samples: samples, AuxLen: len(firstAux), ChunkTraces: chunkTraces})
	if err != nil {
		return err
	}
	defer func() {
		if retErr != nil {
			w.Close()
		}
	}()
	p := newIngestPipe(w)
	return p.run(sr, firstAux, first)
}

// ingestReadBuffer is the read-ahead between the source and the record
// parser, so a record costs no read call of its own.
const ingestReadBuffer = 1 << 20

// ingestBudget bounds the chunk buffers one ingest holds in flight.
const ingestBudget = 64 << 20

// ingestChunk is one chunk's buffers on their way through the pipeline.
type ingestChunk struct {
	count   int
	raw     []byte // the records' samples as read, trace-major words
	payload []byte // aux records as read, then the encoder's transpose
	crc     uint32
	done    chan struct{} // the encoder's signal to the writer
}

// ingestPipe is one Ingest's pipeline state.
type ingestPipe struct {
	w                   *Writer
	chunk, samples, aux int // traces per chunk, samples, aux bytes
	encoders            int
	free, jobs, inOrder chan *ingestChunk
	stopped             atomic.Bool // set when the writer fails
	readErr             error       // the reader's terminal error
}

func newIngestPipe(w *Writer) *ingestPipe {
	p := &ingestPipe{w: w, chunk: w.man.ChunkTraces, samples: w.man.Samples, aux: w.man.AuxLen}
	// One chunk being read, one per encoder, one being written; fewer
	// encoders when the chunks are so large that the budget binds.
	per := 8*p.chunk*p.samples + int(payloadSize(uint64(p.chunk), uint64(p.samples), uint64(p.aux)))
	slots := runtime.GOMAXPROCS(0) + 2
	if slots*per > ingestBudget {
		slots = max(3, ingestBudget/per)
	}
	p.encoders = slots - 2
	// Every channel holds up to all the slots, so only waiting for a
	// free chunk (or for an encoder to finish one) ever blocks.
	p.free = make(chan *ingestChunk, slots)
	p.jobs = make(chan *ingestChunk, slots)
	p.inOrder = make(chan *ingestChunk, slots)
	for range slots {
		p.free <- &ingestChunk{done: make(chan struct{}, 1)}
	}
	return p
}

// run starts the reader and the encoders, writes the encoded chunks in
// order on the calling goroutine, and returns once every goroutine it
// started has finished. The first record was read by the caller.
func (p *ingestPipe) run(sr *trace.SetReader, firstAux, first []byte) error {
	var wg sync.WaitGroup
	wg.Add(1 + p.encoders)
	go func() {
		defer wg.Done()
		p.read(sr, firstAux, first)
	}()
	for range p.encoders {
		go func() {
			defer wg.Done()
			for c := range p.jobs {
				c.crc = encodePayload(c.payload, c.raw, c.count, p.samples, p.aux)
				c.done <- struct{}{}
			}
		}()
	}

	var werr error
	for c := range p.inOrder {
		<-c.done
		if werr == nil {
			if werr = p.w.writeChunk(c.count, c.payload, c.crc); werr != nil {
				p.stopped.Store(true)
			}
		}
		p.free <- c
	}
	wg.Wait()
	switch {
	case werr != nil:
		return werr
	case p.readErr != nil:
		return p.readErr
	}
	return p.w.Commit()
}

// read fills chunks with records in stream order and hands each full
// chunk (and the final partial one) to the encoders and, in the same
// order, to the writer. On a bad record it stops with readErr set: the
// chunks before it are written, the partial chunk holding it is not —
// exactly what appending the records one by one to a Writer leaves.
func (p *ingestPipe) read(sr *trace.SetReader, firstAux, first []byte) {
	defer close(p.jobs)
	defer close(p.inOrder)
	rowBytes := 8 * p.samples
	for {
		// The writer hands back every chunk it takes, failed or not, so
		// this never waits on a writer that has stopped.
		c := <-p.free
		c.count, c.payload = 0, c.payload[:cap(c.payload)]
		if first != nil {
			p.fit(c, 1)
			copy(c.raw, first)
			copy(c.payload, firstAux)
			c.count, first = 1, nil
		}
		for c.count < p.chunk && !p.stopped.Load() {
			j := c.count
			p.fit(c, j+1)
			aux, err := sr.NextRaw(c.payload[j*p.aux:j*p.aux:(j+1)*p.aux], c.raw[j*rowBytes:(j+1)*rowBytes])
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				p.readErr = fmt.Errorf("tracestore: ingest: %w", err)
				return
			}
			if len(aux) != p.aux {
				p.readErr = fmt.Errorf("tracestore: ingest: trace %d carries a %d-byte aux record, first record had %d",
					sr.Read()-1, len(aux), p.aux)
				return
			}
			c.count++
		}
		if c.count == 0 || p.stopped.Load() {
			return
		}
		c.payload = c.payload[:payloadSize(uint64(c.count), uint64(p.samples), uint64(p.aux))]
		p.inOrder <- c
		p.jobs <- c
		if c.count < p.chunk {
			return
		}
	}
}

// fit grows c's buffers to hold at least rows records, keeping the
// rows-1 already read. Like append, they grow by doubling with the
// records that actually arrive, so a header that overstates the set
// costs no memory.
func (p *ingestPipe) fit(c *ingestChunk, rows int) {
	rowBytes := 8 * p.samples
	have := len(c.raw) / rowBytes
	if rows <= have {
		return
	}
	n := min(p.chunk, max(rows, 2*have, 8))
	raw := make([]byte, n*rowBytes)
	copy(raw, c.raw[:(rows-1)*rowBytes])
	payload := make([]byte, payloadSize(uint64(n), uint64(p.samples), uint64(p.aux)))
	copy(payload, c.payload[:(rows-1)*p.aux])
	c.raw, c.payload = raw, payload
}
