package attack

import (
	"fmt"

	"repro/internal/aes"
	"repro/internal/sca"
	"repro/internal/tracestore"
)

// StoreCPAOptions configures an out-of-core CPA over a trace store.
type StoreCPAOptions struct {
	// KeyByte selects the attacked first-round key byte; each trace's
	// auxiliary record must carry the plaintext (>= aes.BlockSize bytes),
	// as cmd/tracegen and the scope capture path store it.
	KeyByte int
	// Key, when non-empty, is the known true key (aes.KeySize bytes);
	// the result then reports the true byte's rank and recovery.
	Key []byte
}

// StoreCPAResult is the outcome of an out-of-core Figure 3 CPA. Unlike
// Fig3Result it always carries the health of the pass that produced it:
// a store with quarantined or truncated chunks still yields a ranking,
// but Complete is false and the skip counts say exactly what is missing
// — degraded, never silently wrong.
type StoreCPAResult struct {
	KeyByte   int  `json:"key_byte"`
	Recovered byte `json:"recovered"`
	// BestCorr/SecondCorr are the top two peak magnitudes; PeakSample
	// locates the winning hypothesis's peak; Confidence is the Fisher-z
	// confidence distinguishing them.
	BestCorr   float64 `json:"best_corr"`
	SecondCorr float64 `json:"second_corr"`
	PeakSample int     `json:"peak_sample"`
	Confidence float64 `json:"confidence"`
	// TrueKey and Rank are filled when Options.Key was given; Rank is -1
	// when the true key is unknown.
	TrueKey byte `json:"true_key,omitempty"`
	Rank    int  `json:"rank"`
	// Traces counts the traces the ranking actually accumulated; Stats
	// itemizes what the pass skipped; Complete reports a pass that
	// delivered every committed trace.
	Traces   int              `json:"traces"`
	Stats    tracestore.Stats `json:"stats"`
	Complete bool             `json:"complete"`
}

// Success reports whether the attack recovered the known true key byte;
// always false when the true key was not given.
func (r *StoreCPAResult) Success() bool { return r.Rank == 0 }

// RunStoreCPA performs the Figure 3 CPA over an on-disk trace store,
// streaming chunk by chunk in bounded memory. The accumulation is
// ClassCPA.AddBatch per chunk in ascending chunk order — bit-identical
// to adding the same traces sequentially, so the result matches the
// in-memory path exactly when the store holds the same traces.
// Quarantined chunks are skipped and reported, never folded in.
func RunStoreCPA(s *tracestore.Store, opt StoreCPAOptions) (*StoreCPAResult, error) {
	if opt.KeyByte < 0 || opt.KeyByte >= aes.BlockSize {
		return nil, fmt.Errorf("attack: key byte %d out of range", opt.KeyByte)
	}
	if len(opt.Key) != 0 && len(opt.Key) != aes.KeySize {
		return nil, fmt.Errorf("attack: key must be %d bytes, got %d", aes.KeySize, len(opt.Key))
	}
	if s.AuxLen() < aes.BlockSize {
		return nil, fmt.Errorf("attack: store aux records are %d bytes; CPA needs the %d-byte plaintext",
			s.AuxLen(), aes.BlockSize)
	}
	cpa := sca.MustNewClassCPA(s.Samples(), aes.SubBytesClassTable())
	var classes []int
	stats, err := s.EachChunk(func(cd *tracestore.ChunkData) error {
		classes = classes[:0]
		for _, aux := range cd.Aux {
			classes = append(classes, int(aux[opt.KeyByte]))
		}
		return cpa.AddBatch(classes, cd.Traces)
	})
	if err != nil {
		return nil, err
	}
	if cpa.Count() < 8 {
		return nil, fmt.Errorf("attack: store delivered %d readable traces, need at least 8", cpa.Count())
	}
	att := cpa.Result()
	best, second := att.Margin()
	out := &StoreCPAResult{
		KeyByte:    opt.KeyByte,
		Recovered:  byte(att.Ranking[0]),
		BestCorr:   best,
		SecondCorr: second,
		PeakSample: att.PeakSamples[att.Ranking[0]],
		Confidence: att.DistinguishConfidence(),
		Rank:       -1,
		Traces:     cpa.Count(),
		Stats:      stats,
		Complete:   stats.Complete(),
	}
	if len(opt.Key) == aes.KeySize {
		out.TrueKey = opt.Key[opt.KeyByte]
		out.Rank = att.RankOf(int(out.TrueKey))
	}
	return out, nil
}
