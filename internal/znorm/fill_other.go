//go:build !amd64

package znorm

// useWindowKernel is off without a vector kernel: Fill is the scalar
// loop itself.
const useWindowKernel = false

// compress is the walker's compaction of one word (see compressGo).
func compress(dst, vals []float64, emit uint64) { compressGo(dst, vals, emit) }

// fillWindowed is never reached off amd64; it exists so Fill compiles
// on every architecture.
func fillWindowed(dst []float64, state *uint64) { fillScalar(dst, state) }
