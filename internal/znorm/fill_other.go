//go:build !amd64

package znorm

// useWindowKernel is off without a vector kernel: Fill is the scalar
// loop itself.
const useWindowKernel = false

// walkWords walks nothing: the walker's Go word body is the only path.
func walkWords(w *window, dst []float64, p, n int) (o, q int) { return 0, p }

// fillWindowed is never reached off amd64; it exists so Fill compiles
// on every architecture.
func fillWindowed(dst []float64, state *uint64) { fillScalar(dst, state) }
