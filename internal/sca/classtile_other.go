//go:build !amd64

package sca

// classTile writes the correlation tile of hypotheses [k0,k0+m) over
// the first w packed samples of tile; the Go twin is the only
// implementation on this architecture.
func classTile(out, tile, table []float64, offs []int, k0, m, w int, t *tileTerms) {
	classTileGeneric(out, tile, table, offs, k0, m, w, t)
}
