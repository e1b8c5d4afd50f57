//go:build amd64

package sca

// classTileAVX512 is the assembly ranking kernel: one full quad (four
// hypotheses from coef) over all rankTile columns of a tile of nc
// classes, closed into correlations with the quad's Σh and √h and the
// tile's Σt and √t.
func classTileAVX512(out, tile, coef *float64, offs *int, nc int, sumH, rootH, sumT, rootT *float64, n float64)

// classTile writes the correlation tile of hypotheses [k0,k0+m) over
// the first w packed samples of tile, bit-identically to
// classTileGeneric. Full quads run the AVX-512 kernel, which always
// computes all rankTile columns (each column is independent, so the
// ones past w are unused, not wrong); partial quads run the Go twin.
func classTile(out, tile, table []float64, offs []int, k0, m, w int, t *tileTerms) {
	if !hasAVX512 || m != 4 {
		classTileGeneric(out, tile, table, offs, k0, m, w, t)
		return
	}
	var t0 *float64
	var o0 *int
	if len(offs) > 0 {
		t0, o0 = &tile[0], &offs[0]
	}
	classTileAVX512(&out[0], t0, &table[k0], o0, len(offs),
		&t.sumH[k0], &t.rootH[k0], &t.sumT[0], &t.rootT[0], t.n)
}
