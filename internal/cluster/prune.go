package cluster

import (
	"math"

	"adahealth/internal/vec"
)

// prunedArgMin answers exactly what vec.ArgMinDistance(data[i],
// centroids) would — the same index, ties included — for the rows of
// a CSR view, while scoring most centroids in O(nnz) instead of O(d).
//
// Every centroid gets an estimate through the norm identity
// ‖x−c‖² = ‖x‖² + ‖c‖² − 2⟨x,c⟩. The ‖x‖² term is common to all
// centroids, so only f = ‖c‖² − 2⟨x,c⟩ is computed (‖c‖² and a
// transposed centroid block refreshed by load, ⟨x,c⟩ accumulated for
// all K centroids in one pass over the row's nonzeros), together with
// a rigorous bound E on how far ‖x‖² + f can sit from the value d̂
// that vec.SquaredEuclidean computes densely. Let u = 2⁻⁵³, m =
// nnz(x), d the dimension, γₙ = nu/(1−nu), and S = (‖x‖ + ‖c‖)².
// Higham's bound for a recursively summed inner product
// (|fl(Σaᵢbᵢ) − Σaᵢbᵢ| ≤ γₙ·Σ|aᵢbᵢ|) gives
//
//	‖c‖²:  γ_d·‖c‖²         (vec.Dot over d entries)
//	⟨x,c⟩: γₘ·‖x‖‖c‖       (m products; Cauchy–Schwarz)
//
// so f is off its exact value by at most max(γₘ, γ_d)·S plus u·S for
// the subtraction that forms it. The dense d̂ sums d non-negative
// rounded squares of rounded differences, so |d̂ − ‖x−c‖²| ≤
// γ_{d+2}·‖x−c‖² ≤ γ_{d+2}·S. Altogether |‖x‖² + f − d̂| ≤
// (2d + 4)·u·S to first order. The bound used is
// E = 4(d + m + 4)·u·(‖x‖ + cmax)² with cmax the largest centroid
// norm: at least twice that for every centroid, which covers taking
// ‖x‖ and cmax from computed squared norms, rounding E itself and the
// roundings of the comparisons below. An absolute term of the same
// factor times 2⁻¹⁰¹⁸ covers products that underflow (each loses at
// most 2⁻¹⁰⁷⁵).
//
// With ‖x‖² + f − E ≤ d̂ ≤ ‖x‖² + f + E for every centroid, let fmin
// be the smallest f. The dense winner's d̂ is at most ‖x‖² + fmin + E,
// so a centroid with f > fmin + 2E has d̂ strictly above the winner's
// and can neither win nor tie. When exactly one centroid survives it
// is the dense winner; when more survive (ties, near-ties,
// cancellation) the survivors are rescored with vec.SquaredEuclidean
// in index order with a strict "<", which is the dense scan restricted
// to the only indices that can win. A row or centroid whose squared
// norm is not finite (or too close to overflow for the analysis to
// hold) is scored by vec.ArgMinDistance instead.
type prunedArgMin struct {
	m   *vec.CSRMatrix
	pts *points // the rows as dense vectors, for dense scoring
	d   int

	// ct holds the centroids transposed in blocks of four (K rounded
	// up, padding zero): centroid c's entry j sits at
	// ct[(c/4)*4d + 4j + c%4], so one pass over a row's nonzeros
	// accumulates four dot products in registers.
	ct    []float64
	cn2   []float64 // ‖c‖², as vec.Dot computes it
	cmax  float64   // max ‖c‖
	dense bool      // a centroid norm out of range: score densely
	f     []float64 // per-row ‖c‖² − 2⟨x,c⟩ (K rounded up to 4)
}

// maxNorm2 caps the squared norms the pruning trusts: every
// intermediate of the error analysis stays far from overflow below it.
const maxNorm2 = 0x1p1000

// newPrunedArgMin scores the rows of m, reading them densely, where it
// must, from data, the dense rows of m, or from m itself when data is
// nil.
func newPrunedArgMin(m *vec.CSRMatrix, data [][]float64, k int, s *Scratch) *prunedArgMin {
	k4 := (k + 3) &^ 3
	return &prunedArgMin{
		m:   m,
		pts: newPoints(m, data),
		d:   m.Cols,
		ct:  s.f64(&s.centT, k4*m.Cols),
		cn2: s.f64(&s.centNorm2, k),
		f:   s.f64(&s.rowF, k4),
	}
}

// load caches the transposed block and norms of the centroids the
// following argmin calls score against; call it whenever they move.
func (p *prunedArgMin) load(centroids [][]float64) {
	p.dense = false
	cmax2 := 0.0
	for c, cent := range centroids {
		blk := p.ct[(c&^3)*p.d:]
		for j, v := range cent {
			blk[4*j+(c&3)] = v
		}
		n2 := vec.Dot(cent, cent)
		if !(n2 <= maxNorm2) { // NaN, +Inf or near overflow
			p.dense = true
		}
		p.cn2[c] = n2
		cmax2 = math.Max(cmax2, n2)
	}
	p.cmax = math.Sqrt(cmax2)
}

// argmin returns the index vec.ArgMinDistance(data[i], centroids)
// returns, for the centroids last passed to load.
func (p *prunedArgMin) argmin(i int, centroids [][]float64) int {
	xn2 := 0.0
	if !p.dense {
		xn2 = p.m.RowNorm2(i)
	}
	if p.dense || !(xn2 <= maxNorm2) {
		c, _ := vec.ArgMinDistance(p.pts.row(i), centroids)
		return c
	}
	k := len(centroids)
	vals, cols := p.m.RowView(i)
	for b := 0; b < k; b += 4 {
		blk := p.ct[b*p.d : (b+4)*p.d]
		var a0, a1, a2, a3 float64
		for q, v := range vals {
			j := 4 * int(cols[q])
			w := blk[j : j+4 : j+4]
			a0 += float64(v * w[0])
			a1 += float64(v * w[1])
			a2 += float64(v * w[2])
			a3 += float64(v * w[3])
		}
		fb := p.f[b : b+4 : b+4]
		fb[0], fb[1], fb[2], fb[3] = a0, a1, a2, a3
	}
	f := p.f[:k]
	cn2 := p.cn2[:k]
	best, fmin, second := 0, math.Inf(1), math.Inf(1)
	for c, dot := range f {
		fc := cn2[c] - 2*dot
		f[c] = fc
		if fc < fmin {
			best, fmin, second = c, fc, fmin
		} else if fc < second {
			second = fc
		}
	}

	s := math.Sqrt(xn2) + p.cmax
	e := float64(float64(4*(p.d+len(vals)+4)) * 0x1p-53 * (float64(s*s) + 0x1p-1018))
	limit := fmin + 2*e
	if second > limit {
		return best
	}
	x := p.pts.row(i)
	win, winD := -1, math.Inf(1)
	for c, fc := range f {
		if fc > limit {
			continue
		}
		if dd := vec.SquaredEuclidean(x, centroids[c]); dd < winD {
			win, winD = c, dd
		}
	}
	return win
}
