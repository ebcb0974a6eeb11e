package cluster

// Scratch owns the reusable working memory of a K-means run: the
// per-iteration labels/counts/sums and the mini-batch kernel's sample,
// row-memo and pruned-assignment buffers. A sweep evaluating many K
// values on one dataset passes the same Scratch to every run via
// Options.Scratch and cuts the per-K allocations to (almost) zero. A
// buffer is allocated at exactly the size first asked for, regrown
// geometrically when a later run asks for more, and never shrunk.
//
// A Scratch must not be shared by concurrent runs — it is the working
// state of exactly one run at a time. Results (Labels, Sizes,
// Centroids) are always freshly allocated, so retaining a Result while
// reusing its Scratch is safe.
type Scratch struct {
	labels   []int
	counts   []int
	sums     [][]float64
	sumsBack []float64

	// batch scratch for the mini-batch kernel
	batchIdx  []int
	prevCents []float64
	rowStamp  []int // iteration that last labelled each row (1-based)
	rowLab    []int // that label: the batch's assignments

	// the pruned exact assignment (prunedArgMin)
	centT     []float64
	centNorm2 []float64
	rowF      []float64
}

// grow returns the capacity for a buffer of capacity have that must
// hold n: exactly n on first allocation, at least double on regrowth.
func grow(have, n int) int {
	if have > 0 && 2*have > n {
		return 2 * have
	}
	return n
}

// ints returns a zeroed int buffer of length n from the given slot.
func (s *Scratch) ints(slot *[]int, n int) []int {
	if cap(*slot) < n {
		*slot = make([]int, grow(cap(*slot), n))
	}
	buf := (*slot)[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// f64 returns a zeroed float64 buffer of length n from the given slot.
func (s *Scratch) f64(slot *[]float64, n int) []float64 {
	if cap(*slot) < n {
		*slot = make([]float64, grow(cap(*slot), n))
	}
	buf := (*slot)[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// sumBuffers returns k zeroed length-d accumulator vectors backed by
// one contiguous array.
func (s *Scratch) sumBuffers(k, d int) [][]float64 {
	back := s.f64(&s.sumsBack, k*d)
	if cap(s.sums) < k {
		s.sums = make([][]float64, k)
	}
	s.sums = s.sums[:k]
	for i := range s.sums {
		s.sums[i] = back[i*d : (i+1)*d : (i+1)*d]
	}
	return s.sums
}
