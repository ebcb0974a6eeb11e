package optimize

import (
	"math/rand"
	"sync"

	"adahealth/internal/classify"
	"adahealth/internal/cluster"
)

// Arena is a pool of reusable sweep state that survives across sweeps —
// the cross-job extension of the reuse a single sweep already practices
// internally. Within one sweep the CV units hand their decision trees
// (whose fit buffers survive refits) from one K's assessment to the
// next, and the clustering chain keeps one cluster.Scratch and one RNG
// for all the Ks it clusters; an Arena carries exactly that state across
// sweep invocations, so a long-lived job service stops paying the slab
// allocations on every admitted job.
//
// Checkout is per CV unit and per chain, so an Arena shared by
// concurrent sweeps is safe — a slab is owned by exactly one of them at
// a time, and the pools grow to the peak concurrent population, never
// beyond.
//
// Reuse is bit-for-bit invisible in the results: cluster.Scratch
// zeroes every buffer it hands out (property-tested across
// non-monotone K sequences), tree.FitSubset fully resets the model,
// and the chain's RNG is reseeded from KSeed before every run. A tree
// built under different TreeOptions is rebuilt on checkout; everything
// else is shape-agnostic. A sweep without an Arena uses a private one.
type Arena struct {
	trees  pool[treeSlab]
	chains pool[chainSlab]
}

// treeSlab is one CV worker's decision tree and the options it was
// built under.
type treeSlab struct {
	tree *classify.DecisionTree
	opts classify.TreeOptions
}

// chainSlab is the clustering chain's working memory.
type chainSlab struct {
	scratch *cluster.Scratch
	rng     *rand.Rand
}

// NewArena returns an empty arena; slabs are created on first
// checkout.
func NewArena() *Arena { return &Arena{} }

// tree lends a CV unit a tree built under opts.
func (a *Arena) tree(opts classify.TreeOptions) *treeSlab {
	s := a.trees.get()
	if s == nil || s.opts != opts {
		s = &treeSlab{tree: classify.NewDecisionTree(opts), opts: opts}
	}
	return s
}

// chain lends the clustering chain its scratch and RNG.
func (a *Arena) chain() *chainSlab {
	s := a.chains.get()
	if s == nil {
		s = &chainSlab{scratch: &cluster.Scratch{}, rng: rand.New(rand.NewSource(0))}
	}
	return s
}

// putTree and putChain return lent state to the pool.
func (a *Arena) putTree(s *treeSlab) { a.trees.put(s) }

func (a *Arena) putChain(s *chainSlab) { a.chains.put(s) }

// pool is a mutex-guarded free list.
type pool[T any] struct {
	mu   sync.Mutex
	free []*T
}

func (p *pool[T]) get() *T {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return nil
	}
	s := p.free[n-1]
	p.free = p.free[:n-1]
	return s
}

func (p *pool[T]) put(s *T) {
	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
}
