package optimize

import (
	"math/rand"

	"adahealth/internal/classify"
	"adahealth/internal/cluster"
	"adahealth/internal/freelist"
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
	trees  freelist.List[treeSlab]
	chains freelist.List[chainSlab]
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
	s := a.trees.Get()
	if s == nil || s.opts != opts {
		s = &treeSlab{tree: classify.NewDecisionTree(opts), opts: opts}
	}
	return s
}

// chain lends the clustering chain its scratch and RNG.
func (a *Arena) chain() *chainSlab {
	s := a.chains.Get()
	if s == nil {
		s = &chainSlab{scratch: &cluster.Scratch{}, rng: rand.New(rand.NewSource(0))}
	}
	return s
}

// putTree and putChain return lent state to the pool.
func (a *Arena) putTree(s *treeSlab) { a.trees.Put(s) }

func (a *Arena) putChain(s *chainSlab) { a.chains.Put(s) }
