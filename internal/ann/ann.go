// Package ann provides the serving path's approximate-nearest-neighbour
// candidate source: a random-hyperplane LSH index over the item factor
// vectors the online MF model publishes.
//
// Each of a small number of tables hashes a vector to a signature of sign
// bits — one per random hyperplane — and buckets items by signature. Vectors
// with high cosine similarity agree on most hyperplane sides, so they collide
// in at least one table with high probability. A probe computes the query's
// signature per table and returns the union of the matching buckets: no
// per-candidate dot products, because the downstream Eq. 2 scorer ranks
// whatever the probe surfaces. That keeps probe cost at Tables×Bits dot
// products regardless of catalog size.
//
// The index is incremental: Upsert re-buckets an item whenever the model
// stores a new vector for it (the Model item-vector hook calls it on every
// publish), so the index tracks online training in real time instead of
// being rebuilt in batches. Items are identified by intern slots from the
// shared serving interner, so probe results merge into the candidate set
// without any string hashing.
package ann

import (
	"fmt"
	"sync"

	"vidrec/internal/intern"
	"vidrec/internal/topn"
	"vidrec/internal/vecmath"
)

// Config sizes the index.
type Config struct {
	// Dims is the factor-vector dimensionality (Params.Factors). Upserts
	// with a different length are dropped and counted, never mis-hashed.
	Dims int
	// Tables is the number of independent hash tables. More tables raise
	// recall (more chances to collide) and probe cost linearly.
	Tables int
	// Bits is the signature width per table. More bits make smaller, purer
	// buckets: recall per table drops, precision rises.
	Bits int
	// Seed derives the hyperplanes deterministically; equal seeds (and
	// sizes) give byte-identical index behaviour across runs.
	Seed uint64
	// BucketCap bounds one bucket's size; a full bucket evicts its oldest
	// entry on insert. Bounds probe cost and memory under skewed hashes.
	BucketCap int
}

// Defaults for unset Config fields: 4 tables × 12 bits keeps buckets sparse
// for catalog sizes in the tens of thousands, and 128 entries bounds a
// degenerate bucket at well under one candidate batch per table.
const (
	DefaultTables    = 4
	DefaultBits      = 12
	DefaultBucketCap = 128
)

func (c Config) withDefaults() Config {
	if c.Tables <= 0 {
		c.Tables = DefaultTables
	}
	if c.Bits <= 0 {
		c.Bits = DefaultBits
	}
	if c.BucketCap <= 0 {
		c.BucketCap = DefaultBucketCap
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Dims <= 0 {
		return fmt.Errorf("ann: dims must be positive, got %d", c.Dims)
	}
	if c.Bits > 32 {
		return fmt.Errorf("ann: at most 32 bits per signature, got %d", c.Bits)
	}
	return nil
}

// Index is the LSH index. It is safe for concurrent use: probes take a read
// lock, upserts a write lock.
type Index struct {
	cfg    Config
	it     *intern.Table
	planes []float64 // cfg.Tables*cfg.Bits hyperplanes, cfg.Dims each

	mu      sync.RWMutex
	present []bool      // per slot: is the item indexed
	sigs    []uint32    // per slot × table (stride cfg.Tables): current signature
	vecs    [][]float64 // per slot: cloned vector (for exact Neighbors ranking)
	norms   []float64   // per slot: cached ‖vec‖, computed once at upsert
	buckets []map[uint32][]int32
	count   int
	dropped uint64
}

// New builds an empty index over the shared interner. The hyperplanes are
// derived from cfg.Seed with a SplitMix64 stream: components are uniform in
// [-1, 1), which for sign-hash purposes behaves like any rotationally-rough
// random direction and costs no transcendental math.
func New(cfg Config, it *intern.Table) (*Index, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if it == nil {
		return nil, fmt.Errorf("ann: interner must not be nil")
	}
	n := cfg.Tables * cfg.Bits * cfg.Dims
	idx := &Index{
		cfg:     cfg,
		it:      it,
		planes:  make([]float64, n),
		buckets: make([]map[uint32][]int32, cfg.Tables),
	}
	for i := range idx.planes {
		idx.planes[i] = 2*splitmix(cfg.Seed+uint64(i)+1) - 1
	}
	for t := range idx.buckets {
		idx.buckets[t] = make(map[uint32][]int32)
	}
	return idx, nil
}

// splitmix returns a uniform float64 in [0, 1) from the SplitMix64 finalizer.
func splitmix(x uint64) float64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// signature hashes vec for table t: bit j is the side of hyperplane (t, j).
func (x *Index) signature(t int, vec []float64) uint32 {
	var sig uint32
	base := t * x.cfg.Bits * x.cfg.Dims
	for j := 0; j < x.cfg.Bits; j++ {
		if vecmath.Dot(x.planes[base+j*x.cfg.Dims:base+(j+1)*x.cfg.Dims], vec) >= 0 {
			sig |= 1 << uint(j)
		}
	}
	return sig
}

// Upsert indexes (or re-buckets) one item vector. The vector is cloned —
// callers keep ownership — and its norm is cached for exact ranking. A
// vector whose length is not cfg.Dims is dropped and counted.
func (x *Index) Upsert(id string, vec []float64) {
	if len(vec) != x.cfg.Dims {
		x.mu.Lock()
		x.dropped++
		x.mu.Unlock()
		return
	}
	slot := x.it.Slot(id)
	x.mu.Lock()
	defer x.mu.Unlock()
	x.growLocked(slot)
	if cap(x.vecs[slot]) < len(vec) {
		x.vecs[slot] = make([]float64, len(vec))
	} else {
		x.vecs[slot] = x.vecs[slot][:len(vec)]
	}
	copy(x.vecs[slot], vec)
	x.norms[slot] = vecmath.Norm(vec)
	wasPresent := x.present[slot]
	x.present[slot] = true
	if !wasPresent {
		x.count++
	}
	for t := 0; t < x.cfg.Tables; t++ {
		sig := x.signature(t, vec)
		old := x.sigs[int(slot)*x.cfg.Tables+t]
		if wasPresent && old == sig {
			continue
		}
		if wasPresent {
			x.removeLocked(t, old, slot)
		}
		x.sigs[int(slot)*x.cfg.Tables+t] = sig
		b := x.buckets[t][sig]
		if len(b) >= x.cfg.BucketCap {
			// Evict the oldest entry: it stays reachable through the other
			// tables, and bounded buckets bound probe cost.
			copy(b, b[1:])
			b = b[:len(b)-1]
		}
		x.buckets[t][sig] = append(b, slot)
	}
}

func (x *Index) growLocked(slot int32) {
	for int(slot) >= len(x.present) {
		x.present = append(x.present, false)
		x.norms = append(x.norms, 0)
		x.vecs = append(x.vecs, nil)
		for t := 0; t < x.cfg.Tables; t++ {
			x.sigs = append(x.sigs, 0)
		}
	}
}

// removeLocked deletes slot from table t's bucket sig, preserving insertion
// order. Bounded by BucketCap.
func (x *Index) removeLocked(t int, sig uint32, slot int32) {
	b := x.buckets[t][sig]
	for i, s := range b {
		if s == slot {
			copy(b[i:], b[i+1:])
			x.buckets[t][sig] = b[:len(b)-1]
			return
		}
	}
}

// Probe returns the union of the query's matching buckets across all tables,
// appended to dst (reused when it has capacity). The result may contain the
// same slot more than once — one entry per table it collided in — because the
// serving path deduplicates candidates anyway and skipping the extra pass
// here keeps the probe at pure hash-and-append cost. No candidate dot
// products happen here; the downstream scorer ranks.
func (x *Index) Probe(vec []float64, dst []int32) []int32 {
	dst = dst[:0]
	if len(vec) != x.cfg.Dims {
		return dst
	}
	x.mu.RLock()
	for t := 0; t < x.cfg.Tables; t++ {
		for _, slot := range x.buckets[t][x.signature(t, vec)] {
			dst = append(dst, slot)
		}
	}
	x.mu.RUnlock()
	return dst
}

// Neighbors is the exact-ranking diagnostic: probe, deduplicate, rank every
// surfaced item by true cosine similarity against the query (using the norms
// cached at upsert), and return the top k as (id, cosine) entries. It is not
// on the serving path — tests and recall evaluation use it to measure what
// the probe surfaces.
func (x *Index) Neighbors(vec []float64, k int) []topn.Entry {
	if k <= 0 || len(vec) != x.cfg.Dims {
		return nil
	}
	nq := vecmath.Norm(vec)
	var slots []int32
	var scores []float64
	seen := make(map[int32]struct{})
	x.mu.RLock()
	for t := 0; t < x.cfg.Tables; t++ {
		for _, slot := range x.buckets[t][x.signature(t, vec)] {
			if _, dup := seen[slot]; dup {
				continue
			}
			seen[slot] = struct{}{}
			slots = append(slots, slot)
			scores = append(scores, vecmath.CosineNormed(vec, x.vecs[slot], nq, x.norms[slot]))
		}
	}
	x.mu.RUnlock()
	ids := x.it.IDs(slots, nil)
	r := topn.NewRanker(k)
	for i, id := range ids {
		r.Push(id, scores[i])
	}
	return r.All()
}

// Len returns the number of indexed items.
func (x *Index) Len() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.count
}

// Dropped returns how many upserts were rejected for a dimension mismatch.
func (x *Index) Dropped() uint64 {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.dropped
}
