package kvstore

import "sync"

// Keys composes and caches namespace-qualified store keys. Key(ns, id) is a
// pure function, but the serving path composes the same keys on every
// request — each composition is a string concatenation (one allocation) the
// warm budget then pays again when the decoded-value cache hashes it. A Keys
// table bound to one namespace remembers each id's composed key, so steady-
// state reads reuse one immutable string per (namespace, id).
//
// The table grows with the distinct ids it sees and never evicts. That is
// the same monotonic, id-space-bounded growth as intern.Table — and each
// entry is an order of magnitude smaller than the stored value its key
// addresses, so the memo tracks the store's own growth rather than adding a
// new axis.
type Keys struct {
	ns string
	mu sync.RWMutex
	m  map[string]string // guarded by mu; id → composed key
}

// NewKeys returns a key composer bound to namespace.
func NewKeys(namespace string) *Keys {
	return &Keys{ns: namespace, m: make(map[string]string)}
}

// Key returns the composed key for id, remembering it on first sight. A
// plain RWMutex-guarded map beats sync.Map here: the read path is a single
// specialized string-map access instead of an interface-keyed trie walk, and
// writes stop after the id space has been seen once.
func (k *Keys) Key(id string) string {
	k.mu.RLock()
	key, ok := k.m[id]
	k.mu.RUnlock()
	if ok {
		return key
	}
	key = Key(k.ns, id)
	k.mu.Lock()
	k.m[id] = key
	k.mu.Unlock()
	return key
}
