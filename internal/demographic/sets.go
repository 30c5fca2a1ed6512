package demographic

import (
	"fmt"
	"sort"
	"sync"

	"vidrec/internal/core"
	"vidrec/internal/intern"
	"vidrec/internal/kvstore"
	"vidrec/internal/objcache"
	"vidrec/internal/simtable"
)

// ModelSet lazily manages one online MF model per demographic group —
// demographic training (§5.2.2): "there will be a video vector y_i for each
// demographic group". Models share one key-value store, namespaced by group.
type ModelSet struct {
	name   string
	kv     kvstore.Store
	params core.Params

	mu        sync.RWMutex
	models    map[string]*core.Model // guarded by mu
	cache     *objcache.Cache        // guarded by mu; applied to lazily created models
	interner  *intern.Table          // guarded by mu; non-nil gives every model its slot-indexed item table
	quantized bool                   // guarded by mu; the item tables hold int8 records
}

// SetCache attaches a decoded-value read cache, applied to every existing and
// future group model.
func (s *ModelSet) SetCache(c *objcache.Cache) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cache = c
	for _, m := range s.models {
		m.SetCache(c)
	}
}

// SetInterner gives every existing and future group model its slot-indexed
// item table (core.Model.SetInterner), with item slots drawn from the shared
// serving interner. Like SetCache, wire it before traffic starts.
func (s *ModelSet) SetInterner(it *intern.Table) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.interner = it
	for _, m := range s.models {
		m.SetInterner(it)
	}
}

// EnableQuantized switches every existing and future group model's item
// table to int8 records (core.Model.EnableQuantized), with item slots drawn
// from the shared serving interner. Like SetCache, wire it before traffic
// starts.
func (s *ModelSet) EnableQuantized(it *intern.Table) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.interner = it
	s.quantized = it != nil
	for _, m := range s.models {
		m.EnableQuantized(it)
	}
}

// NewModelSet returns an empty set that creates group models on demand with
// the given parameters.
func NewModelSet(name string, kv kvstore.Store, params core.Params) (*ModelSet, error) {
	if name == "" {
		return nil, fmt.Errorf("demographic: name must not be empty")
	}
	if kv == nil {
		return nil, fmt.Errorf("demographic: store must not be nil")
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &ModelSet{name: name, kv: kv, params: params, models: make(map[string]*core.Model)}, nil
}

// For returns the group's model, creating it on first use.
func (s *ModelSet) For(group string) (*core.Model, error) {
	if group == "" {
		return nil, fmt.Errorf("demographic: group must not be empty")
	}
	s.mu.RLock()
	m := s.models[group]
	s.mu.RUnlock()
	if m != nil {
		return m, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if m := s.models[group]; m != nil {
		return m, nil
	}
	m, err := core.NewModel(s.name+"/"+group, s.kv, s.params) // alloccheck: once per group; the set memoizes
	if err != nil {
		return nil, err
	}
	m.SetCache(s.cache)
	if s.quantized {
		m.EnableQuantized(s.interner)
	} else {
		m.SetInterner(s.interner)
	}
	s.models[group] = m
	return m, nil
}

// Groups returns the groups instantiated so far, sorted.
func (s *ModelSet) Groups() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.models))
	for g := range s.models {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}

// TableSet lazily manages one similar-video table set per demographic group:
// "the similarity between video pairs is computed within the demographic
// group" (§5.2.2).
type TableSet struct {
	name string
	kv   kvstore.Store
	cfg  simtable.Config

	mu     sync.RWMutex
	tables map[string]*simtable.Tables // guarded by mu
	cache  *objcache.Cache             // guarded by mu; applied to lazily created tables
}

// SetCache attaches a decoded-value read cache, applied to every existing and
// future group table set.
func (s *TableSet) SetCache(c *objcache.Cache) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cache = c
	for _, t := range s.tables {
		t.SetCache(c)
	}
}

// NewTableSet returns an empty set that creates group tables on demand.
func NewTableSet(name string, kv kvstore.Store, cfg simtable.Config) (*TableSet, error) {
	if name == "" {
		return nil, fmt.Errorf("demographic: name must not be empty")
	}
	if kv == nil {
		return nil, fmt.Errorf("demographic: store must not be nil")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &TableSet{name: name, kv: kv, cfg: cfg, tables: make(map[string]*simtable.Tables)}, nil
}

// For returns the group's tables, creating them on first use.
func (s *TableSet) For(group string) (*simtable.Tables, error) {
	if group == "" {
		return nil, fmt.Errorf("demographic: group must not be empty")
	}
	s.mu.RLock()
	t := s.tables[group]
	s.mu.RUnlock()
	if t != nil {
		return t, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t := s.tables[group]; t != nil {
		return t, nil
	}
	t, err := simtable.New(s.name+"/"+group, s.kv, s.cfg) // alloccheck: once per group; the set memoizes
	if err != nil {
		return nil, err
	}
	t.SetCache(s.cache)
	s.tables[group] = t
	return t, nil
}
