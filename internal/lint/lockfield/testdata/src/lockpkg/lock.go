// Package lockpkg exercises the "guarded by mu" annotation checker.
package lockpkg

import "sync"

// Store is the classic shape: a mutex followed by the state it guards.
type Store struct {
	mu    sync.RWMutex
	items map[string]int // guarded by mu
	hits  int            // guarded by mu
	name  string         // immutable after construction, unannotated
}

// Get read-locks, which covers the read — but the hit-counter bump is a
// write racing every other RLock holder.
func (s *Store) Get(k string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.hits++ // want `Store\.hits is guarded by mu but written with only s\.mu\.RLock held`
	return s.items[k]
}

// Touch takes the full lock, so both writes are fine.
func (s *Store) Touch(k string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hits++
	delete(s.items, k)
}

// Evict deletes a map entry under the read lock.
func (s *Store) Evict(k string) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	delete(s.items, k) // want `Store\.items is guarded by mu but written with only s\.mu\.RLock held`
}

// Set writes an element under the read lock.
func (s *Store) Set(k string, v int) {
	s.mu.RLock()
	s.items[k] = v // want `Store\.items is guarded by mu but written with only s\.mu\.RLock held`
	s.mu.RUnlock()
}

// HitsPtr leaks a writable pointer while only read-locked.
func (s *Store) HitsPtr() *int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return &s.hits // want `Store\.hits is guarded by mu but written with only s\.mu\.RLock held`
}

// Put locks before writing.
func (s *Store) Put(k string, v int) {
	s.mu.Lock()
	s.items[k] = v
	s.mu.Unlock()
}

// Len forgets the lock.
func (s *Store) Len() int {
	return len(s.items) // want `Store\.items is guarded by mu but accessed without s\.mu held`
}

// reset is called with the lock held, and says so by convention.
func (s *Store) resetLocked() {
	s.items = map[string]int{}
	s.hits = 0
}

// Name touches only unannotated state.
func (s *Store) Name() string { return s.name }

// Sum iterates without the lock and without the naming convention.
func (s *Store) Sum() int {
	total := 0
	for _, v := range s.items { // want `Store\.items is guarded by mu but accessed without s\.mu held`
		total += v
	}
	return total
}

// Snapshot documents a deliberate unlocked read via the escape hatch.
func (s *Store) Snapshot() int {
	//lint:ignore lockfield — single-writer phase before the store is shared
	return s.hits
}

// Data is plain state promoted into Guarded below.
type Data struct {
	Submitted int
	Rejected  int
}

// Guarded embeds its payload under the lock, like core.Events.
type Guarded struct {
	mu   sync.Mutex
	Data // guarded by mu
}

// Bump locks around the promoted-field write.
func (g *Guarded) Bump() {
	g.mu.Lock()
	g.Submitted++
	g.mu.Unlock()
}

// Skew forgets the lock on a promoted field.
func (g *Guarded) Skew() {
	g.Rejected++ // want `Guarded\.Rejected is guarded by mu but accessed without g\.mu held`
}

// Orphan annotates a field with no mutex in sight.
type Orphan struct {
	count int /* guarded by mu */ // want `annotated "guarded by mu" but no mu field precedes it`
}

// external accesses another value's guarded field from a free function.
func external(s *Store) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.hits
}

// externalBad does the same without locking.
func externalBad(s *Store) int {
	return s.hits // want `Store\.hits is guarded by mu but accessed without s\.mu held`
}
