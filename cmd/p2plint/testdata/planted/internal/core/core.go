// Package core plants one violation per analyzer that applies to it,
// a lock-order cycle, a stale directive and a misspelt one.
package core

import (
	"sync"
	"time"

	"repro/internal/metrics"
)

func stamp() time.Time {
	return time.Now()
}

func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func count(r *metrics.Registry, name string) {
	if r != nil {
		r.Counter(name, "help", nil)
	}
}

func stale() int {
	//lint:ignore clockcheck — nothing here reads the clock
	return 1
}

type store struct {
	mu sync.Mutex
	n  int // guarded by mu
}

func (s *store) peek() int {
	return s.n
}

type table struct{ mu sync.Mutex }

func storeThenTable(s *store, t *table) {
	s.mu.Lock()
	t.mu.Lock()
	t.mu.Unlock()
	s.mu.Unlock()
}

func tableThenStore(s *store, t *table) {
	t.mu.Lock()
	s.mu.Lock()
	s.mu.Unlock()
	t.mu.Unlock()
}

func misspelt() time.Time {
	//lint:ignore clockchek — the analyzer's name is misspelt
	return time.Now()
}
