package core

import (
	"cmp"
	"slices"
)

// sortedMapKeys returns m's keys in ascending order, for the maps that
// are not tables: the data-plane roles and wire maps.
// This is the one justified raw map range in the package: every
// iteration whose order could escape (into messages, logs, or scheduler
// calls) goes through it, so the determinism argument lives in exactly
// one place.
func sortedMapKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m { //lint:maporder commutative — keys are sorted below before anything observes them
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// keyed is a table record. Its key must not change while it is in a
// table.
type keyed[K cmp.Ordered] interface{ key() K }

// table holds records in strictly ascending key order, kept so at every
// put and remove: ranging over it is deterministic as it stands, and a
// lookup is a binary search.
type table[K cmp.Ordered, R keyed[K]] []R

// find returns the position of key k, or the position it would take.
// It is a plain binary search on < and ==, with no comparison callback:
// no table has a float key, so no key is NaN and < is a strict total
// order.
func (t table[K, R]) find(k K) (int, bool) {
	lo, hi := 0, len(t)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t[m].key() < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(t) && t[lo].key() == k
}

// seek is find for a caller that looks keys up in ascending order: from
// i (at most len(t)), the position the previous seek returned, it scans
// forward, so a sorted run of lookups is one merge with the table. A key
// that does not lie after t[i-1] (out of order) falls back to find.
func (t table[K, R]) seek(i int, k K) (int, bool) {
	if i > 0 && t[i-1].key() >= k {
		return t.find(k)
	}
	for i < len(t) && t[i].key() < k {
		i++
	}
	return i, i < len(t) && t[i].key() == k
}

// get returns the record under key k.
func (t table[K, R]) get(k K) (R, bool) {
	if i, ok := t.find(k); ok {
		return t[i], true
	}
	var none R
	return none, false
}

// put inserts r, replacing the record under the same key.
func (t *table[K, R]) put(r R) {
	if i, ok := t.find(r.key()); ok {
		(*t)[i] = r
	} else {
		*t = slices.Insert(*t, i, r)
	}
}

// remove deletes the record under key k, reporting whether there was one.
func (t *table[K, R]) remove(k K) bool {
	i, ok := t.find(k)
	if ok {
		*t = slices.Delete(*t, i, i+1)
	}
	return ok
}
