package core

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"repro/internal/rng"
)

// testRec is a bare table record.
type testRec[K cmp.Ordered] struct{ k K }

func (r testRec[K]) key() K { return r.k }

// checkFind compares find and seek on a table holding keys (ascending,
// distinct) with slices.BinarySearch on the bare keys, for every key in
// probes.
func checkFind[K cmp.Ordered](t *testing.T, keys, probes []K) {
	t.Helper()
	tab := make(table[K, testRec[K]], len(keys))
	for i, k := range keys {
		tab[i] = testRec[K]{k}
	}
	at := 0
	for _, k := range probes {
		wantI, wantOK := slices.BinarySearch(keys, k)
		if i, ok := tab.find(k); i != wantI || ok != wantOK {
			t.Fatalf("find(%v) in %v = (%d, %v), want (%d, %v)", k, keys, i, ok, wantI, wantOK)
		}
		var ok bool
		if at, ok = tab.seek(at, k); at != wantI || ok != wantOK {
			t.Fatalf("seek(%v) in %v = (%d, %v), want (%d, %v)", k, keys, at, ok, wantI, wantOK)
		}
	}
}

// TestTableFindMatchesBinarySearch checks the hand-rolled search on
// random tables of int and string keys: empty and one-element tables,
// the first and last keys, keys between and beyond them, in random order
// (which makes seek fall back) and ascending (which makes it merge).
func TestTableFindMatchesBinarySearch(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 400; trial++ {
		n := r.Intn(40)
		if trial < 20 {
			n = trial % 2 // empty and one-element tables
		}
		var ints []int
		for len(ints) < n {
			ints = append(ints, 2*r.Intn(100)) // even keys; odd probes are absent
		}
		slices.Sort(ints)
		ints = slices.Compact(ints)
		probes := []int{-1, 0, 1, 199, 200, 201}
		if len(ints) > 0 {
			probes = append(probes, ints[0], ints[len(ints)-1], ints[0]-1, ints[len(ints)-1]+1)
		}
		for i := 0; i < 30; i++ {
			probes = append(probes, r.Intn(203)-1)
		}
		strs := make([]string, len(ints))
		for i, k := range ints {
			strs[i] = fmt.Sprintf("k%03d", k)
		}
		strProbes := make([]string, 0, len(probes)+1)
		for _, k := range probes {
			strProbes = append(strProbes, fmt.Sprintf("k%03d", k))
		}
		strProbes = append(strProbes, "", "k", "z")
		checkFind(t, ints, probes)
		checkFind(t, strs, strProbes)
		slices.Sort(probes)
		slices.Sort(strProbes)
		checkFind(t, ints, probes)
		checkFind(t, strs, strProbes)
	}
}
