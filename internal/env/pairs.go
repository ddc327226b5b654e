package env

// Pair is one directed node pair; NoNode on either side is a wildcard.
type Pair struct{ From, To NodeID }

// PairRules holds one rule per directed node pair — the fault tables of
// both runtimes. The zero rule means "none". Not safe for concurrent
// use; a nil table holds no rules but must be made before Set.
type PairRules[R comparable] map[Pair]R

// Set installs rule for from→to; the zero rule removes the entry.
func (t PairRules[R]) Set(from, to NodeID, rule R) {
	var none R
	if rule == none {
		delete(t, Pair{from, to})
		return
	}
	t[Pair{from, to}] = rule
}

// Lookup resolves the most specific rule for from→to: (from,to), then
// (from,*), then (*,to), then (*,*).
func (t PairRules[R]) Lookup(from, to NodeID) (R, bool) {
	for _, k := range [...]Pair{{from, to}, {from, NoNode}, {NoNode, to}, {NoNode, NoNode}} {
		if r, ok := t[k]; ok {
			return r, true
		}
	}
	var none R
	return none, false
}
