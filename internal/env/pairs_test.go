package env

import "testing"

// TestPairRulesPrecedence pins the wildcard precedence both fault tables
// share: (from,to), then (from,*), then (*,to), then (*,*); a zero rule
// removes its entry, so a lookup falls through to the next one.
func TestPairRulesPrecedence(t *testing.T) {
	rules := PairRules[string]{}
	rules.Set(NoNode, NoNode, "any")
	rules.Set(1, 2, "exact")
	rules.Set(1, NoNode, "from")
	rules.Set(NoNode, 4, "to")
	for _, tc := range []struct {
		from, to NodeID
		want     string
	}{
		{1, 2, "exact"},
		{1, 4, "from"}, // (from,*) beats (*,to)
		{1, 9, "from"},
		{3, 4, "to"},
		{8, 9, "any"},
	} {
		if got, ok := rules.Lookup(tc.from, tc.to); !ok || got != tc.want {
			t.Errorf("Lookup(%d,%d) = %q, %v; want %q", tc.from, tc.to, got, ok, tc.want)
		}
	}

	rules.Set(1, 2, "")
	if got, _ := rules.Lookup(1, 2); got != "from" {
		t.Errorf("after removing (1,2): Lookup = %q, want the (1,*) rule", got)
	}
	if len(rules) != 3 {
		t.Errorf("zero rule left an entry: %d rules, want 3", len(rules))
	}
	rules.Set(NoNode, NoNode, "")
	if got, ok := rules.Lookup(8, 9); ok {
		t.Errorf("Lookup(8,9) = %q with no matching rule", got)
	}
	var none PairRules[string]
	if _, ok := none.Lookup(1, 2); ok {
		t.Error("a nil table matched a rule")
	}
}
