package core

import (
	"testing"

	"repro/internal/env"
	"repro/internal/proto"
)

// TestLeastLoadedRanksByDirectory: object lookups rank providers by the
// load the directory cache lists for their domain, never by figures in
// the object records; a domain the directory lacks ranks after every
// listed one, lowest RM first; the asking RM's own domain is skipped.
func TestLeastLoadedRanksByDirectory(t *testing.T) {
	dir := []proto.DHTProvider{
		{Domain: 1, RM: 10, NumPeers: 4, AvgUtil: 0.6},
		{Domain: 2, RM: 20, NumPeers: 4, AvgUtil: 0.2},
		{Domain: 3, RM: 30, NumPeers: 4, AvgUtil: 0.2},
		{Domain: 4, RM: 40, NumPeers: 4, AvgUtil: 0.1},
	}
	rec := func(d proto.DomainID, rm env.NodeID) proto.DHTProvider { return proto.DHTProvider{Domain: d, RM: rm} }
	cases := []struct {
		name string
		vs   []proto.DHTProvider
		own  proto.DomainID
		want env.NodeID
	}{
		{"least utilized", []proto.DHTProvider{rec(1, 10), rec(2, 20)}, proto.NoDomain, 20},
		{"tie to the lower RM", []proto.DHTProvider{rec(3, 30), rec(2, 20)}, proto.NoDomain, 20},
		{"own domain skipped", []proto.DHTProvider{rec(4, 40), rec(1, 10)}, 4, 10},
		{"unlisted after listed", []proto.DHTProvider{rec(9, 5), rec(1, 10)}, proto.NoDomain, 10},
		{"unlisted after listed, either order", []proto.DHTProvider{rec(1, 10), rec(9, 5)}, proto.NoDomain, 10},
		{"unlisted by RM", []proto.DHTProvider{rec(9, 7), rec(8, 6)}, proto.NoDomain, 6},
		{"only the own domain", []proto.DHTProvider{rec(2, 20)}, 2, env.NoNode},
		{"record figures ignored", []proto.DHTProvider{{Domain: 1, RM: 10, AvgUtil: 0}, {Domain: 2, RM: 20, AvgUtil: 0.9}}, proto.NoDomain, 20},
	}
	for _, c := range cases {
		if got := leastLoaded(c.vs, dir, c.own); got != c.want {
			t.Errorf("%s: leastLoaded = %d, want %d", c.name, got, c.want)
		}
	}
}
