package profiler

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEWMAFirstSample(t *testing.T) {
	e := NewEWMA(0.3)
	if e.Seen() {
		t.Fatal("fresh EWMA claims samples")
	}
	e.Observe(10)
	if e.Value() != 10 {
		t.Fatalf("first sample Value = %v", e.Value())
	}
	if !e.Seen() {
		t.Fatal("Seen false after sample")
	}
}

func TestEWMASmoothing(t *testing.T) {
	e := NewEWMA(0.5)
	e.Observe(10)
	e.Observe(20)
	if e.Value() != 15 {
		t.Fatalf("Value = %v, want 15", e.Value())
	}
	e.Observe(15)
	if e.Value() != 15 {
		t.Fatalf("Value = %v, want 15", e.Value())
	}
}

func TestEWMAAlphaOneTracksLast(t *testing.T) {
	e := NewEWMA(1)
	e.Observe(3)
	e.Observe(7)
	if e.Value() != 7 {
		t.Fatalf("alpha=1 Value = %v", e.Value())
	}
}

func TestEWMAPanics(t *testing.T) {
	for _, a := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("alpha %v accepted", a)
				}
			}()
			NewEWMA(a)
		}()
	}
}

// Property: EWMA value always lies within [min, max] of observed samples.
func TestPropertyEWMABounded(t *testing.T) {
	check := func(raw []float64) bool {
		e := NewEWMA(0.25)
		lo, hi := math.Inf(1), math.Inf(-1)
		any := false
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			any = true
			e.Observe(v)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if !any {
			return true
		}
		return e.Value() >= lo-1e-9 && e.Value() <= hi+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestProfilerLoad(t *testing.T) {
	p := New(3, 4)
	p.SetLoad(2)
	if p.Load() != 2 || p.Utilization() != 0.5 {
		t.Fatalf("load/util = %v/%v", p.Load(), p.Utilization())
	}
	p.AddLoad(1)
	if p.Load() != 3 {
		t.Fatalf("AddLoad -> %v", p.Load())
	}
	p.AddLoad(-10) // clamps at 0
	if p.Load() != 0 {
		t.Fatalf("clamped load = %v", p.Load())
	}
}

func TestProfilerBandwidth(t *testing.T) {
	p := New(0, 1)
	p.SetBandwidth(512)
	p.AddBandwidth(-600)
	if p.Bandwidth() != 0 {
		t.Fatalf("bandwidth = %v", p.Bandwidth())
	}
	p.AddBandwidth(128)
	if p.Bandwidth() != 128 {
		t.Fatalf("bandwidth = %v", p.Bandwidth())
	}
}

func TestSnapshot(t *testing.T) {
	p := New(7, 2)
	p.SetLoad(1)
	p.SetBandwidth(256)
	r := p.Snapshot(1234)
	if r.Peer != 7 || r.At != 1234 {
		t.Fatalf("snapshot meta = %+v", r)
	}
	if r.Load != 1 || r.Utilization != 0.5 || r.BandwidthKbps != 256 {
		t.Fatalf("snapshot values = %+v", r)
	}
}

func TestNewPanicsOnBadSpeed(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero speed accepted")
		}
	}()
	New(0, 0)
}

func TestString(t *testing.T) {
	p := New(1, 1)
	if s := p.String(); len(s) == 0 {
		t.Fatal("empty String")
	}
}
