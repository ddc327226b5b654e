package bloom

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestNoFalseNegatives(t *testing.T) {
	f := New(1024, 4)
	keys := make([]string, 100)
	for i := range keys {
		keys[i] = fmt.Sprintf("object-%d", i)
		f.AddString(keys[i])
	}
	for _, k := range keys {
		if !f.ContainsString(k) {
			t.Fatalf("false negative for %q", k)
		}
	}
	if f.N() != 100 {
		t.Fatalf("N = %d", f.N())
	}
}

func TestAbsentKeysMostlyAbsent(t *testing.T) {
	f := NewWithEstimate(1000, 0.01)
	for i := 0; i < 1000; i++ {
		f.AddString(fmt.Sprintf("present-%d", i))
	}
	fp := 0
	const probes = 10000
	for i := 0; i < probes; i++ {
		if f.ContainsString(fmt.Sprintf("absent-%d", i)) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.03 { // target 1%, allow 3x slack
		t.Fatalf("false positive rate %.4f exceeds 0.03", rate)
	}
}

func TestNewWithEstimateGeometry(t *testing.T) {
	f := NewWithEstimate(1000, 0.01)
	// Optimal m ≈ 9585 bits, k ≈ 7.
	if f.M() < 9000 || f.M() > 10240 {
		t.Fatalf("m = %d, want ≈9585", f.M())
	}
	if f.K() < 6 || f.K() > 8 {
		t.Fatalf("k = %d, want ≈7", f.K())
	}
}

func TestNewWithEstimateZeroElements(t *testing.T) {
	f := NewWithEstimate(0, 0.01)
	if f.M() == 0 {
		t.Fatal("zero-sized filter")
	}
}

func TestNewPanics(t *testing.T) {
	for _, c := range []struct {
		m uint64
		k uint32
	}{{0, 1}, {1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", c.m, c.k)
				}
			}()
			New(c.m, c.k)
		}()
	}
}

func TestBadFPRatePanics(t *testing.T) {
	for _, fp := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewWithEstimate(_, %v) did not panic", fp)
				}
			}()
			NewWithEstimate(10, fp)
		}()
	}
}

func TestUnion(t *testing.T) {
	a := New(512, 3)
	b := New(512, 3)
	a.AddString("x")
	b.AddString("y")
	if err := a.Union(b); err != nil {
		t.Fatal(err)
	}
	if !a.ContainsString("x") || !a.ContainsString("y") {
		t.Fatal("union lost elements")
	}
	if a.N() != 2 {
		t.Fatalf("union N = %d", a.N())
	}
}

func TestUnionIncompatible(t *testing.T) {
	a := New(512, 3)
	b := New(1024, 3)
	if err := a.Union(b); err == nil {
		t.Fatal("union of different m succeeded")
	}
	c := New(512, 4)
	if err := a.Union(c); err == nil {
		t.Fatal("union of different k succeeded")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := New(256, 2)
	a.AddString("x")
	b := a.Clone()
	b.AddString("y")
	// With 1 element in 256 bits the chance "y" aliases is negligible, and
	// the hash is deterministic, so this is a stable check.
	if a.ContainsString("y") {
		t.Fatal("clone aliases original")
	}
	if !b.ContainsString("x") || !b.ContainsString("y") {
		t.Fatal("clone incomplete")
	}
}

func TestReset(t *testing.T) {
	f := New(256, 2)
	f.AddString("x")
	f.Reset()
	if f.ContainsString("x") {
		t.Fatal("element survived Reset")
	}
	if f.FillRatio() != 0 || f.N() != 0 {
		t.Fatal("Reset did not clear state")
	}
}

func TestFillRatioMonotone(t *testing.T) {
	f := New(1024, 4)
	prev := 0.0
	for i := 0; i < 200; i++ {
		f.AddString(fmt.Sprintf("k%d", i))
		r := f.FillRatio()
		if r < prev {
			t.Fatalf("fill ratio decreased: %v -> %v", prev, r)
		}
		prev = r
	}
	if prev <= 0 || prev > 1 {
		t.Fatalf("fill ratio %v out of (0,1]", prev)
	}
}

func TestEstimatedFalsePositiveRate(t *testing.T) {
	f := New(1024, 4)
	if f.EstimatedFalsePositiveRate() != 0 {
		t.Fatal("empty filter should estimate 0 fp rate")
	}
	for i := 0; i < 100; i++ {
		f.AddString(fmt.Sprintf("k%d", i))
	}
	est := f.EstimatedFalsePositiveRate()
	if est <= 0 || est >= 1 {
		t.Fatalf("estimate %v out of (0,1)", est)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	f := New(512, 3)
	for i := 0; i < 50; i++ {
		f.AddString(fmt.Sprintf("svc-%d", i))
	}
	data := f.Bytes()
	g, err := FromBytes(data, f.M(), f.K())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if !g.ContainsString(fmt.Sprintf("svc-%d", i)) {
			t.Fatalf("round trip lost svc-%d", i)
		}
	}
}

func TestFromBytesBadLength(t *testing.T) {
	if _, err := FromBytes([]byte{1, 2, 3}, 512, 3); err == nil {
		t.Fatal("bad payload accepted")
	}
	for _, g := range []struct {
		m uint64
		k uint32
	}{{0, 3}, {512, 0}} {
		if _, err := FromBytes(make([]byte, 64), g.m, g.k); err == nil {
			t.Errorf("FromBytes(m=%d, k=%d) accepted a zero geometry", g.m, g.k)
		}
	}
}

// BytesContainString must answer exactly as decoding the payload and
// testing the decoded filter does, errors included, over geometries on
// both sides of word boundaries.
func TestBytesContainStringMatchesFromBytes(t *testing.T) {
	r := rng.New(7)
	for _, m := range []uint64{1, 63, 64, 65, 1000, 4096} {
		for k := uint32(1); k <= 8; k++ {
			f := New(m, k)
			var present []string
			for i := 0; i < int(m/16)+2; i++ {
				present = append(present, fmt.Sprintf("present-%d-%d", i, r.Intn(1000)))
				f.AddString(present[i])
			}
			data := f.Bytes()
			probe := func(s string) {
				want := f.ContainsString(s)
				g, err := FromBytes(data, m, k)
				if err != nil || g.ContainsString(s) != want {
					t.Fatalf("m=%d k=%d: FromBytes round trip disagrees with the filter (%v)", m, k, err)
				}
				got, err := BytesContainString(data, m, k, s)
				if err != nil || got != want {
					t.Fatalf("m=%d k=%d %q: BytesContainString = %v, %v; want %v", m, k, s, got, err, want)
				}
			}
			for _, s := range present {
				probe(s)
			}
			for i := 0; i < 200; i++ {
				probe(fmt.Sprintf("absent-%d", r.Intn(1<<30)))
			}
			probe("")
			for _, bad := range [][]byte{nil, data[:len(data)-1], append(data[:len(data):len(data)], 0)} {
				_, want := FromBytes(bad, m, k)
				if _, got := BytesContainString(bad, m, k, "x"); got == nil || got != want {
					t.Fatalf("m=%d k=%d len=%d: error %v, FromBytes gives %v", m, k, len(bad), got, want)
				}
			}
		}
	}
	for _, g := range []struct {
		m uint64
		k uint32
	}{{0, 3}, {512, 0}} {
		_, want := FromBytes(nil, g.m, g.k)
		if _, got := BytesContainString(nil, g.m, g.k, "x"); got == nil || got != want {
			t.Errorf("m=%d k=%d: error %v, FromBytes gives %v", g.m, g.k, got, want)
		}
	}
	data := New(4096, 4).Bytes()
	if n := testing.AllocsPerRun(100, func() { _, _ = BytesContainString(data, 4096, 4, "movie-42") }); n != 0 {
		t.Errorf("BytesContainString allocates %.0f times per probe", n)
	}
}

// Property: anything added is always contained (no false negatives), for
// arbitrary byte strings and random geometries.
func TestPropertyNoFalseNegatives(t *testing.T) {
	r := rng.New(99)
	check := func(keys [][]byte) bool {
		f := New(uint64(64+r.Intn(4096)), uint32(1+r.Intn(8)))
		for _, k := range keys {
			f.Add(k)
		}
		for _, k := range keys {
			if !f.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Union(a,b) contains everything a and b contain.
func TestPropertyUnionSuperset(t *testing.T) {
	check := func(ka, kb [][]byte) bool {
		a := New(2048, 3)
		b := New(2048, 3)
		for _, k := range ka {
			a.Add(k)
		}
		for _, k := range kb {
			b.Add(k)
		}
		u := a.Clone()
		if err := u.Union(b); err != nil {
			return false
		}
		for _, k := range ka {
			if !u.Contains(k) {
				return false
			}
		}
		for _, k := range kb {
			if !u.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMeasuredFPRateTracksEstimate(t *testing.T) {
	f := NewWithEstimate(500, 0.05)
	for i := 0; i < 500; i++ {
		f.AddString(fmt.Sprintf("in-%d", i))
	}
	fp := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		if f.ContainsString(fmt.Sprintf("out-%d", i)) {
			fp++
		}
	}
	measured := float64(fp) / probes
	est := f.EstimatedFalsePositiveRate()
	if measured > 3*est+0.01 {
		t.Fatalf("measured fp %.4f far above estimate %.4f", measured, est)
	}
}

func BenchmarkAdd(b *testing.B) {
	f := NewWithEstimate(100000, 0.01)
	key := []byte("some-service-name")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Add(key)
	}
}

func BenchmarkContains(b *testing.B) {
	f := NewWithEstimate(100000, 0.01)
	for i := 0; i < 10000; i++ {
		f.AddString(fmt.Sprintf("k%d", i))
	}
	key := []byte("k5000")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Contains(key)
	}
}
