// Package bloom implements the Bloom filters the paper's Resource Managers
// use to summarize the objects and services available in remote domains
// (§3.1). A filter answers "possibly present" or "definitely absent";
// false positives cost only a wasted inter-domain redirect, never a
// correctness failure.
//
// Hashing uses the Kirsch–Mitzenmacher double-hashing construction over two
// independent FNV-1a 64-bit digests, so membership tests cost two hash
// passes regardless of k.
package bloom

import (
	"errors"
	"math"
	"math/bits"
)

// Filter is a classic Bloom filter with m bits and k hash functions.
// The zero value is unusable; construct with New or NewWithEstimate.
type Filter struct {
	bits []uint64
	m    uint64 // number of bits
	k    uint32 // number of hash functions
	n    uint64 // elements added (for estimates)
}

// New returns a filter with m bits (rounded up to a multiple of 64) and k
// hash functions. It panics if m == 0 or k == 0.
func New(m uint64, k uint32) *Filter {
	if m == 0 || k == 0 {
		panic("bloom: New requires m > 0 and k > 0")
	}
	words := (m + 63) / 64
	return &Filter{bits: make([]uint64, words), m: words * 64, k: k}
}

// NewWithEstimate sizes a filter for n expected elements at target false
// positive rate fp, using the standard optimal formulas
// m = -n·ln(fp)/ln(2)² and k = (m/n)·ln(2).
func NewWithEstimate(n uint64, fp float64) *Filter {
	if n == 0 {
		n = 1
	}
	if fp <= 0 || fp >= 1 {
		panic("bloom: false positive rate must be in (0,1)")
	}
	m := uint64(math.Ceil(-float64(n) * math.Log(fp) / (math.Ln2 * math.Ln2)))
	k := uint32(math.Round(float64(m) / float64(n) * math.Ln2))
	if k == 0 {
		k = 1
	}
	return New(m, k)
}

// M returns the number of bits.
func (f *Filter) M() uint64 { return f.m }

// K returns the number of hash functions.
func (f *Filter) K() uint32 { return f.k }

// N returns the number of Add calls (an upper bound on distinct elements).
func (f *Filter) N() uint64 { return f.n }

// fnv1a computes FNV-1a over data with the given offset basis, giving two
// independent digests from two bases.
func fnv1a[T ~string | ~[]byte](data T, basis uint64) uint64 {
	h := basis
	for i := 0; i < len(data); i++ {
		h ^= uint64(data[i])
		h *= 1099511628211
	}
	return h
}

const (
	basis1 = 14695981039346656037 // standard FNV offset basis
	basis2 = 0x9747b28c9747b28c   // arbitrary second basis
)

// indexes yields the k bit positions for data via double hashing:
// g_i = h1 + i·h2 mod m.
func (f *Filter) indexes(data []byte, visit func(uint64)) {
	h1 := fnv1a(data, basis1)
	h2 := fnv1a(data, basis2) | 1 // odd so it cycles all residues for power-of-two m
	for i := uint32(0); i < f.k; i++ {
		visit((h1 + uint64(i)*h2) % f.m)
	}
}

// Add inserts data into the filter.
func (f *Filter) Add(data []byte) {
	f.indexes(data, func(idx uint64) {
		f.bits[idx/64] |= 1 << (idx % 64)
	})
	f.n++
}

// AddString inserts a string key.
func (f *Filter) AddString(s string) { f.Add([]byte(s)) }

// Contains reports whether data is possibly in the set. False positives
// are possible; false negatives are not.
func (f *Filter) Contains(data []byte) bool {
	ok := true
	f.indexes(data, func(idx uint64) {
		if f.bits[idx/64]&(1<<(idx%64)) == 0 {
			ok = false
		}
	})
	return ok
}

// ContainsString tests a string key.
func (f *Filter) ContainsString(s string) bool { return f.Contains([]byte(s)) }

// FillRatio returns the fraction of set bits.
func (f *Filter) FillRatio() float64 {
	var set int
	for _, w := range f.bits {
		set += bits.OnesCount64(w)
	}
	return float64(set) / float64(f.m)
}

// EstimatedFalsePositiveRate returns the expected false-positive
// probability given the current fill: (fill)^k.
func (f *Filter) EstimatedFalsePositiveRate() float64 {
	return math.Pow(f.FillRatio(), float64(f.k))
}

// Union ORs other into f. Both filters must have identical geometry.
func (f *Filter) Union(other *Filter) error {
	if f.m != other.m || f.k != other.k {
		return errors.New("bloom: union of incompatible filters")
	}
	for i, w := range other.bits {
		f.bits[i] |= w
	}
	f.n += other.n
	return nil
}

// Clone returns a deep copy.
func (f *Filter) Clone() *Filter {
	cp := &Filter{bits: make([]uint64, len(f.bits)), m: f.m, k: f.k, n: f.n}
	copy(cp.bits, f.bits)
	return cp
}

// Reset clears all bits.
func (f *Filter) Reset() {
	for i := range f.bits {
		f.bits[i] = 0
	}
	f.n = 0
}

// Bytes serializes the filter bits little-endian, preceded by no header;
// callers that need geometry must carry m and k separately (the gossip
// protocol fixes them per deployment).
func (f *Filter) Bytes() []byte {
	out := make([]byte, 8*len(f.bits))
	for i, w := range f.bits {
		for j := 0; j < 8; j++ {
			out[i*8+j] = byte(w >> (8 * j))
		}
	}
	return out
}

var (
	errGeometry = errors.New("bloom: geometry needs m > 0 and k > 0")
	errLength   = errors.New("bloom: payload length does not match geometry")
)

// FromBytes reconstructs a filter with the given geometry from Bytes
// output. It returns an error if m or k is zero or the payload length
// does not match m.
func FromBytes(data []byte, m uint64, k uint32) (*Filter, error) {
	if m == 0 || k == 0 {
		return nil, errGeometry
	}
	f := New(m, k)
	if len(data) != 8*len(f.bits) {
		return nil, errLength
	}
	for i := range f.bits {
		var w uint64
		for j := 0; j < 8; j++ {
			w |= uint64(data[i*8+j]) << (8 * j)
		}
		f.bits[i] = w
	}
	return f, nil
}

// BytesContainString tests s against Bytes output with the given
// geometry without decoding it: the result and error of
// FromBytes(data, m, k) followed by ContainsString(s), without
// allocating.
func BytesContainString(data []byte, m uint64, k uint32, s string) (bool, error) {
	if m == 0 || k == 0 {
		return false, errGeometry
	}
	words := (m + 63) / 64
	if uint64(len(data)) != 8*words {
		return false, errLength
	}
	m = words * 64
	h1 := fnv1a(s, basis1)
	h2 := fnv1a(s, basis2) | 1
	for i := uint32(0); i < k; i++ {
		idx := (h1 + uint64(i)*h2) % m
		if data[idx/8]&(1<<(idx%8)) == 0 {
			return false, nil
		}
	}
	return true, nil
}
