package media

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestFormatString(t *testing.T) {
	f := Format{MPEG2, 800, 600, 512}
	if got := f.String(); got != "MPEG-2 800x600@512Kbps" {
		t.Fatalf("String = %q", got)
	}
}

func TestFormatKeyStable(t *testing.T) {
	a := Format{MPEG4, 640, 480, 64}
	b := Format{MPEG4, 640, 480, 64}
	if a.Key() != b.Key() {
		t.Fatal("equal formats produced different keys")
	}
	c := Format{MPEG4, 640, 480, 128}
	if a.Key() == c.Key() {
		t.Fatal("different formats collided")
	}
}

func TestFormatValid(t *testing.T) {
	if !(Format{MPEG2, 1, 1, 1}).Valid() {
		t.Fatal("valid format rejected")
	}
	for _, f := range []Format{
		{"", 1, 1, 1}, {MPEG2, 0, 1, 1}, {MPEG2, 1, 0, 1}, {MPEG2, 1, 1, 0},
	} {
		if f.Valid() {
			t.Fatalf("invalid format %v accepted", f)
		}
	}
}

func TestPixels(t *testing.T) {
	if got := (Format{MPEG2, 800, 600, 512}).Pixels(); got != 480000 {
		t.Fatalf("Pixels = %d", got)
	}
}

func TestSatisfies(t *testing.T) {
	f := Format{MPEG4, 640, 480, 64}
	cases := []struct {
		c    Constraint
		want bool
	}{
		{Constraint{}, true},
		{Constraint{Codecs: []Codec{MPEG4}}, true},
		{Constraint{Codecs: []Codec{MPEG2}}, false},
		{Constraint{Codecs: []Codec{MPEG2, MPEG4}}, true},
		{Constraint{MaxWidth: 640, MaxHeight: 480}, true},
		{Constraint{MaxWidth: 320}, false},
		{Constraint{MaxHeight: 240}, false},
		{Constraint{MinBitrateKbps: 64}, true},
		{Constraint{MinBitrateKbps: 128}, false},
		{Constraint{MaxBitrateKbps: 64}, true},
		{Constraint{MaxBitrateKbps: 32}, false},
	}
	for i, c := range cases {
		if got := f.Satisfies(c.c); got != c.want {
			t.Errorf("case %d: Satisfies(%v) = %v, want %v", i, c.c, got, c.want)
		}
	}
}

func TestConstraintString(t *testing.T) {
	if got := (Constraint{}).String(); got != "any" {
		t.Fatalf("empty constraint = %q", got)
	}
	c := Constraint{Codecs: []Codec{MPEG4}, MaxWidth: 640, MaxHeight: 480, MaxBitrateKbps: 64}
	s := c.String()
	for _, want := range []string{"MPEG-4", "640x480", "64Kbps"} {
		if !strings.Contains(s, want) {
			t.Errorf("constraint string %q missing %q", s, want)
		}
	}
}

func TestCodecComplexity(t *testing.T) {
	if MPEG4.Complexity() <= MPEG2.Complexity() {
		t.Fatal("MPEG-4 should cost more than MPEG-2")
	}
	if RAW.Complexity() >= H263.Complexity() {
		t.Fatal("RAW should be cheapest to encode")
	}
	if Codec("unknown").Complexity() != 1.0 {
		t.Fatal("unknown codec should default to 1.0")
	}
}

func TestTranscoderWorkUnits(t *testing.T) {
	// Downscaling to fewer output pixels must cost less encode work.
	big := Transcoder{
		From: Format{MPEG2, 800, 600, 512},
		To:   Format{MPEG2, 800, 600, 256},
	}
	small := Transcoder{
		From: Format{MPEG2, 800, 600, 512},
		To:   Format{MPEG2, 320, 240, 64},
	}
	if big.WorkUnits() <= small.WorkUnits() {
		t.Fatalf("big=%v small=%v", big.WorkUnits(), small.WorkUnits())
	}
	if small.WorkUnits() <= 0 {
		t.Fatal("work units must be positive")
	}
	// Reference sanity: 640x480 MPEG-2 -> MPEG-2 same size costs ~1.3
	// (1.0 encode + 0.3 decode).
	ref := Transcoder{
		From: Format{MPEG2, 640, 480, 512},
		To:   Format{MPEG2, 640, 480, 256},
	}
	if w := ref.WorkUnits(); w < 1.2 || w > 1.4 {
		t.Fatalf("reference transcode work = %v, want ≈1.3", w)
	}
}

func TestTranscoderKeyAndString(t *testing.T) {
	tr := Transcoder{
		From: Format{MPEG2, 800, 600, 512},
		To:   Format{MPEG4, 640, 480, 64},
	}
	if !strings.Contains(tr.Key(), "->") {
		t.Fatalf("Key = %q", tr.Key())
	}
	if !strings.Contains(tr.String(), "MPEG-4") {
		t.Fatalf("String = %q", tr.String())
	}
	// Keys must distinguish direction.
	rev := Transcoder{From: tr.To, To: tr.From}
	if tr.Key() == rev.Key() {
		t.Fatal("reversed transcoder has same key")
	}
	if got := OutputKey(tr.Key()); got != tr.To.Key() {
		t.Fatalf("OutputKey = %q, want %q", got, tr.To.Key())
	}
	if got := OutputKey(tr.To.Key()); got != "" {
		t.Fatalf("OutputKey of a format key = %q, want empty", got)
	}
}

func TestObjectDuration(t *testing.T) {
	o := Object{
		Name:   "movie-1",
		Format: Format{MPEG2, 640, 480, 1000},
		Bytes:  1000 * 1000 / 8 * 60, // 60s at 1000Kbps
	}
	if got := o.DurationSeconds(); got < 59.9 || got > 60.1 {
		t.Fatalf("DurationSeconds = %v, want 60", got)
	}
	if o.Key() != "movie-1" {
		t.Fatalf("Key = %q", o.Key())
	}
	zero := Object{Name: "x"}
	if zero.DurationSeconds() != 0 {
		t.Fatal("zero-bitrate duration should be 0")
	}
}

func TestPropertyQuickSatisfiesConsistent(t *testing.T) {
	// A format always satisfies the constraint derived from itself, and
	// never satisfies one demanding a strictly smaller resolution.
	check := func(wRaw, hRaw, brRaw uint16, codecPick uint8) bool {
		codecs := []Codec{MPEG2, MPEG4, H263, RAW}
		f := Format{
			Codec:       codecs[int(codecPick)%len(codecs)],
			Width:       1 + int(wRaw%4096),
			Height:      1 + int(hRaw%4096),
			BitrateKbps: 1 + int(brRaw%8192),
		}
		self := Constraint{
			Codecs:         []Codec{f.Codec},
			MaxWidth:       f.Width,
			MaxHeight:      f.Height,
			MinBitrateKbps: f.BitrateKbps,
			MaxBitrateKbps: f.BitrateKbps,
		}
		if !f.Satisfies(self) {
			return false
		}
		if f.Width > 1 {
			tooSmall := Constraint{MaxWidth: f.Width - 1}
			if f.Satisfies(tooSmall) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyQuickWorkUnitsPositiveMonotone(t *testing.T) {
	// Transcode work is always positive and grows with output pixels.
	check := func(wRaw, hRaw uint16) bool {
		w := 16 + int(wRaw%2048)
		h := 16 + int(hRaw%2048)
		from := Format{Codec: MPEG2, Width: 800, Height: 600, BitrateKbps: 512}
		small := Transcoder{From: from, To: Format{Codec: MPEG4, Width: w, Height: h, BitrateKbps: 64}}
		big := Transcoder{From: from, To: Format{Codec: MPEG4, Width: w * 2, Height: h, BitrateKbps: 64}}
		return small.WorkUnits() > 0 && big.WorkUnits() > small.WorkUnits()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
