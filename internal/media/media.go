// Package media models the paper's motivating application domain: media
// objects and transcoding services (§1, §4.3). A media stream has a
// format — codec, spatial resolution and bitrate — and transcoder services
// convert between formats at a CPU cost.
//
// Substitution note (see DESIGN.md): the paper transcoded real streams; we
// use a synthetic cost model in which the work of a transcode is
// proportional to the output pixel rate scaled by a per-codec complexity
// factor. The resource-management layer consumes only per-service cost and
// bandwidth numbers, so any monotone cost model exercises identical code
// paths.
package media

import (
	"fmt"
	"strconv"
	"strings"
)

// Codec identifies a video codec family.
type Codec string

// Codecs used by the paper's example and the workload generator.
const (
	MPEG2 Codec = "MPEG-2"
	MPEG4 Codec = "MPEG-4"
	H263  Codec = "H.263"
	RAW   Codec = "RAW"
)

// complexity is the relative CPU cost of encoding one pixel in each codec.
var complexity = map[Codec]float64{
	MPEG2: 1.0,
	MPEG4: 1.6, // more sophisticated motion estimation
	H263:  0.8,
	RAW:   0.2,
}

// Complexity returns the relative per-pixel encode cost of c (1.0 for an
// unknown codec).
func (c Codec) Complexity() float64 {
	if f, ok := complexity[c]; ok {
		return f
	}
	return 1.0
}

// Format is one concrete media presentation: a vertex of the paper's
// resource graph is "an application state", which for transcoding is a
// format (Fig. 1).
type Format struct {
	Codec       Codec
	Width       int
	Height      int
	BitrateKbps int
}

// String renders e.g. "MPEG-2 800x600@512Kbps".
func (f Format) String() string {
	var buf [48]byte
	return string(append(f.appendFields(buf[:0], ' ', '@'), "Kbps"...))
}

// Key returns a stable identifier usable as a map key or Bloom entry,
// e.g. "MPEG-2/800x600/512".
func (f Format) Key() string {
	var buf [48]byte
	return string(f.appendKey(buf[:0]))
}

func (f Format) appendKey(b []byte) []byte { return f.appendFields(b, '/', '/') }

// appendFields appends codec, sep, WIDTHxHEIGHT, rateSep, bitrate. Keys
// and labels are built on every resource-graph rebuild, so they avoid fmt.
func (f Format) appendFields(b []byte, sep, rateSep byte) []byte {
	b = append(append(b, f.Codec...), sep)
	b = append(strconv.AppendInt(b, int64(f.Width), 10), 'x')
	b = append(strconv.AppendInt(b, int64(f.Height), 10), rateSep)
	return strconv.AppendInt(b, int64(f.BitrateKbps), 10)
}

// Pixels returns the spatial size of a frame.
func (f Format) Pixels() int { return f.Width * f.Height }

// Valid reports whether all fields are positive/populated.
func (f Format) Valid() bool {
	return f.Codec != "" && f.Width > 0 && f.Height > 0 && f.BitrateKbps > 0
}

// Satisfies reports whether f meets a requested constraint set: the codec
// must match (if constrained), and resolution and bitrate must not exceed
// the maxima while meeting the minima.
func (f Format) Satisfies(c Constraint) bool {
	if len(c.Codecs) > 0 {
		ok := false
		for _, cd := range c.Codecs {
			if cd == f.Codec {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if c.MaxWidth > 0 && f.Width > c.MaxWidth {
		return false
	}
	if c.MaxHeight > 0 && f.Height > c.MaxHeight {
		return false
	}
	if c.MinBitrateKbps > 0 && f.BitrateKbps < c.MinBitrateKbps {
		return false
	}
	if c.MaxBitrateKbps > 0 && f.BitrateKbps > c.MaxBitrateKbps {
		return false
	}
	return true
}

// Constraint is the acceptable-format set a user attaches to a request
// (§4.3: "a set of acceptable bitrates, resolutions and codecs").
type Constraint struct {
	Codecs         []Codec // empty = any
	MaxWidth       int     // 0 = unbounded
	MaxHeight      int
	MinBitrateKbps int
	MaxBitrateKbps int
}

// String renders the constraint compactly.
func (c Constraint) String() string {
	var parts []string
	if len(c.Codecs) > 0 {
		names := make([]string, len(c.Codecs))
		for i, cd := range c.Codecs {
			names[i] = string(cd)
		}
		parts = append(parts, strings.Join(names, "|"))
	}
	if c.MaxWidth > 0 || c.MaxHeight > 0 {
		parts = append(parts, fmt.Sprintf("<=%dx%d", c.MaxWidth, c.MaxHeight))
	}
	if c.MinBitrateKbps > 0 || c.MaxBitrateKbps > 0 {
		parts = append(parts, fmt.Sprintf("%d-%dKbps", c.MinBitrateKbps, c.MaxBitrateKbps))
	}
	if len(parts) == 0 {
		return "any"
	}
	return strings.Join(parts, " ")
}

// Transcoder describes one transcoding service: an edge of the resource
// graph (§3.4). A transcoder converts exactly one input format to one
// output format; peers advertise sets of transcoders.
type Transcoder struct {
	From Format
	To   Format
}

// Key returns a stable service identifier, e.g. for Bloom summaries.
func (t Transcoder) Key() string {
	var buf [96]byte
	return string(t.To.appendKey(append(t.From.appendKey(buf[:0]), "->"...)))
}

// OutputKey returns the Key of the output format of the transcoder whose
// Key is key: the format a stage running that service emits. It returns
// "" for a string that is not a transcoder key.
func OutputKey(key string) string {
	_, out, _ := strings.Cut(key, "->")
	return out
}

// String renders e.g. "T(MPEG-2 800x600@512Kbps -> MPEG-4 640x480@64Kbps)".
func (t Transcoder) String() string { return fmt.Sprintf("T(%s -> %s)", t.From, t.To) }

// WorkUnits returns the abstract CPU work required to transcode one second
// of media through t. Decoding costs a fraction of the input pixel rate;
// encoding dominates and scales with the output pixel rate and codec
// complexity. One work unit ≈ one second of CPU on a speed-1.0 peer for a
// reference 640x480 MPEG-2 encode, so utilization numbers stay intuitive.
func (t Transcoder) WorkUnits() float64 {
	const refPixels = 640 * 480
	decode := 0.3 * float64(t.From.Pixels()) / refPixels * t.From.Codec.Complexity()
	encode := float64(t.To.Pixels()) / refPixels * t.To.Codec.Complexity()
	return decode + encode
}

// Object is a media object stored at a peer (§3.1 item 5): content plus
// meta-data.
type Object struct {
	Name   string // content identifier (e.g. "movie-42")
	Format Format
	Hash   uint64 // synthetic content hash
	Bytes  int64  // storage size
}

// Key returns the inventory key: objects are looked up by name, the format
// is negotiated by transcoding.
func (o Object) Key() string { return o.Name }

// DurationSeconds estimates playing time from size and bitrate.
func (o Object) DurationSeconds() float64 {
	if o.Format.BitrateKbps <= 0 {
		return 0
	}
	return float64(o.Bytes) * 8 / 1000 / float64(o.Format.BitrateKbps)
}
