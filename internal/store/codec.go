package store

import (
	"encoding/binary"
	"fmt"
	"math"

	"uncertts/internal/corpus"
	"uncertts/internal/stats"
	"uncertts/internal/timeseries"
)

// The on-disk encoding is a flat little-endian byte stream: fixed-width
// primitives (u8/u32/u64/f64), u32-length-prefixed slices, and one
// presence byte in front of every optional field (so nil and empty stay
// distinct — the corpus treats them differently). Error distributions are
// a tagged union over the families the paper uses; anything else is
// rejected at append time, which aborts the mutation before it is
// acknowledged.

// Distribution tags of the dist union.
const (
	distNormal      = 1
	distUniform     = 2
	distExponential = 3
	distMixture     = 4
)

// maxSliceLen caps every decoded length so corrupted records cannot drive
// huge allocations: a length is only trusted if the remaining payload
// could possibly hold that many one-byte elements.
func (d *dec) sliceLen(elemSize int) (int, bool) {
	n := int(d.u32())
	if d.err != nil {
		return 0, false
	}
	if n < 0 || elemSize*n > len(d.b)-d.off {
		d.fail("slice length %d exceeds the remaining payload", n)
		return 0, false
	}
	return n, true
}

// enc appends primitives to a growing buffer. Encoding cannot fail except
// on an unsupported distribution, which the dist method reports.
type enc struct{ b []byte }

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) i64(v int64)  { e.u64(uint64(v)) }
func (e *enc) f64(v float64) {
	e.u64(math.Float64bits(v))
}
func (e *enc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *enc) floats(v []float64) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.f64(x)
	}
}

// f64Block appends raw float64s with no length prefix — the caller has
// already written the total. One grow, then straight stores: the bulk form
// for writing a whole arena in a single pass.
func (e *enc) f64Block(v []float64) {
	off := len(e.b)
	e.b = append(e.b, make([]byte, 8*len(v))...)
	for i, x := range v {
		binary.LittleEndian.PutUint64(e.b[off+8*i:], math.Float64bits(x))
	}
}

func (e *enc) dist(d stats.Dist) error {
	switch v := d.(type) {
	case stats.Normal:
		e.u8(distNormal)
		e.f64(v.Mu)
		e.f64(v.Sigma)
	case stats.Uniform:
		e.u8(distUniform)
		e.f64(v.A)
		e.f64(v.B)
	case stats.Exponential:
		e.u8(distExponential)
		e.f64(v.Scale)
		e.f64(v.Shift)
	case stats.Mixture:
		e.u8(distMixture)
		e.u32(uint32(len(v.Components)))
		for i, c := range v.Components {
			if err := e.dist(c); err != nil {
				return err
			}
			e.f64(v.Weights[i])
		}
	default:
		return fmt.Errorf("store: error distribution %T is not persistable (want normal, uniform, exponential or a mixture of them)", d)
	}
	return nil
}

func (e *enc) dists(ds []stats.Dist) error {
	e.u32(uint32(len(ds)))
	for _, d := range ds {
		if err := e.dist(d); err != nil {
			return err
		}
	}
	return nil
}

// series encodes one ingestion record exactly as submitted: nil error
// models and nil sample models stay nil through a round trip, so replay
// walks the same defaulting paths the original insert did.
func (e *enc) series(s corpus.Series) error {
	e.floats(s.Values)
	e.i64(int64(s.Label))
	e.bool(s.Errors != nil)
	if s.Errors != nil {
		if err := e.dists(s.Errors); err != nil {
			return err
		}
	}
	e.bool(s.Samples != nil)
	if s.Samples != nil {
		e.u32(uint32(len(s.Samples)))
		for _, row := range s.Samples {
			e.floats(row)
		}
	}
	return nil
}

// seriesTail encodes a series record minus its values — the V2 checkpoint
// form, where every values vector lives in the shared flat block instead.
func (e *enc) seriesTail(s corpus.Series) error {
	e.i64(int64(s.Label))
	e.bool(s.Errors != nil)
	if s.Errors != nil {
		if err := e.dists(s.Errors); err != nil {
			return err
		}
	}
	e.bool(s.Samples != nil)
	if s.Samples != nil {
		e.u32(uint32(len(s.Samples)))
		for _, row := range s.Samples {
			e.floats(row)
		}
	}
	return nil
}

// config encodes the corpus artifact geometry. Checkpoints persist the
// resolved config, so recovery never re-derives length- or sigma-dependent
// defaults from data.
func (e *enc) config(cfg corpus.Config) error {
	e.i64(int64(cfg.Length))
	e.f64(cfg.ReportedSigma)
	e.bool(cfg.Sigmas != nil)
	if cfg.Sigmas != nil {
		e.floats(cfg.Sigmas)
	}
	e.bool(cfg.Errors != nil)
	if cfg.Errors != nil {
		if err := e.dists(cfg.Errors); err != nil {
			return err
		}
	}
	e.i64(int64(cfg.Band))
	e.i64(int64(cfg.Segments))
	e.i64(int64(cfg.W))
	e.f64(cfg.Lambda)
	e.i64(int64(cfg.Mode))
	e.i64(int64(cfg.DUST.TableSize))
	e.f64(cfg.DUST.MaxDelta)
	e.f64(cfg.DUST.TailWeight)
	e.f64(cfg.DUST.TailSpread)
	e.bool(cfg.DUST.Exact)
	e.f64(cfg.DUST.IntegrationTol)
	return nil
}

// encodeMutation renders one WAL record payload.
func encodeMutation(m corpus.Mutation) ([]byte, error) {
	var e enc
	e.u64(m.Epoch)
	e.i64(int64(m.FirstID))
	e.u32(uint32(len(m.Insert)))
	for _, s := range m.Insert {
		if err := e.series(s); err != nil {
			return nil, err
		}
	}
	e.u32(uint32(len(m.Delete)))
	for _, id := range m.Delete {
		e.i64(int64(id))
	}
	// Explicit ID assignments (ApplyAt mutations) ride in an optional
	// trailing section, so every record without one is byte-identical to
	// the pre-cluster format: old logs replay unchanged, and new logs
	// without explicit IDs stay readable by the old decoder.
	if len(m.IDs) > 0 {
		e.u32(uint32(len(m.IDs)))
		for _, id := range m.IDs {
			e.i64(int64(id))
		}
	}
	return e.b, nil
}

// dec reads primitives back out of a payload, latching the first error and
// returning zero values afterwards, so call sites read linearly and check
// once.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...interface{}) {
	if d.err == nil {
		d.err = fmt.Errorf("store: decode: "+format, args...)
	}
}

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) {
		d.fail("truncated payload (want %d bytes at offset %d of %d)", n, d.off, len(d.b))
		return nil
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

func (d *dec) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *dec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *dec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *dec) i64() int64   { return int64(d.u64()) }
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }
func (d *dec) bool() bool   { return d.u8() != 0 }
func (d *dec) done() bool   { return d.err == nil && d.off == len(d.b) }

func (d *dec) floats() []float64 {
	n, ok := d.sliceLen(8)
	if !ok {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.f64()
	}
	return out
}

func (d *dec) dist() stats.Dist {
	switch tag := d.u8(); tag {
	case distNormal:
		mu, sigma := d.f64(), d.f64()
		if d.err != nil {
			return nil
		}
		if sigma <= 0 || math.IsNaN(sigma) {
			d.fail("normal distribution with sigma %v", sigma)
			return nil
		}
		return stats.Normal{Mu: mu, Sigma: sigma}
	case distUniform:
		a, b := d.f64(), d.f64()
		if d.err != nil {
			return nil
		}
		if !(b > a) {
			d.fail("uniform distribution with empty support [%v, %v]", a, b)
			return nil
		}
		return stats.Uniform{A: a, B: b}
	case distExponential:
		scale, shift := d.f64(), d.f64()
		if d.err != nil {
			return nil
		}
		if scale <= 0 || math.IsNaN(scale) {
			d.fail("exponential distribution with scale %v", scale)
			return nil
		}
		return stats.Exponential{Scale: scale, Shift: shift}
	case distMixture:
		n, ok := d.sliceLen(1)
		if !ok {
			return nil
		}
		if n == 0 {
			d.fail("empty mixture")
			return nil
		}
		comps := make([]stats.Dist, n)
		weights := make([]float64, n)
		for i := range comps {
			comps[i] = d.dist()
			weights[i] = d.f64()
			if d.err != nil {
				return nil
			}
			if weights[i] < 0 || math.IsNaN(weights[i]) {
				d.fail("mixture weight %v", weights[i])
				return nil
			}
		}
		return stats.Mixture{Components: comps, Weights: weights}
	default:
		d.fail("unknown distribution tag %d", tag)
		return nil
	}
}

func (d *dec) dists() []stats.Dist {
	n, ok := d.sliceLen(1)
	if !ok {
		return nil
	}
	out := make([]stats.Dist, n)
	for i := range out {
		out[i] = d.dist()
		if d.err != nil {
			return nil
		}
	}
	return out
}

func (d *dec) series() corpus.Series {
	var s corpus.Series
	s.Values = d.floats()
	s.Label = int(d.i64())
	if d.bool() {
		s.Errors = d.dists()
	}
	if d.bool() {
		n, ok := d.sliceLen(4)
		if !ok {
			return s
		}
		s.Samples = make([][]float64, n)
		for i := range s.Samples {
			s.Samples[i] = d.floats()
		}
	}
	return s
}

// f64Block reads a u64 count followed by that many raw float64s — the
// decode counterpart of enc.f64Block plus its preceding total, converted in
// one pass into a single allocation.
func (d *dec) f64Block() []float64 {
	n := int(d.u64())
	if d.err != nil {
		return nil
	}
	if n < 0 || n > (len(d.b)-d.off)/8 { // by division: 8*n can wrap
		d.fail("values block length %d exceeds the remaining payload", n)
		return nil
	}
	b := d.take(8 * n)
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// seriesTail decodes a V2 series record; Values is left nil for the caller
// to attach from the shared block.
func (d *dec) seriesTail() corpus.Series {
	var s corpus.Series
	s.Label = int(d.i64())
	if d.bool() {
		s.Errors = d.dists()
	}
	if d.bool() {
		n, ok := d.sliceLen(4)
		if !ok {
			return s
		}
		s.Samples = make([][]float64, n)
		for i := range s.Samples {
			s.Samples[i] = d.floats()
		}
	}
	return s
}

func (d *dec) config() corpus.Config {
	var cfg corpus.Config
	length := d.i64()
	if cfg.Length = int(length); length < 0 || int64(cfg.Length) != length {
		d.fail("series length %d out of range", length)
	}
	cfg.ReportedSigma = d.f64()
	if d.bool() {
		cfg.Sigmas = d.floats()
	}
	if d.bool() {
		cfg.Errors = d.dists()
	}
	cfg.Band = int(d.i64())
	cfg.Segments = int(d.i64())
	cfg.W = int(d.i64())
	cfg.Lambda = d.f64()
	cfg.Mode = timeseries.WeightMode(d.i64())
	cfg.DUST.TableSize = int(d.i64())
	cfg.DUST.MaxDelta = d.f64()
	cfg.DUST.TailWeight = d.f64()
	cfg.DUST.TailSpread = d.f64()
	cfg.DUST.Exact = d.bool()
	cfg.DUST.IntegrationTol = d.f64()
	return cfg
}

// decodeMutation parses one WAL record payload.
func decodeMutation(payload []byte) (corpus.Mutation, error) {
	d := &dec{b: payload}
	var m corpus.Mutation
	m.Epoch = d.u64()
	m.FirstID = int(d.i64())
	if n, ok := d.sliceLen(1); ok && n > 0 {
		m.Insert = make([]corpus.Series, n)
		for i := range m.Insert {
			m.Insert[i] = d.series()
			if d.err != nil {
				break
			}
		}
	}
	if n, ok := d.sliceLen(8); ok && n > 0 {
		m.Delete = make([]int, n)
		for i := range m.Delete {
			m.Delete[i] = int(d.i64())
		}
	}
	// Optional explicit-ID section (absent in pre-cluster records).
	if d.err == nil && d.off < len(d.b) {
		if n, ok := d.sliceLen(8); ok && n > 0 {
			m.IDs = make([]int, n)
			for i := range m.IDs {
				m.IDs[i] = int(d.i64())
			}
		}
	}
	if d.err != nil {
		return corpus.Mutation{}, d.err
	}
	if !d.done() {
		return corpus.Mutation{}, fmt.Errorf("store: decode: %d trailing bytes after the mutation", len(d.b)-d.off)
	}
	return m, nil
}
