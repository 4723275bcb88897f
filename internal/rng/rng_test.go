package rng

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// refXoshiroPP is an independent transcription of the xoshiro256++ update
// from Blackman & Vigna's reference C code, used to cross-check the
// production implementation for transcription errors.
func refXoshiroPP(s *[4]uint64) uint64 {
	rotl := func(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }
	result := rotl(s[0]+s[3], 23) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

func TestXoshiro256AgainstReferenceTranscription(t *testing.T) {
	x := &Xoshiro256{s0: 1, s1: 2, s2: 3, s3: 4}
	ref := [4]uint64{1, 2, 3, 4}
	// First output with this state is rotl(1+4, 23) + 1 = 0x2800001;
	// pin it explicitly, then compare a long run.
	if got := refXoshiroPP(&ref); got != 0x2800001 {
		t.Fatalf("reference transcription self-check failed: %#x", got)
	}
	if got := x.Uint64(); got != 0x2800001 {
		t.Fatalf("first output %#x, want 0x2800001", got)
	}
	for i := 0; i < 1000; i++ {
		want := refXoshiroPP(&ref)
		if got := x.Uint64(); got != want {
			t.Fatalf("output %d = %#x, want %#x", i+1, got, want)
		}
	}
}

func TestXoshiroSeedNonZero(t *testing.T) {
	x := NewXoshiro256(0)
	if x.s0|x.s1|x.s2|x.s3 == 0 {
		t.Fatal("seeded state is all zeros")
	}
	// Different seeds give different streams.
	a, b := NewXoshiro256(1), NewXoshiro256(2)
	same := 0
	for i := 0; i < 10; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 collide on %d/10 outputs", same)
	}
}

func TestXoshiroFloat64Range(t *testing.T) {
	x := NewXoshiro256(42)
	for i := 0; i < 10000; i++ {
		v := x.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %g outside [0,1)", v)
		}
	}
}

func TestXoshiroJumpChangesStream(t *testing.T) {
	a := NewXoshiro256(7)
	b := NewXoshiro256(7)
	b.Jump()
	if a.Uint64() == b.Uint64() {
		t.Fatal("jump did not move the stream")
	}
}

func TestBatchXoshiroDeterministicSetState(t *testing.T) {
	b := NewBatchXoshiro(123)
	out1 := make([]uint64, 37)
	out2 := make([]uint64, 37)
	b.SetState(5, 9)
	b.Uint64s(out1)
	// Interleave other work, then return to the same checkpoint.
	b.SetState(1, 1)
	b.Uint64s(make([]uint64, 100))
	b.SetState(5, 9)
	b.Uint64s(out2)
	for i := range out1 {
		if out1[i] != out2[i] {
			t.Fatalf("checkpoint replay differs at %d", i)
		}
	}
}

func TestBatchXoshiroDistinctCheckpoints(t *testing.T) {
	b := NewBatchXoshiro(1)
	x := make([]uint64, 8)
	y := make([]uint64, 8)
	b.SetState(0, 0)
	b.Uint64s(x)
	b.SetState(0, 1)
	b.Uint64s(y)
	same := 0
	for i := range x {
		if x[i] == y[i] {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("checkpoints (0,0) and (0,1) share %d/8 outputs", same)
	}
}

func TestBatchXoshiroSeedSeparation(t *testing.T) {
	a := NewBatchXoshiro(1)
	b := NewBatchXoshiro(2)
	a.SetState(3, 4)
	b.SetState(3, 4)
	x, y := make([]uint64, 8), make([]uint64, 8)
	a.Uint64s(x)
	b.Uint64s(y)
	same := 0
	for i := range x {
		if x[i] == y[i] {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("different seeds share %d/8 outputs at same checkpoint", same)
	}
}

func TestBatchXoshiroTailHandling(t *testing.T) {
	// Lengths not divisible by the lane count must still be filled and be
	// a prefix-consistent stream.
	b := NewBatchXoshiro(9)
	b.SetState(1, 1)
	long := make([]uint64, 11)
	b.Uint64s(long)
	b.SetState(1, 1)
	short := make([]uint64, 7)
	b.Uint64s(short)
	for i := range short {
		if short[i] != long[i] {
			t.Fatalf("prefix mismatch at %d: fills of different length disagree", i)
		}
	}
}

// laneModel is an independent model of BatchXoshiro's stream: checkpoint
// (r, j) seeds four scalar xoshiro256++ lanes eagerly, lane k from the
// splitmix64 outputs 4k+1..4k+4 of the checkpoint value, and every draw
// takes word i from lane i mod 4, starting again at lane 0.
type laneModel struct {
	seed  uint64
	lanes [Lanes]Xoshiro256
}

func (m *laneModel) setState(r, j uint64) {
	sm := mix64(m.seed^mix64(r*0x9E3779B97F4A7C15+1)) ^ mix64(j*0xBF58476D1CE4E5B9+2)
	for k := range m.lanes {
		x := &m.lanes[k]
		x.s0, x.s1, x.s2, x.s3 = SplitMix64(&sm), SplitMix64(&sm), SplitMix64(&sm), SplitMix64(&sm)
		if x.s0|x.s1|x.s2|x.s3 == 0 {
			x.s0 = 0x9E3779B97F4A7C15
		}
	}
}

func (m *laneModel) draw(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = m.lanes[i%Lanes].Uint64()
	}
	return out
}

// TestBatchXoshiroLazyCheckpoint interleaves SetState over several rows
// (so the cached row half is hit and missed) with partial draws of 1, 3
// and 5 words, which leave some lanes part-advanced. Every
// draw must match the eagerly seeded lane model, and a full draw after
// each checkpoint must equal a fresh source's.
func TestBatchXoshiroLazyCheckpoint(t *testing.T) {
	t.Logf("AVX-512 backend: %v", AVX512())
	const seed = 77
	b := NewBatchXoshiro(seed)
	m := laneModel{seed: seed}
	rows := []uint64{0, 0, 3, 3, 9, sjltBase, 3}
	r := rand.New(rand.NewSource(4))
	for step := 0; step < 300; step++ {
		row, col := rows[r.Intn(len(rows))], uint64(r.Intn(40))
		b.SetState(row, col)
		m.setState(row, col)
		for _, n := range []int{1, 3, 5}[:r.Intn(4)] {
			got := make([]uint64, n)
			b.Uint64s(got)
			for i, w := range m.draw(n) {
				if got[i] != w {
					t.Fatalf("step %d (%d, %d): partial draw of %d, word %d = %#x, model %#x", step, row, col, n, i, got[i], w)
				}
			}
		}
		row, col = rows[r.Intn(len(rows))], uint64(r.Intn(40))
		b.SetState(row, col)
		fresh := NewBatchXoshiro(seed)
		fresh.SetState(row, col)
		n := 1 + r.Intn(70)
		if r.Intn(2) == 0 {
			got, want := make([]float64, n), make([]float64, n)
			b.FillUniform11(got)
			fresh.FillUniform11(want)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("step %d (%d, %d): uniform fill of %d, [%d] = %g, fresh source %g", step, row, col, n, i, got[i], want[i])
				}
			}
			continue
		}
		got, want := make([]uint64, n), make([]uint64, n)
		b.Uint64s(got)
		fresh.Uint64s(want)
		m.setState(row, col)
		for i, w := range m.draw(n) {
			if got[i] != want[i] || got[i] != w {
				t.Fatalf("step %d (%d, %d): full draw of %d, word %d = %#x, fresh source %#x, model %#x", step, row, col, n, i, got[i], want[i], w)
			}
		}
	}
}

func TestScalarXoshiroSourceCheckpoint(t *testing.T) {
	s := NewScalarXoshiroSource(5)
	a, b := make([]uint64, 16), make([]uint64, 16)
	s.SetState(2, 3)
	s.Uint64s(a)
	s.SetState(2, 3)
	s.Uint64s(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("scalar source checkpoint not reproducible")
		}
	}
}

func TestPhiloxReproducible(t *testing.T) {
	p := NewPhilox4x32(77)
	a, b := make([]uint64, 9), make([]uint64, 9)
	p.SetState(10, 20)
	p.Uint64s(a)
	p.SetState(10, 20)
	p.Uint64s(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("philox not reproducible")
		}
	}
}

// The defining CBRNG property (§IV-B/IV-C): output at absolute coordinate
// (r+t, j) is independent of how the range is split into blocks.
func TestPhiloxBlockingIndependence(t *testing.T) {
	p := NewPhilox4x32(42)
	whole := make([]uint64, 64)
	p.SetState(0, 5)
	p.Uint64s(whole)

	// Re-generate in blocks of 16 starting at r = 0, 16, 32, 48.
	for blk := 0; blk < 4; blk++ {
		part := make([]uint64, 16)
		p.SetState(uint64(blk*16), 5)
		p.Uint64s(part)
		for i := range part {
			if part[i] != whole[blk*16+i] {
				t.Fatalf("blocked output differs at block %d offset %d", blk, i)
			}
		}
	}
	// And in two consecutive fills without re-anchoring.
	p.SetState(0, 5)
	h1 := make([]uint64, 30)
	h2 := make([]uint64, 34)
	p.Uint64s(h1)
	p.Uint64s(h2)
	for i := range h1 {
		if h1[i] != whole[i] {
			t.Fatalf("split fill differs at %d", i)
		}
	}
	for i := range h2 {
		if h2[i] != whole[30+i] {
			t.Fatalf("split fill tail differs at %d", i)
		}
	}
}

func TestPhiloxDistinctColumns(t *testing.T) {
	p := NewPhilox4x32(3)
	a, b := make([]uint64, 8), make([]uint64, 8)
	p.SetState(0, 1)
	p.Uint64s(a)
	p.SetState(0, 2)
	p.Uint64s(b)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("philox columns 1 and 2 share %d/8 outputs", same)
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference outputs for seed 0 from the public-domain splitmix64.c.
	s := uint64(0)
	want := []uint64{0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F}
	for i, w := range want {
		if got := SplitMix64(&s); got != w {
			t.Fatalf("splitmix64 output %d = %#x, want %#x", i, got, w)
		}
	}
}

func uniformMoments(t *testing.T, fill func([]float64), n int) (mean, variance float64) {
	t.Helper()
	buf := make([]float64, n)
	fill(buf)
	var s, s2 float64
	for _, v := range buf {
		s += v
		s2 += v * v
	}
	mean = s / float64(n)
	variance = s2/float64(n) - mean*mean
	return
}

func TestUniform11Moments(t *testing.T) {
	s := NewSampler(NewBatchXoshiro(1), Uniform11)
	s.SetState(0, 0)
	mean, varc := uniformMoments(t, s.Fill, 200000)
	if math.Abs(mean) > 0.01 {
		t.Fatalf("uniform mean %g", mean)
	}
	if math.Abs(varc-1.0/3.0) > 0.01 {
		t.Fatalf("uniform variance %g, want 1/3", varc)
	}
}

func TestUniform11Range(t *testing.T) {
	s := NewSampler(NewBatchXoshiro(2), Uniform11)
	s.SetState(1, 1)
	buf := make([]float64, 50000)
	s.Fill(buf)
	for _, v := range buf {
		if v <= -1 || v >= 1 {
			t.Fatalf("uniform sample %g outside (-1,1)", v)
		}
	}
}

func TestRademacherValues(t *testing.T) {
	s := NewSampler(NewBatchXoshiro(3), Rademacher)
	s.SetState(0, 0)
	buf := make([]float64, 100000)
	s.Fill(buf)
	plus, minus := 0, 0
	for _, v := range buf {
		switch v {
		case 1:
			plus++
		case -1:
			minus++
		default:
			t.Fatalf("rademacher sample %g", v)
		}
	}
	bias := math.Abs(float64(plus-minus)) / float64(plus+minus)
	if bias > 0.02 {
		t.Fatalf("rademacher bias %g", bias)
	}
}

func TestRademacherOddLengths(t *testing.T) {
	s := NewSampler(NewBatchXoshiro(4), Rademacher)
	for _, n := range []int{1, 3, 63, 64, 65, 127, 130} {
		s.SetState(0, uint64(n))
		buf := make([]float64, n)
		s.Fill(buf)
		for i, v := range buf {
			if v != 1 && v != -1 {
				t.Fatalf("n=%d: sample %d = %g", n, i, v)
			}
		}
	}
}

func TestGaussianMoments(t *testing.T) {
	s := NewSampler(NewBatchXoshiro(5), Gaussian)
	s.SetState(0, 0)
	mean, varc := uniformMoments(t, s.Fill, 200000)
	if math.Abs(mean) > 0.02 {
		t.Fatalf("gaussian mean %g", mean)
	}
	if math.Abs(varc-1) > 0.03 {
		t.Fatalf("gaussian variance %g, want 1", varc)
	}
}

func TestScaledIntIsInt32Valued(t *testing.T) {
	s := NewSampler(NewBatchXoshiro(6), ScaledInt)
	s.SetState(0, 0)
	buf := make([]float64, 10000)
	s.Fill(buf)
	for _, v := range buf {
		if v != math.Trunc(v) {
			t.Fatalf("scaled-int sample %g is not integer", v)
		}
		if v < math.MinInt32 || v > math.MaxInt32 {
			t.Fatalf("scaled-int sample %g out of int32 range", v)
		}
	}
	// After applying Scale31 the values must land in [-1, 1).
	for _, v := range buf {
		w := v * Scale31
		if w < -1 || w >= 1 {
			t.Fatalf("scaled sample %g outside [-1,1)", w)
		}
	}
}

func TestJunkDeterministicAndBounded(t *testing.T) {
	s := NewSampler(NewBatchXoshiro(7), Junk)
	s.SetState(3, 4)
	a := make([]float64, 1000)
	s.Fill(a)
	s.SetState(3, 4)
	b := make([]float64, 1000)
	s.Fill(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("junk fill not deterministic")
		}
		if a[i] < -1.1 || a[i] > 1.1 {
			t.Fatalf("junk value %g out of range", a[i])
		}
	}
}

func TestSamplerFillReproducibleProperty(t *testing.T) {
	f := func(seed uint64, r, j uint64, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		for _, dist := range []Distribution{Uniform11, Rademacher, Gaussian, ScaledInt} {
			s1 := NewSampler(NewBatchXoshiro(seed), dist)
			s2 := NewSampler(NewBatchXoshiro(seed), dist)
			a, b := make([]float64, n), make([]float64, n)
			s1.SetState(r, j)
			s1.Fill(a)
			s2.SetState(1, 2)
			s2.Fill(make([]float64, 13)) // desynchronise
			s2.SetState(r, j)
			s2.Fill(b)
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestParseDistribution(t *testing.T) {
	cases := map[string]Distribution{
		"uniform": Uniform11, "pm1": Rademacher, "gaussian": Gaussian,
		"scaled-int": ScaledInt, "junk": Junk,
	}
	for s, want := range cases {
		got, err := ParseDistribution(s)
		if err != nil || got != want {
			t.Errorf("ParseDistribution(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseDistribution("bogus"); err == nil {
		t.Error("expected error for unknown distribution")
	}
}

func TestDistributionStrings(t *testing.T) {
	for _, d := range []Distribution{Uniform11, Rademacher, Gaussian, ScaledInt, Junk} {
		if d.String() == "" {
			t.Errorf("empty String for %d", int(d))
		}
	}
	for _, k := range []SourceKind{SourceBatchXoshiro, SourceScalarXoshiro, SourcePhilox} {
		if k.String() == "" {
			t.Errorf("empty String for source %d", int(k))
		}
	}
}

func TestNewSourceKinds(t *testing.T) {
	for _, k := range []SourceKind{SourceBatchXoshiro, SourceScalarXoshiro, SourcePhilox} {
		src := NewSource(k, 1)
		src.SetState(0, 0)
		buf := make([]uint64, 4)
		src.Uint64s(buf)
		if buf[0] == 0 && buf[1] == 0 && buf[2] == 0 && buf[3] == 0 {
			t.Errorf("source %v produced all zeros", k)
		}
	}
}

// Chi-square uniformity check on the batched generator's low byte.
func TestBatchXoshiroUniformityChiSquare(t *testing.T) {
	b := NewBatchXoshiro(99)
	b.SetState(0, 0)
	buf := make([]uint64, 1<<16)
	b.Uint64s(buf)
	var counts [256]int
	for _, u := range buf {
		counts[u&0xff]++
	}
	expected := float64(len(buf)) / 256
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 255 dof: mean 255, sd ~22.6; 5 sigma ≈ 368.
	if chi2 > 368 {
		t.Fatalf("chi2 = %g, suggests non-uniform output", chi2)
	}
}

// The fused fill paths must be indistinguishable from the generic
// raw-word + transform path on an identically positioned source.
func TestFusedFillsMatchGenericTransforms(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 64, 100, 1001} {
		// Uniform11.
		fused := NewBatchXoshiro(31)
		fused.SetState(2, 5)
		got := make([]float64, n)
		fused.FillUniform11(got)

		twin := NewBatchXoshiro(31)
		twin.SetState(2, 5)
		raw := make([]uint64, n)
		twin.Uint64s(raw)
		for i, u := range raw {
			want := float64(int64(u)>>10) * 0x1p-53
			if got[i] != want {
				t.Fatalf("n=%d: fused uniform[%d] = %g, generic %g", n, i, got[i], want)
			}
		}

		// ScaledInt (two samples per word).
		fused.SetState(2, 5)
		gotS := make([]float64, n)
		fused.FillScaledInt(gotS)
		twin.SetState(2, 5)
		rawS := make([]uint64, (n+1)/2)
		twin.Uint64s(rawS)
		for i := 0; i < n; i++ {
			u := rawS[i/2]
			if i%2 == 1 {
				u >>= 32
			}
			want := float64(int32(uint32(u)))
			if gotS[i] != want {
				t.Fatalf("n=%d: fused scaled[%d] = %g, generic %g", n, i, gotS[i], want)
			}
		}
	}
}

// Philox + Rademacher stays blocking-independent at 64-row granularity:
// splitting a fill at a multiple of 64 must reproduce the whole fill.
func TestPhiloxRademacher64Granularity(t *testing.T) {
	s := NewSampler(NewPhilox4x32(9), Rademacher)
	whole := make([]float64, 192)
	s.SetState(0, 3)
	s.Fill(whole)
	for _, split := range []int{64, 128} {
		s2 := NewSampler(NewPhilox4x32(9), Rademacher)
		head := make([]float64, split)
		tail := make([]float64, 192-split)
		s2.SetState(0, 3)
		s2.Fill(head)
		s2.SetState(uint64(split/64), 3) // word-granular checkpoint
		_ = tail
		// NOTE: the word counter advances by one per 64 samples, so the
		// checkpoint for row `split` is (split/64, j) in word units.
		s2.Fill(tail)
		for i := range head {
			if head[i] != whole[i] {
				t.Fatalf("split %d: head diverges at %d", split, i)
			}
		}
		for i := range tail {
			if tail[i] != whole[split+i] {
				t.Fatalf("split %d: tail diverges at %d", split, i)
			}
		}
	}
}

// TestFillSJLTColumnMatchesDefinition checks FillSJLTColumn against its
// documented construction computed from the raw words, with a modulus and
// a multiply: for equal power-of-two blocks (the masked fast path, d = 64
// and s = 8 among them) and for uneven or odd blocks.
func TestFillSJLTColumnMatchesDefinition(t *testing.T) {
	for _, c := range [][2]int{{64, 8}, {16, 4}, {8, 8}, {32, 1}, {64, 64}, {26, 4}, {30, 6}, {19, 1}, {24, 5}} {
		d, s := c[0], c[1]
		scale := SJLTScale(s)
		for _, src := range []SourceKind{SourceBatchXoshiro, SourcePhilox} {
			sp := NewSampler(NewSource(src, 3), SJLT)
			raw := NewSource(src, 3)
			pos, val := make([]int, s), make([]float64, s)
			w := make([]uint64, s)
			for j := uint64(0); j < 50; j++ {
				sp.FillSJLTColumn(j, d, s, scale, pos, val)
				raw.SetState(sjltBase, j)
				raw.Uint64s(w)
				start := 0
				for b, u := range w {
					size := d / s
					if b < d%s {
						size++
					}
					wantPos := start + int(u%uint64(size))
					wantVal := scale * (1 - 2*float64(u>>63))
					if pos[b] != wantPos || math.Float64bits(val[b]) != math.Float64bits(wantVal) {
						t.Fatalf("%v d=%d s=%d col %d nonzero %d: (%d, %g), want (%d, %g)", src, d, s, j, b, pos[b], val[b], wantPos, wantVal)
					}
					start += size
				}
			}
		}
	}
}
