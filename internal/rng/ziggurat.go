package rng

import "math"

// Ziggurat sampler for N(0,1) following Marsaglia & Tsang (JSS 2000),
// 128 layers. Faster than the polar method (~1.03 accepts per sample on
// the fast path, no log/sqrt), though still several times the cost of a
// uniform sample — the Figure 4 ordering (gaussian slowest of the
// on-the-fly methods) is preserved.

const (
	zigR    = 3.442619855899      // start of the tail
	zigInvR = 1.0 / zigR          //
	zigV    = 9.91256303526217e-3 // area of each layer
	zigM    = 2147483648.0        // 2^31: hz is a signed 32-bit lattice
)

var (
	zigKN [128]float64 // |hz| acceptance thresholds
	zigWN [128]float64 // hz → x scale per layer
	zigFN [128]float64 // layer ordinates f(x_i)
)

func init() {
	dn := zigR
	tn := dn
	q := zigV / math.Exp(-0.5*dn*dn)
	zigKN[0] = (dn / q) * zigM
	zigKN[1] = 0
	zigWN[0] = q / zigM
	zigWN[127] = dn / zigM
	zigFN[0] = 1.0
	zigFN[127] = math.Exp(-0.5 * dn * dn)
	for i := 126; i >= 1; i-- {
		dn = math.Sqrt(-2 * math.Log(zigV/dn+math.Exp(-0.5*dn*dn)))
		zigKN[i+1] = (dn / tn) * zigM
		tn = dn
		zigFN[i] = math.Exp(-0.5 * dn * dn)
		zigWN[i] = dn / zigM
	}
}

// zigWords adapts a Source into the two word streams the ziggurat needs:
// signed 32-bit lattice points and (0,1) uniforms, both carved from raw
// 64-bit outputs with buffering so the Source is consumed in bulk.
type zigWords struct {
	src Source
	buf [64]uint64
	pos int
}

func (z *zigWords) reset() { z.pos = len(z.buf) }

func (z *zigWords) next64() uint64 {
	if z.pos >= len(z.buf) {
		z.src.Uint64s(z.buf[:])
		z.pos = 0
	}
	v := z.buf[z.pos]
	z.pos++
	return v
}

// int32 returns a signed 32-bit lattice point.
func (z *zigWords) int32() int32 { return int32(uint32(z.next64())) }

// uni returns a uniform in (0, 1).
func (z *zigWords) uni() float64 {
	return (float64(z.next64()>>11) + 0.5) * 0x1p-53
}

// normal draws one N(0,1) sample.
func (z *zigWords) normal() float64 {
	for {
		hz := z.int32()
		iz := uint32(hz) & 127
		fhz := float64(hz)
		if math.Abs(fhz) < zigKN[iz] {
			return fhz * zigWN[iz]
		}
		// Slow path.
		if iz == 0 {
			// Tail beyond ±r: Marsaglia's exponential wedge.
			for {
				x := float64(-math.Log(z.uni()) * zigInvR)
				y := -math.Log(z.uni())
				if y+y >= float64(x*x) {
					if hz > 0 {
						return zigR + x
					}
					return -zigR - x
				}
			}
		}
		x := float64(hz) * zigWN[iz]
		if zigFN[iz]+float64(z.uni()*(zigFN[iz-1]-zigFN[iz])) < math.Exp(-0.5*x*x) {
			return x
		}
		// Rejected: re-draw from the top.
	}
}
