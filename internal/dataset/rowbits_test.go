package dataset

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// rowDigest hashes the bits of every row of ds.
func rowDigest(ds Dataset) uint64 {
	h := fnv.New64a()
	row := make([]float64, ds.Dim())
	var b [8]byte
	for i := range ds.NumUsers() {
		ds.Row(i, row)
		for _, v := range row {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestRowsPinnedBits pins every synthetic dataset's rows bit for bit.
// Row i draws from the seed's i-th child stream; the digests are those of
// rows drawn through NewRNG(seed).Child(i), which is the same stream.
func TestRowsPinnedBits(t *testing.T) {
	for _, tc := range []struct {
		ds   Dataset
		want uint64
	}{
		{NewUniform(500, 16, 7), 0xeddbbddb7e3e62fb},
		{NewGaussian(500, 16, 7), 0x881f848195ab4c41},
		{NewPoisson(500, 16, 7), 0xe978046c05ed4df3},
		{NewCaseStudyDiscrete(500, 16, 7), 0x98e3f365250fcac9},
		{NewCOV19Like(500, 16, 7), 0x83dc35969c2e4cf0},
	} {
		if got := rowDigest(tc.ds); got != tc.want {
			t.Errorf("%s: row digest %#x; want %#x", tc.ds.Name(), got, tc.want)
		}
	}
}

// TestRowAllocs guards the per-row cost: one RNG (three allocations),
// plus COV19Like's latent-factor vector.
func TestRowAllocs(t *testing.T) {
	for _, tc := range []struct {
		ds   Dataset
		want float64
	}{
		{NewUniform(10, 16, 7), 3},
		{NewGaussian(10, 16, 7), 3},
		{NewPoisson(10, 16, 7), 3},
		{NewCaseStudyDiscrete(10, 16, 7), 3},
		{NewCOV19Like(10, 16, 7), 4},
	} {
		row := make([]float64, tc.ds.Dim())
		i := 0
		got := testing.AllocsPerRun(100, func() {
			tc.ds.Row(i%10, row)
			i++
		})
		if got > tc.want {
			t.Errorf("%s: %.1f allocations per Row; want at most %.0f", tc.ds.Name(), got, tc.want)
		}
	}
}
