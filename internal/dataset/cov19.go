package dataset

import (
	"fmt"
	"math"

	"github.com/hdr4me/hdr4me/internal/mathx"
)

// COV19Like is the stand-in for the paper's COV-19 dataset (150,000 users ×
// 750 dimensions "where each dimension has high correlations with others").
// The original is a proprietary Kaggle-derived table we cannot redistribute,
// so we synthesize one with the same load-bearing properties:
//
//   - shape 150,000 × 750 (tunable),
//   - every attribute normalized into [−1, 1],
//   - strong cross-dimension correlation, via a low-rank latent-factor
//     model: user i draws z ∈ R^K of i.i.d. standard Gaussians; dimension j
//     observes tanh(⟨wⱼ, z⟩ + bⱼ + ηᵢⱼ) where the loadings wⱼ and offsets bⱼ
//     are fixed per dataset seed and ηᵢⱼ is small independent noise,
//   - non-sparse, non-zero per-dimension means (from the offsets bⱼ), which
//     is what makes HDR4ME's thresholds bite in Figs. 4(j–l)/5.
//
// tanh keeps the values strictly inside (−1, 1) while preserving the
// correlation structure of the latent factors.
type COV19Like struct {
	N, D     int
	K        int     // latent rank (default 8)
	NoiseSD  float64 // per-entry independent noise (default 0.2)
	Seed     uint64
	loadings [][]float64 // D × K
	offsets  []float64   // D
}

// NewCOV19Like returns the default paper-shaped stand-in: 150,000 × 750,
// rank 8, noise 0.2.
func NewCOV19Like(n, d int, seed uint64) *COV19Like {
	c := &COV19Like{N: n, D: d, K: 8, NoiseSD: 0.2, Seed: seed}
	c.init()
	return c
}

func (c *COV19Like) init() {
	r := mathx.NewRNG(c.Seed ^ 0xc0419 ^ 0x1234abcd)
	c.loadings = make([][]float64, c.D)
	c.offsets = make([]float64, c.D)
	for j := 0; j < c.D; j++ {
		w := make([]float64, c.K)
		for k := range w {
			w[k] = r.Normal(0, 1/math.Sqrt(float64(c.K)))
		}
		c.loadings[j] = w
		c.offsets[j] = r.Uniform(-0.6, 0.6)
	}
}

// Name implements Dataset.
func (c *COV19Like) Name() string { return fmt.Sprintf("COV19Like(n=%d,d=%d)", c.N, c.D) }

// NumUsers implements Dataset.
func (c *COV19Like) NumUsers() int { return c.N }

// Dim implements Dataset.
func (c *COV19Like) Dim() int { return c.D }

// Row implements Dataset.
func (c *COV19Like) Row(i int, dst []float64) {
	r := mathx.NewRNG(mathx.ChildSeed(c.Seed, uint64(i)))
	z := make([]float64, c.K)
	for k := range z {
		z[k] = r.Normal(0, 1)
	}
	for j := 0; j < c.D; j++ {
		dst[j] = math.Tanh(mathx.Dot(c.loadings[j], z) + c.offsets[j] + r.Normal(0, c.NoiseSD))
	}
}
