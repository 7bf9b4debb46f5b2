// Package dist provides the probability distributions the general models
// draw activity durations from: exponential (the Markovian baseline),
// deterministic, normal truncated at zero (the paper's Gaussian
// radio-channel model), and Erlang.
package dist

import (
	"fmt"

	"repro/internal/rng"
)

// Distribution is a non-negative duration distribution.
type Distribution interface {
	// Sample draws one duration.
	Sample(r *rng.Rand) float64
	// String renders the distribution and its parameters.
	String() string
}

// Exp is an exponential distribution with rate Lambda.
type Exp struct {
	// Lambda is the rate (1/mean); must be positive.
	Lambda float64
}

var _ Distribution = Exp{}

// NewExp builds an exponential distribution from its rate.
func NewExp(lambda float64) Exp { return Exp{Lambda: lambda} }

// Sample implements Distribution.
func (d Exp) Sample(r *rng.Rand) float64 { return r.ExpFloat64(d.Lambda) }

// String implements Distribution.
func (d Exp) String() string { return fmt.Sprintf("exp(rate=%g)", d.Lambda) }

// Det is a deterministic (constant) duration.
type Det struct {
	// Value is the constant duration; must be non-negative.
	Value float64
}

var _ Distribution = Det{}

// NewDet builds a deterministic duration.
func NewDet(v float64) Det { return Det{Value: v} }

// Sample implements Distribution.
func (d Det) Sample(*rng.Rand) float64 { return d.Value }

// String implements Distribution.
func (d Det) String() string { return fmt.Sprintf("det(%g)", d.Value) }

// Normal is a normal distribution truncated at zero (negative samples are
// redrawn), matching the Gaussian channel model of the paper with small
// sigma relative to mu.
type Normal struct {
	// Mu and Sigma are the untruncated mean and standard deviation.
	Mu, Sigma float64
}

var _ Distribution = Normal{}

// NewNormal builds a zero-truncated normal distribution.
func NewNormal(mu, sigma float64) Normal { return Normal{Mu: mu, Sigma: sigma} }

// Sample implements Distribution.
func (d Normal) Sample(r *rng.Rand) float64 {
	for i := 0; i < 64; i++ {
		v := d.Mu + d.Sigma*r.NormFloat64()
		if v >= 0 {
			return v
		}
	}
	return 0 // pathological sigma >> mu; clamp
}

// String implements Distribution.
func (d Normal) String() string { return fmt.Sprintf("normal(%g, %g)", d.Mu, d.Sigma) }

// Erlang is the sum of K independent exponential phases of rate Lambda.
type Erlang struct {
	// K is the number of phases; must be at least 1.
	K int
	// Lambda is the per-phase rate.
	Lambda float64
}

var _ Distribution = Erlang{}

// NewErlang builds an Erlang distribution.
func NewErlang(k int, lambda float64) Erlang { return Erlang{K: k, Lambda: lambda} }

// Sample implements Distribution.
func (d Erlang) Sample(r *rng.Rand) float64 {
	sum := 0.0
	for i := 0; i < d.K; i++ {
		sum += r.ExpFloat64(d.Lambda)
	}
	return sum
}

// String implements Distribution.
func (d Erlang) String() string { return fmt.Sprintf("erlang(%d, rate=%g)", d.K, d.Lambda) }
