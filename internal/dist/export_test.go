package dist

// meaner is a distribution that reports its expected value, the value the
// sampling tests check the empirical mean against.
type meaner interface {
	Distribution
	Mean() float64
}

func (d Exp) Mean() float64 { return 1 / d.Lambda }

func (d Det) Mean() float64 { return d.Value }

// Mean ignores the truncation at zero: for sigma << mu its bias is
// negligible, as in the paper's channel model.
func (d Normal) Mean() float64 { return d.Mu }

func (d Erlang) Mean() float64 { return float64(d.K) / d.Lambda }
