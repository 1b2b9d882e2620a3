// Package workload models search-engine query traffic for the long-tail
// experiment (E1). The paper's measurement — "pages surfaced … from the
// top 10,000 forms accounted for only 50% of deep-web results, while
// even the top 100,000 forms only accounted for 85%" — is a statement
// about the cumulative impact distribution of forms under power-law
// query traffic. This package regenerates that distribution two ways:
// analytically at paper scale, and measured end-to-end at laptop scale
// by attributing index hits back to the forms that surfaced them.
package workload

import (
	"sort"

	"deepweb/internal/dist"
)

// FormImpact is the analytic model: nForms forms whose per-form impact
// (number of queries they answer) follows Zipf with exponent s. It
// returns the impact weights by rank.
func FormImpact(s float64, nForms int) []float64 {
	return dist.ZipfWeights(s, nForms)
}

// SharesAt returns the cumulative impact share of the top-k forms for
// each k, under the analytic model.
func SharesAt(weights []float64, tops []int) []float64 {
	return dist.CumulativeShare(weights, tops)
}

// CalibrateExponent finds the Zipf exponent s for which the top-k1
// forms of nForms hold approximately the target share, by bisection on
// the analytic CDF. It is how the experiment recovers the paper's
// implied traffic skew from its two published points.
func CalibrateExponent(nForms, k1 int, share1 float64) float64 {
	lo, hi := 0.01, 2.5
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		s := SharesAt(FormImpact(mid, nForms), []int{k1})[0]
		if s < share1 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// SampleImpacts draws perQuery form assignments from the Zipf model and
// returns observed per-form impact counts — the sampled (rather than
// analytic) arm, which adds realistic noise.
func SampleImpacts(seed int64, s float64, nForms, queries int) []float64 {
	z := dist.NewZipf(seed, s, uint64(nForms))
	counts := make([]float64, nForms)
	for i := 0; i < queries; i++ {
		counts[z.Next()]++
	}
	return counts
}

// GiniCoefficient summarizes impact concentration in [0,1]; the paper's
// long-tail claim corresponds to high but not extreme concentration.
func GiniCoefficient(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	var cum, sum float64
	for _, v := range sorted {
		sum += v
	}
	if sum == 0 {
		return 0
	}
	var lorenz float64
	for _, v := range sorted {
		cum += v
		lorenz += cum
	}
	// G = 1 - 2 * (area under Lorenz curve)
	return 1 - (2*lorenz-sum)/(float64(n)*sum)
}

// PaperShares are the two published data points of §3.2.
var PaperShares = struct {
	Top10kOf200k  float64
	Top100kOf200k float64
}{0.50, 0.85}
