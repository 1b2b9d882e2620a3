package workload

import (
	"math"
	"testing"
)

func TestCalibrateRecoversPaperShares(t *testing.T) {
	// The paper's two data points — top 10k of (assumed) 200k forms
	// hold 50%, top 100k hold 85% — are jointly consistent with a
	// single Zipf exponent. Calibrate on the first and check the
	// second falls out.
	const nForms = 200000
	s := CalibrateExponent(nForms, 10000, PaperShares.Top10kOf200k)
	shares := SharesAt(FormImpact(s, nForms), []int{10000, 100000})
	if math.Abs(shares[0]-0.50) > 0.01 {
		t.Errorf("calibrated top-10k share = %.3f, want 0.50", shares[0])
	}
	if math.Abs(shares[1]-PaperShares.Top100kOf200k) > 0.05 {
		t.Errorf("top-100k share = %.3f, want ≈ 0.85 (paper)", shares[1])
	}
	if s < 0.3 || s > 1.5 {
		t.Errorf("calibrated exponent %v implausible", s)
	}
}

func TestSampleImpactsMatchesAnalytic(t *testing.T) {
	const nForms = 2000
	s := 0.9
	counts := SampleImpacts(3, s, nForms, 400000)
	sampled := SharesAt(counts, []int{100})
	analytic := SharesAt(FormImpact(s, nForms), []int{100})
	if math.Abs(sampled[0]-analytic[0]) > 0.05 {
		t.Errorf("sampled top-100 share %.3f vs analytic %.3f", sampled[0], analytic[0])
	}
}

func TestGiniCoefficient(t *testing.T) {
	if g := GiniCoefficient([]float64{1, 1, 1, 1}); math.Abs(g) > 1e-9 {
		t.Errorf("uniform gini = %v, want 0", g)
	}
	g := GiniCoefficient([]float64{0, 0, 0, 100})
	if g < 0.7 {
		t.Errorf("concentrated gini = %v, want high", g)
	}
	if GiniCoefficient(nil) != 0 || GiniCoefficient([]float64{0, 0}) != 0 {
		t.Error("degenerate gini should be 0")
	}
	// Zipf traffic is in between.
	z := GiniCoefficient(FormImpact(0.9, 1000))
	if z < 0.3 || z > 0.95 {
		t.Errorf("zipf gini = %v", z)
	}
}
