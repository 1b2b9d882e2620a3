package coverage

import (
	"math"
	"testing"
	"testing/quick"

	"deepweb/internal/webgen"
)

func TestExactOf(t *testing.T) {
	site, err := webgen.BuildSite("usedcars", 0, 42, 100)
	if err != nil {
		t.Fatal(err)
	}
	mk := site.Table.DistinctStrings("make")
	urls := []string{
		"http://" + site.Spec.Host + "/results?make=" + mk[0],
		"http://" + site.Spec.Host + "/results?make=" + mk[1],
	}
	ex := ExactOf(site, urls)
	want := 0
	for _, m := range mk[:2] {
		want += len(site.MatchingRows(map[string][]string{"make": {m}}))
	}
	if ex.Covered != want || ex.Total != 100 {
		t.Errorf("Exact = %+v, want covered %d of 100", ex, want)
	}
	if ex.Fraction() != float64(want)/100 {
		t.Errorf("Fraction = %v", ex.Fraction())
	}
	// Two different makes retrieve two distinct ground-truth result
	// sets; listing a URL twice must not add a third.
	if got := DistinctResultSets(site, urls); got != 2 {
		t.Errorf("DistinctResultSets = %d, want 2", got)
	}
	dup := append(append([]string(nil), urls...), urls[0])
	if got := DistinctResultSets(site, dup); got != 2 {
		t.Errorf("DistinctResultSets with duplicate URL = %d, want 2", got)
	}
}

func TestExactOfBadURL(t *testing.T) {
	site, _ := webgen.BuildSite("stores", 0, 1, 10)
	ex := ExactOf(site, []string{"://not a url"})
	if ex.Covered != 0 {
		t.Errorf("bad URL covered %d rows", ex.Covered)
	}
}

func TestExactFractionEmptySite(t *testing.T) {
	e := Exact{Covered: 0, Total: 0}
	if e.Fraction() != 0 {
		t.Error("empty site fraction should be 0")
	}
}

func TestChapman(t *testing.T) {
	// Textbook example: capture 100, recapture 60, overlap 20 → N≈300.
	ch := Chapman(100, 60, 20)
	if ch < 280 || ch > 300 {
		t.Errorf("Chapman = %v", ch)
	}
	if math.IsNaN(Chapman(10, 10, 0)) {
		t.Error("Chapman must be defined at zero overlap")
	}
}

func TestEstimateFromRowSetsRecoversTruth(t *testing.T) {
	// 500-row population; 60 random-ish URL result sets of ~30 rows
	// each. True coverage is known; the estimate should be in the
	// neighborhood and the lower bound must not exceed the point.
	const population = 500
	rowSets := make([][]int, 60)
	covered := map[int]bool{}
	for i := range rowSets {
		for j := 0; j < 30; j++ {
			id := (i*37 + j*13) % population
			rowSets[i] = append(rowSets[i], id)
			covered[id] = true
		}
	}
	trueFrac := float64(len(covered)) / population
	est := EstimateFromRowSets(rowSets, 0.95, 200, 7)
	if est.Point <= 0 || est.Point > 1 {
		t.Fatalf("point estimate %v out of range", est.Point)
	}
	if est.LowerBound > est.Point+1e-9 {
		t.Errorf("lower bound %v above point %v", est.LowerBound, est.Point)
	}
	if math.Abs(est.Point-trueFrac) > 0.35 {
		t.Errorf("point %v too far from truth %v", est.Point, trueFrac)
	}
	if est.Confidence != 0.95 {
		t.Errorf("confidence = %v", est.Confidence)
	}
}

func TestEstimateDegenerate(t *testing.T) {
	if est := EstimateFromRowSets(nil, 0.9, 50, 1); est.Point != 0 {
		t.Errorf("empty input estimate = %+v", est)
	}
	if est := EstimateFromRowSets([][]int{{1, 2}}, 0.9, 50, 1); est.Point != 0 {
		t.Errorf("single-set estimate = %+v", est)
	}
}

func TestEstimateDeterministic(t *testing.T) {
	rowSets := [][]int{{1, 2, 3}, {2, 3, 4}, {4, 5, 6}, {1, 6, 7}}
	a := EstimateFromRowSets(rowSets, 0.9, 100, 42)
	b := EstimateFromRowSets(rowSets, 0.9, 100, 42)
	if a != b {
		t.Errorf("same-seed estimates differ: %+v vs %+v", a, b)
	}
}

// Property: Chapman is monotone decreasing in overlap — more overlap
// between captures means a smaller estimated population.
func TestChapmanPropertyMonotone(t *testing.T) {
	f := func(n1x, n2x, mx uint8) bool {
		n1, n2 := int(n1x)+2, int(n2x)+2
		m := int(mx) % min(n1, n2)
		if m < 1 {
			m = 1
		}
		return Chapman(n1, n2, m) >= Chapman(n1, n2, m+1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
