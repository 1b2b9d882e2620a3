// Package coverage answers §5.2's open question operationally: "what
// portion of the web site has been surfaced?" Against the synthetic
// web we can compute exact coverage from ground truth; against an
// unknown site we estimate it by capture–recapture over independent
// URL subsets, and bound it in the paper's requested form — "with
// probability M%, more than N% of the site's content has been exposed"
// — by bootstrap resampling.
package coverage

import (
	"math/rand"
	"net/url"
	"sort"

	"deepweb/internal/textutil"
	"deepweb/internal/webgen"
)

// Exact is ground-truth coverage of a site by a set of surfaced URLs.
type Exact struct {
	Covered int
	Total   int
}

// Fraction returns covered/total (0 for an empty site).
func (e Exact) Fraction() float64 {
	if e.Total == 0 {
		return 0
	}
	return float64(e.Covered) / float64(e.Total)
}

// ExactOf computes exact coverage using the site's oracle.
func ExactOf(site *webgen.Site, urls []string) Exact {
	rows := map[int]bool{}
	for _, set := range RowSets(site, urls) {
		for _, id := range set {
			rows[id] = true
		}
	}
	return Exact{Covered: len(rows), Total: site.Table.Len()}
}

// DistinctResultSets counts the distinct ground-truth result sets among
// the surfaced URLs, by content signature — the oracle analogue of the
// distinct-signature statistic the informativeness test estimates from
// sampled probes. Empty and unparsable submissions collapse together.
// Kept separate from ExactOf because it tokenizes every retrieved row;
// callers that only need coverage should not pay for it.
func DistinctResultSets(site *webgen.Site, urls []string) int {
	sets := RowSets(site, urls)
	sigs := make([]textutil.Signature, 0, len(sets))
	for _, set := range sets {
		sigs = append(sigs, site.RowSetSignature(set))
	}
	return textutil.DistinctSignatures(sigs)
}

// RowSets maps each URL to the ground-truth row ids it retrieves.
func RowSets(site *webgen.Site, urls []string) [][]int {
	out := make([][]int, 0, len(urls))
	for _, u := range urls {
		parsed, err := url.Parse(u)
		if err != nil {
			out = append(out, nil)
			continue
		}
		out = append(out, site.MatchingRows(parsed.Query()))
	}
	return out
}

// Chapman is the bias-corrected capture–recapture estimator
// N ≈ (n1+1)(n2+1)/(m+1) − 1; defined even for m == 0.
func Chapman(n1, n2, m int) float64 {
	return float64(n1+1)*float64(n2+1)/float64(m+1) - 1
}

// Estimate is a probabilistic coverage statement.
type Estimate struct {
	// Point is the central estimate of the covered fraction.
	Point float64
	// LowerBound is the N in "with probability M%, more than N% is
	// exposed": the (1−M) quantile of the bootstrap distribution.
	LowerBound float64
	// Confidence is M.
	Confidence float64
}

// EstimateFromRowSets bounds coverage using only surfaced result sets
// (no ground-truth total): each bootstrap iteration splits the URLs
// into two random halves, treats each half's row union as one capture,
// and applies Chapman to estimate the unseen population. iterations
// and seed make the bootstrap deterministic.
func EstimateFromRowSets(rowSets [][]int, confidence float64, iterations int, seed int64) Estimate {
	covered := map[int]bool{}
	for _, set := range rowSets {
		for _, id := range set {
			covered[id] = true
		}
	}
	total := len(covered)
	if total == 0 || len(rowSets) < 2 {
		return Estimate{Confidence: confidence}
	}
	r := rand.New(rand.NewSource(seed))
	fracs := make([]float64, 0, iterations)
	for it := 0; it < iterations; it++ {
		set1, set2 := map[int]bool{}, map[int]bool{}
		for _, rs := range rowSets {
			if r.Intn(2) == 0 {
				for _, id := range rs {
					set1[id] = true
				}
			} else {
				for _, id := range rs {
					set2[id] = true
				}
			}
		}
		m := 0
		for id := range set1 {
			if set2[id] {
				m++
			}
		}
		nHat := Chapman(len(set1), len(set2), m)
		if nHat < float64(total) {
			nHat = float64(total)
		}
		if nHat > 0 {
			fracs = append(fracs, float64(total)/nHat)
		}
	}
	if len(fracs) == 0 {
		return Estimate{Confidence: confidence}
	}
	sort.Float64s(fracs)
	point := fracs[len(fracs)/2]
	// Lower bound at the requested confidence: the (1-M) quantile.
	idx := int((1 - confidence) * float64(len(fracs)))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(fracs) {
		idx = len(fracs) - 1
	}
	return Estimate{Point: point, LowerBound: fracs[idx], Confidence: confidence}
}
