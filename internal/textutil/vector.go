package textutil

import (
	"math"
	"sort"
)

// TermVector is a sparse bag-of-words with float weights, keyed by term.
type TermVector map[string]float64

// NewTermVector builds a term-frequency vector from tokens.
func NewTermVector(tokens []string) TermVector {
	v := make(TermVector, len(tokens))
	for _, t := range tokens {
		v[t]++
	}
	return v
}

// Norm returns the Euclidean norm of v.
func (v TermVector) Norm() float64 {
	var s float64
	for _, w := range v {
		s += w * w
	}
	return math.Sqrt(s)
}

// Cosine returns the cosine similarity of a and b in [0,1]; zero vectors
// have similarity 0.
func Cosine(a, b TermVector) float64 {
	if len(a) > len(b) {
		a, b = b, a
	}
	var dot float64
	for t, w := range a {
		dot += w * b[t]
	}
	na, nb := a.Norm(), b.Norm()
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (na * nb)
}

// WeightedTerm pairs a term with a weight, for ranked keyword lists.
type WeightedTerm struct {
	Term   string
	Weight float64
}

// TopTerms returns the k highest-weighted terms of v, ties broken
// alphabetically so the output is deterministic.
func (v TermVector) TopTerms(k int) []WeightedTerm {
	terms := make([]WeightedTerm, 0, len(v))
	for t, w := range v {
		terms = append(terms, WeightedTerm{t, w})
	}
	sort.Slice(terms, func(i, j int) bool {
		if terms[i].Weight != terms[j].Weight {
			return terms[i].Weight > terms[j].Weight
		}
		return terms[i].Term < terms[j].Term
	})
	if k < len(terms) {
		terms = terms[:k]
	}
	return terms
}
