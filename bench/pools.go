package main

import (
	"context"
	"math/rand"
	"net/url"
	"sort"
	"strconv"

	"deepweb/internal/dist"
	"deepweb/internal/index"
	"deepweb/internal/query"
	"deepweb/internal/textutil"
	"deepweb/internal/workload"
)

// Query classes. Keyword queries are classed by the document frequency
// of their most frequent term, structured ones by what restricts them.
const (
	classHead      = "head"
	classTorso     = "torso"
	classTail      = "tail"
	classPred      = "pred"
	classHost      = "host"
	classAnnotated = "annotated"
)

// request is one /v1/search request.
type request struct {
	q         string // the q parameter; may embed filter predicates
	host      string
	annotated bool
	class     string
	path      string // request target, derived from the fields above
}

func (q *request) setPath() {
	v := url.Values{"q": {q.q}, "k": {strconv.Itoa(pageK)}}
	if q.host != "" {
		v.Set("host", q.host)
	}
	if q.annotated {
		v.Set("annotated", "true")
	}
	q.path = "/v1/search?" + v.Encode()
}

// inputs is everything a workload sends: the distinct queries and the
// order one pass asks them in.
type inputs struct {
	pool []request
	seq  []int32
}

func identity(n int) []int32 {
	seq := make([]int32, n)
	for i := range seq {
		seq[i] = int32(i)
	}
	return seq
}

// dfClasses is a vocabulary split by document frequency, read from the
// loaded index the way a cardinality-aware load generator reads
// cardinalities off the data it is going to query.
type dfClasses struct {
	head, torso, tail []string
	headMin, tailMax  int // document-frequency thresholds of head and tail
	df                map[string]int
}

// vocabulary samples documents by seed, takes their content tokens and
// classes each by its document frequency in ix: head is 1 % of the
// documents or more, tail is 0.01 % or fewer (at least one), torso is
// between.
func vocabulary(ix *index.Index, seed int64, sampleDocs int) dfClasses {
	n := ix.Len()
	r := rand.New(rand.NewSource(seed))
	seen := map[string]bool{} // by stem: two spellings of one term are one term
	var vocab []string
	for i := 0; i < sampleDocs; i++ {
		d := ix.Doc(r.Intn(n))
		for _, tok := range textutil.Tokenize(d.Title + " " + d.Text) {
			stems := textutil.StemmedTokens(tok)
			if len(stems) != 1 || seen[stems[0]] {
				continue
			}
			seen[stems[0]] = true
			vocab = append(vocab, tok)
		}
	}
	sort.Strings(vocab)
	c := dfClasses{headMin: max(n/100, 2), tailMax: max(n/10_000, 1), df: make(map[string]int, len(vocab))}
	for _, tok := range vocab {
		df := ix.DF(tok)
		c.df[tok] = df
		switch {
		case df >= c.headMin:
			c.head = append(c.head, tok)
		case df <= c.tailMax:
			c.tail = append(c.tail, tok)
		default:
			c.torso = append(c.torso, tok)
		}
	}
	return c
}

// classOf is the class of a keyword query: that of its most frequent
// term, which owns its scan cost.
func (c dfClasses) classOf(terms []string) string {
	n := 0
	for _, t := range terms {
		n = max(n, c.df[t])
	}
	switch {
	case n >= c.headMin:
		return classHead
	case n <= c.tailMax:
		return classTail
	}
	return classTorso
}

// keywordPool builds n distinct keyword queries of two or three terms,
// in five shapes of equal share: head+torso, torso+torso, torso+tail,
// head+head and tail+tail. Every third query gains a torso term.
func keywordPool(c dfClasses, seed int64, n int) []request {
	r := rand.New(rand.NewSource(seed + 1))
	shapes := [][2][]string{
		{c.head, c.torso}, {c.torso, c.torso}, {c.torso, c.tail}, {c.head, c.head}, {c.tail, c.tail},
	}
	pick := func(class []string) string { return class[r.Intn(len(class))] }
	pool := make([]request, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; len(pool) < n; i++ {
		shape := shapes[i%len(shapes)]
		terms := []string{pick(shape[0]), pick(shape[1])}
		if i%3 == 0 {
			terms = append(terms, pick(c.torso))
		}
		text := terms[0]
		for _, t := range terms[1:] {
			text += " " + t
		}
		if seen[text] {
			continue
		}
		seen[text] = true
		pool = append(pool, request{q: text, class: c.classOf(terms)})
	}
	return pool
}

// structuredPool builds n distinct structured queries: half carry one
// typed predicate in the query string, a quarter are restricted to one
// host, a quarter ask for annotated ranking. The three kinds interleave
// so any prefix holds all of them.
//
// What a structured query costs is set by how many documents its
// keywords match, since each is put to the filter, and that number
// runs from a handful to half the corpus depending on which make or
// city a template drew. So each kind is drawn eight times over, kept
// where the number lies in a band (see stratify) and thinned to the
// queries at evenly spaced quantiles of it, read off the index: the
// cost profile is then a property of the corpus's distributions, not
// of one seed's luck, and qps and the latency percentiles repeat
// across seeds.
func structuredPool(ctx context.Context, ix *index.Index, seed int64, n int) []request {
	const oversample = 8
	nHost, nAnn := n/4, n/4
	nPred := n - nHost - nAnn
	kinds := [][]request{
		stratify(ctx, ix, asRequests(workload.QueryPoolFiltered(seed, oversample*nPred, 1.0), classPred), nPred),
		stratify(ctx, ix, asRequests(workload.QueryPool(seed+11, oversample*nHost), classHost), nHost),
		stratify(ctx, ix, asRequests(workload.QueryPool(seed+13, oversample*nAnn), classAnnotated), nAnn),
	}
	pool := make([]request, 0, n)
	left := len(kinds[0]) + len(kinds[1]) + len(kinds[2]) // n, unless a band held too few
	for i := 0; left > 0; i++ {
		k := []int{0, 1, 0, 2}[i%4]
		if len(kinds[k]) > 0 {
			pool = append(pool, kinds[k][0])
			kinds[k] = kinds[k][1:]
			left--
		}
	}
	return pool
}

func asRequests(qs []string, class string) []request {
	out := make([]request, len(qs))
	for i, q := range qs {
		out[i] = request{q: q, class: class, annotated: class == classAnnotated}
	}
	return out
}

// stratify keeps the n of cands at evenly spaced quantiles of their
// unfiltered match counts, among those matching between 0.5 % and 25 %
// of the documents. Below the band a structured query costs what a
// keyword miss costs, which keyword-miss measures; with those in, half
// the pool cost a millisecond and half fifty, and the median latency
// sat on the cliff between the two, a few queries either way moving it
// by a third. Above it sit a few queries matching half the corpus,
// whose count among the n drawn changed the p95 from seed to seed. A
// host-restricted query is restricted to the host of its best hit, so
// the restriction always keeps a real share of the matches.
func stratify(ctx context.Context, ix *index.Index, cands []request, n int) []request {
	lo, hi := ix.Len()/200, ix.Len()/4
	matches := make(map[string]int, len(cands))
	var band []request
	for _, c := range cands {
		text, _ := query.Extract(c.q)
		top, total, _ := ix.TopK(ctx, text, 1, 0, nil)
		matches[c.q] = total
		if c.class == classHost && len(top) > 0 {
			c.host = top[0].Source
		}
		if total >= lo && total <= hi {
			band = append(band, c)
		}
	}
	sort.Slice(band, func(i, j int) bool {
		if mi, mj := matches[band[i].q], matches[band[j].q]; mi != mj {
			return mi < mj
		}
		return band[i].q < band[j].q
	})
	if len(band) <= n {
		return band
	}
	out := make([]request, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, band[(2*i+1)*len(band)/(2*n)])
	}
	return out
}

// zipfPool is the pool the cached workloads draw from: n keyword
// queries, the share filtered of them carrying a typed predicate.
func zipfPool(seed int64, n int, filtered float64) []request {
	pool := make([]request, 0, n)
	for _, q := range workload.QueryPoolFiltered(seed, n, filtered) {
		pool = append(pool, request{q: q})
	}
	return pool
}

// zipfSequence draws length pool indexes with Zipf exponent 1.1, the
// skew cmd/loadgen defaults to.
func zipfSequence(seed int64, poolSize, length int) []int32 {
	z := dist.NewZipf(seed+2, 1.1, uint64(poolSize))
	seq := make([]int32, length)
	for i := range seq {
		seq[i] = int32(z.Next())
	}
	return seq
}

func finish(pool []request, seq []int32) *inputs {
	for i := range pool {
		pool[i].setPath()
	}
	return &inputs{pool: pool, seq: seq}
}
