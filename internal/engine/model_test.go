package engine

import (
	"maps"
	"math"
	"net/url"
	"slices"
	"sort"
	"strings"

	"deepweb/internal/index"
	"deepweb/internal/query"
	"deepweb/internal/textutil"
)

// model is the one reference every search answer is checked against
// (TestEngineFollowsOracle): the corpus as plain Go values, one row per
// doc id, answering Search the slow, obvious way from text. It shares
// with the index only the term pipeline (textutil) and the predicate
// semantics, as query.Matcher.Match over an annotation map, and it
// states what the index promises:
//
//   - BM25 with the index's constants, expression shapes and
//     query-term order, so score bits match exactly;
//   - a full sort by score, ties to the lower doc id;
//   - the annotated re-rank: the top modelRerankDepth of that ranking
//     adjusted, in attribute order, by each value the query mentions,
//     and sorted again.
type model struct {
	docs []modelDoc // by doc id
}

type modelDoc struct {
	index.Doc
	given map[string]string // the annotations it was ingested with
	anns  map[string]string // as Annotate stores them: lower-cased, trimmed
	tf    map[string]int    // stemmed term -> frequency, title terms twice
	dl    int               // document length, title terms twice
}

// The index's BM25 constants and annotation factors, restated.
const (
	modelK1          = 1.2
	modelB           = 0.75
	modelBoost       = 1.25
	modelDemote      = 0.10
	modelRerankDepth = 200
)

func newModelDoc(d index.Doc) modelDoc {
	md := modelDoc{Doc: d, tf: map[string]int{}}
	for _, t := range textutil.StemmedTokens(d.Title) {
		md.tf[t] += 2
		md.dl += 2
	}
	for _, t := range textutil.StemmedTokens(d.Text) {
		md.tf[t]++
		md.dl++
	}
	return md
}

// add commits one document: a URL a document holds is a duplicate,
// dropped with its annotations.
func (m *model) add(d index.Doc, anns map[string]string) bool {
	for _, held := range m.docs {
		if held.URL == d.URL {
			return false
		}
	}
	md := newModelDoc(d)
	md.given = anns
	// One value per attribute; empty names and values are ignored, and
	// keys naming one attribute apply in sorted order.
	for _, attr := range slices.Sorted(maps.Keys(anns)) {
		v := anns[attr]
		attr, v = strings.ToLower(strings.TrimSpace(attr)), strings.ToLower(strings.TrimSpace(v))
		if attr == "" || v == "" {
			continue
		}
		if md.anns == nil {
			md.anns = map[string]string{}
		}
		md.anns[attr] = v
	}
	m.docs = append(m.docs, md)
	return true
}

// df is how many documents hold the stemmed term.
func (m *model) df(term string) int {
	n := 0
	for _, d := range m.docs {
		if d.tf[term] > 0 {
			n++
		}
	}
	return n
}

// search answers req: the page and the total.
func (m *model) search(req SearchRequest) ([]index.Result, int) {
	if req.K <= 0 {
		return nil, 0
	}
	var terms []string
	for _, t := range textutil.StemmedTokens(req.Query) {
		if !slices.Contains(terms, t) {
			terms = append(terms, t)
		}
	}
	n, totalLen := len(m.docs), 0
	for _, d := range m.docs {
		totalLen += d.dl
	}
	if len(terms) == 0 || n == 0 {
		return nil, 0
	}
	avgdl := float64(totalLen) / float64(n)
	if avgdl == 0 {
		avgdl = 1
	}
	c0 := modelK1 * (1 - modelB)
	c1 := modelK1 * modelB / avgdl
	w := make([]float64, len(terms))
	for i, t := range terms {
		df := m.df(t)
		w[i] = math.Log(1+(float64(n)-float64(df)+0.5)/(float64(df)+0.5)) * (modelK1 + 1)
	}
	match := query.NewMatcher(req.Filters)
	var ranked []index.Result
	for id, d := range m.docs {
		score, hit := 0.0, false
		for i, t := range terms {
			if d.tf[t] == 0 {
				continue
			}
			tf := float64(d.tf[t])
			score += w[i] * tf / (tf + c0 + c1*float64(d.dl))
			hit = true
		}
		if !hit || req.Host != "" && hostOf(d.URL) != req.Host || !match.Match(d.anns, d.Title, d.Text) {
			continue
		}
		ranked = append(ranked, index.Result{DocID: id, URL: d.URL, Title: d.Title, Source: d.Source, Score: score})
	}
	byScore(ranked)
	if req.Annotated {
		head := ranked[:min(len(ranked), modelRerankDepth)]
		for _, mn := range m.mentions(req.Query) {
			for i := range head {
				if v, ok := m.docs[head[i].DocID].anns[mn.attr]; ok && v == mn.value {
					head[i].Score *= modelBoost
				} else if ok {
					head[i].Score *= modelDemote
				}
			}
		}
		byScore(head)
	}
	offset := max(req.Offset, 0)
	if offset >= len(ranked) {
		return nil, len(ranked)
	}
	return ranked[offset:min(len(ranked), offset+req.K)], len(ranked)
}

func byScore(rs []index.Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Score != rs[j].Score {
			return rs[i].Score > rs[j].Score
		}
		return rs[i].DocID < rs[j].DocID
	})
}

func hostOf(u string) string {
	p, err := url.Parse(u)
	if err != nil {
		return ""
	}
	return p.Host
}

type modelMention struct{ attr, value string }

// mentions returns, in attribute order, each attribute's value that a
// document carries and the query spells as a run of its tokens:
// the longest such value, then the one whose run starts first.
func (m *model) mentions(q string) []modelMention {
	toks := textutil.Tokenize(q)
	at := map[string]int{} // each run of query tokens -> where it first starts
	for i := range toks {
		for j := i + 1; j <= len(toks); j++ {
			g := strings.Join(toks[i:j], " ")
			if _, seen := at[g]; !seen {
				at[g] = i
			}
		}
	}
	type choice struct {
		value string
		at    int
	}
	best := map[string]choice{}
	for _, d := range m.docs {
		for attr, v := range d.anns {
			i, ok := at[v]
			if !ok {
				continue
			}
			if b, seen := best[attr]; !seen || len(v) > len(b.value) || len(v) == len(b.value) && i < b.at {
				best[attr] = choice{v, i}
			}
		}
	}
	out := make([]modelMention, 0, len(best))
	for attr, b := range best {
		out = append(out, modelMention{attr, b.value})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].attr < out[j].attr })
	return out
}
