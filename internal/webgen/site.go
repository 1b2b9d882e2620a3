package webgen

import (
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"deepweb/internal/htmlx"
	"deepweb/internal/reldb"
	"deepweb/internal/textutil"
)

// Site is one synthetic deep-web site: a spec plus its backing table.
// It implements http.Handler with four routes:
//
//	/            homepage: description, form link, seed record links
//	/search      the HTML form
//	/results     form submissions (GET query or POST body)
//	/record?id=N one page per database row
type Site struct {
	Spec  SiteSpec
	Table *reldb.Table
}

// NewSite pairs a spec with its table.
func NewSite(spec SiteSpec, table *reldb.Table) *Site {
	return &Site{Spec: spec, Table: table}
}

// ServeHTTP implements http.Handler.
func (s *Site) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/", "":
		s.serveHome(w)
	case "/search":
		s.serveForm(w)
	case "/results":
		s.serveResults(w, r)
	case "/record":
		s.serveRecord(w, r)
	default:
		http.NotFound(w, r)
	}
}

func (s *Site) serveHome(w http.ResponseWriter) {
	var b strings.Builder
	page := func() { writeHTML(w, s.Spec.Title, b.String()) }
	fmt.Fprintf(&b, "<h1>%s</h1>", htmlx.EscapeText(s.Spec.Title))
	fmt.Fprintf(&b, "<p>welcome to %s, your source for %s listings</p>",
		htmlx.EscapeText(s.Spec.Host), htmlx.EscapeText(s.Spec.Domain))
	b.WriteString(`<p><a href="/search">search our database</a></p><ul>`)
	n := s.Spec.SeedRecords
	if n > s.Table.Len() {
		n = s.Table.Len()
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<li><a href="/record?id=%d">%s</a></li>`,
			i, htmlx.EscapeText(s.Table.RowText(i)))
	}
	b.WriteString("</ul>")
	page()
}

func (s *Site) serveForm(w http.ResponseWriter) {
	var b strings.Builder
	fmt.Fprintf(&b, "<h1>%s — search</h1>", htmlx.EscapeText(s.Spec.Title))
	fmt.Fprintf(&b, `<form action="/results" method="%s">`, s.Spec.Method)
	for _, in := range s.Spec.Inputs {
		fmt.Fprintf(&b, `<label for="%s">%s</label>`,
			htmlx.EscapeAttr(in.Name), htmlx.EscapeText(in.Label))
		switch in.Control {
		case ControlSelect:
			fmt.Fprintf(&b, `<select name="%s"><option value="">any</option>`, htmlx.EscapeAttr(in.Name))
			for _, v := range s.selectOptions(in) {
				fmt.Fprintf(&b, `<option value="%s">%s</option>`,
					htmlx.EscapeAttr(v), htmlx.EscapeText(v))
			}
			b.WriteString("</select>")
		default:
			fmt.Fprintf(&b, `<input type="text" name="%s">`, htmlx.EscapeAttr(in.Name))
		}
	}
	b.WriteString(`<input type="submit" value="Search"></form>`)
	writeHTML(w, s.Spec.Title+" search", b.String())
}

// selectOptions lists the values a select menu offers: the distinct
// values of the backing column, capped at MaxOptions.
func (s *Site) selectOptions(in InputSpec) []string {
	var vals []string
	idx := s.Table.ColIndex(in.Column)
	if idx < 0 {
		return nil
	}
	if s.Table.Columns[idx].Kind == reldb.KindInt {
		for _, v := range s.Table.DistinctInts(in.Column) {
			vals = append(vals, strconv.FormatInt(v, 10))
		}
	} else {
		vals = s.Table.DistinctStrings(in.Column)
	}
	if in.MaxOptions > 0 && len(vals) > in.MaxOptions {
		vals = vals[:in.MaxOptions]
	}
	return vals
}

func (s *Site) serveResults(w http.ResponseWriter, r *http.Request) {
	if err := r.ParseForm(); err != nil {
		http.Error(w, "bad form", http.StatusBadRequest)
		return
	}
	// A GET site ignores POSTed bodies and vice versa only in exotic
	// setups; accept r.Form (merged) like common CGI stacks.
	params := r.Form
	preds, bound, badInput := s.predsFrom(params)
	var b strings.Builder
	fmt.Fprintf(&b, "<h1>%s — results</h1>", htmlx.EscapeText(s.Spec.Title))
	switch {
	case s.Spec.RequireBound && bound == 0:
		b.WriteString("<p>please enter a search term</p>")
	case badInput:
		b.WriteString("<p>invalid input, please check your query</p>")
	default:
		rows := s.Table.Select(preds...)
		fmt.Fprintf(&b, "<p>%d results found</p>", len(rows))
		start := 0
		if v := params.Get("start"); v != "" {
			if n, err := strconv.Atoi(v); err == nil && n >= 0 {
				start = n
			}
		}
		end := start + s.Spec.PageSize
		if s.Spec.PageSize <= 0 || end > len(rows) {
			end = len(rows)
		}
		b.WriteString("<ul>")
		for _, id := range rows[start:min(end, len(rows))] {
			fmt.Fprintf(&b, `<li><a href="/record?id=%d">%s</a></li>`,
				id, htmlx.EscapeText(s.Table.RowText(id)))
		}
		b.WriteString("</ul>")
		if end < len(rows) {
			next := cloneValues(params)
			next.Set("start", strconv.Itoa(end))
			fmt.Fprintf(&b, `<p><a href="/results?%s">next page</a></p>`, next.Encode())
		}
	}
	writeHTML(w, s.Spec.Title+" results", b.String())
}

func (s *Site) serveRecord(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.URL.Query().Get("id"))
	if err != nil || id < 0 || id >= s.Table.Len() {
		http.NotFound(w, r)
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "<h1>%s — record %d</h1>", htmlx.EscapeText(s.Spec.Title), id)
	b.WriteString("<table><tr>")
	for _, c := range s.Table.Columns {
		fmt.Fprintf(&b, "<th>%s</th>", htmlx.EscapeText(s.Spec.headerName(c.Name)))
	}
	b.WriteString("</tr><tr>")
	for _, v := range s.Table.Row(id) {
		fmt.Fprintf(&b, "<td>%s</td>", htmlx.EscapeText(v.String()))
	}
	b.WriteString("</tr></table>")
	if id+1 < s.Table.Len() {
		fmt.Fprintf(&b, `<p><a href="/record?id=%d">next record</a></p>`, id+1)
	}
	writeHTML(w, fmt.Sprintf("%s record %d", s.Spec.Title, id), b.String())
}

// predsFrom converts submitted parameters to predicates. bound counts
// inputs that carried a non-empty value; badInput reports an unparsable
// numeric value (the site answers those with an error page, which the
// surfacer's signature analysis must learn to discard).
func (s *Site) predsFrom(params url.Values) (preds []reldb.Pred, bound int, badInput bool) {
	for _, in := range s.Spec.Inputs {
		raw := strings.TrimSpace(params.Get(in.Name))
		if raw == "" {
			continue
		}
		bound++
		switch in.Op {
		case OpKeyword:
			if len(in.KeywordCols) > 0 {
				preds = append(preds, reldb.ContainsAllIn(in.KeywordCols, strings.Fields(raw)...))
			} else {
				preds = append(preds, reldb.ContainsAll(strings.Fields(raw)...))
			}
			continue
		}
		idx := s.Table.ColIndex(in.Column)
		if idx < 0 {
			badInput = true
			continue
		}
		isInt := s.Table.Columns[idx].Kind == reldb.KindInt
		switch in.Op {
		case OpEq:
			if isInt {
				n, err := strconv.ParseInt(raw, 10, 64)
				if err != nil {
					badInput = true
					continue
				}
				preds = append(preds, reldb.Eq(in.Column, reldb.I(n)))
			} else {
				preds = append(preds, reldb.Eq(in.Column, reldb.S(raw)))
			}
		case OpRangeMin, OpRangeMax:
			n, err := strconv.ParseInt(raw, 10, 64)
			if err != nil {
				badInput = true
				continue
			}
			if in.Op == OpRangeMin {
				preds = append(preds, reldb.Range(in.Column, n, reldb.OpenHigh))
			} else {
				preds = append(preds, reldb.Range(in.Column, reldb.OpenLow, n))
			}
		}
	}
	return preds, bound, badInput
}

// MatchingRows is the ground-truth oracle: the row ids a submission with
// these parameters retrieves (ignoring paging). Experiments use it to
// compute exact coverage; the serving path uses identical logic.
func (s *Site) MatchingRows(params url.Values) []int {
	preds, bound, bad := s.predsFrom(params)
	if (s.Spec.RequireBound && bound == 0) || bad {
		return nil
	}
	return s.Table.Select(preds...)
}

// RowSetSignature is the ground-truth content fingerprint of a result
// set: the signature of the content tokens of the given rows, streamed
// through one accumulator without concatenating row texts. Like the
// surfacer's page signatures it is independent of row order and
// duplication, so experiments can compare "which distinct record sets
// exist" against what probing observed.
func (s *Site) RowSetSignature(rowIDs []int) textutil.Signature {
	var (
		tz textutil.Tokenizer
		sg textutil.Signer
	)
	sg.Reset()
	for _, id := range rowIDs {
		tz.SignContent(&sg, s.Table.RowText(id))
	}
	return sg.Sum()
}

// TableSignature fingerprints the site's entire backing table,
// sensitive to row order and multiplicity. It deliberately does NOT
// reuse the surfacing signature semantics: RowSetSignature collapses
// order and duplicates because probed result *sets* should, but served
// pages are order- and count-sensitive (result counts, paging layout,
// record numbering), so a churn detector built on the set signature
// would miss mutations — deleting one of two identical rows, or
// reordering — that visibly change every page. The hash (FNV-1a over
// rendered row texts with separators) is seed-free, so it is stable
// across processes and can be persisted in snapshots.
func (s *Site) TableSignature() textutil.Signature {
	h := fnv.New64a()
	for i, n := 0, s.Table.Len(); i < n; i++ {
		io.WriteString(h, s.Table.RowText(i))
		h.Write([]byte{0})
	}
	return textutil.Signature(h.Sum64())
}

// FormURL returns the absolute URL of the site's search form page.
func (s *Site) FormURL() string { return "http://" + s.Spec.Host + "/search" }

// HomeURL returns the absolute URL of the site's homepage.
func (s *Site) HomeURL() string { return "http://" + s.Spec.Host + "/" }

func writeHTML(w http.ResponseWriter, title, body string) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, "<!DOCTYPE html><html><head><title>%s</title></head><body>%s</body></html>",
		htmlx.EscapeText(title), body)
}

func cloneValues(v url.Values) url.Values {
	out := make(url.Values, len(v))
	for k, vs := range v {
		out[k] = append([]string(nil), vs...)
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
