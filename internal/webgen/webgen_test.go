package webgen

import (
	"io"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"deepweb/internal/htmlx"
	"deepweb/internal/reldb"
	"deepweb/internal/textutil"
)

func buildTestSite(t *testing.T, domain string, rows int) *Site {
	t.Helper()
	s, err := BuildSite(domain, 0, 42, rows)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func get(t *testing.T, w *Web, u string) string {
	t.Helper()
	resp, err := w.Client().Get(u)
	if err != nil {
		t.Fatalf("GET %s: %v", u, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestSiteHomepageLinksFormAndSeeds(t *testing.T) {
	w := NewWeb()
	s := buildTestSite(t, "usedcars", 100)
	w.AddSite(s)
	body := get(t, w, s.HomeURL())
	doc := htmlx.Parse(body)
	base, _ := url.Parse(s.HomeURL())
	links := htmlx.ExtractLinks(doc, base)
	foundForm, records := false, 0
	for _, l := range links {
		if strings.HasSuffix(l, "/search") {
			foundForm = true
		}
		if strings.Contains(l, "/record?id=") {
			records++
		}
	}
	if !foundForm {
		t.Error("homepage does not link the form")
	}
	if records != s.Spec.SeedRecords {
		t.Errorf("homepage links %d records, want %d", records, s.Spec.SeedRecords)
	}
}

func TestFormPageParsesBack(t *testing.T) {
	w := NewWeb()
	s := buildTestSite(t, "usedcars", 100)
	w.AddSite(s)
	body := get(t, w, s.FormURL())
	forms := htmlx.ExtractForms(htmlx.Parse(body))
	if len(forms) != 1 {
		t.Fatalf("want 1 form, got %d", len(forms))
	}
	f := forms[0]
	if f.Method != "get" || f.Action != "/results" {
		t.Errorf("form meta wrong: %+v", f)
	}
	names := map[string]string{}
	for _, in := range f.Inputs {
		names[in.Name] = in.Kind
	}
	if names["make"] != "select" || names["minprice"] != "text" || names["zip"] != "text" {
		t.Errorf("inputs wrong: %v", names)
	}
	// The select must offer the table's distinct makes plus an "any".
	for _, in := range f.Inputs {
		if in.Name == "make" {
			if len(in.Options) < 3 {
				t.Errorf("make select has %d options", len(in.Options))
			}
			if in.Options[0].Label != "any" {
				t.Errorf("first option = %+v, want the empty 'any'", in.Options[0])
			}
		}
	}
}

func TestResultsMatchGroundTruth(t *testing.T) {
	w := NewWeb()
	s := buildTestSite(t, "usedcars", 200)
	w.AddSite(s)
	mk := s.Table.DistinctStrings("make")[0]
	params := url.Values{"make": {mk}}
	truth := s.MatchingRows(params)
	body := get(t, w, "http://"+s.Spec.Host+"/results?"+params.Encode())
	if !strings.Contains(body, "results found") {
		t.Fatalf("no result count in page: %s", body[:120])
	}
	// Count of record links across all pages must equal ground truth.
	total := 0
	next := "http://" + s.Spec.Host + "/results?" + params.Encode()
	for next != "" {
		page := get(t, w, next)
		doc := htmlx.Parse(page)
		base, _ := url.Parse(next)
		next = ""
		for _, l := range htmlx.ExtractLinks(doc, base) {
			if strings.Contains(l, "/record?id=") {
				total++
			} else if strings.Contains(l, "start=") {
				next = l
			}
		}
	}
	if total != len(truth) {
		t.Errorf("paged record links = %d, ground truth = %d", total, len(truth))
	}
}

func TestEmptySubmissionRejected(t *testing.T) {
	w := NewWeb()
	s := buildTestSite(t, "usedcars", 50)
	w.AddSite(s)
	body := get(t, w, "http://"+s.Spec.Host+"/results")
	if !strings.Contains(body, "please enter a search") {
		t.Errorf("empty submission not rejected: %s", body[:160])
	}
	if rows := s.MatchingRows(url.Values{}); rows != nil {
		t.Errorf("oracle returned %d rows for empty submission", len(rows))
	}
}

func TestInvalidNumericInput(t *testing.T) {
	w := NewWeb()
	s := buildTestSite(t, "usedcars", 50)
	w.AddSite(s)
	body := get(t, w, "http://"+s.Spec.Host+"/results?minprice=banana")
	if !strings.Contains(body, "invalid input") {
		t.Errorf("bad numeric input not flagged: %s", body[:160])
	}
}

func TestRangeSemantics(t *testing.T) {
	s := buildTestSite(t, "usedcars", 300)
	lo, hi := int64(2000), int64(8000)
	got := s.MatchingRows(url.Values{"minprice": {"2000"}, "maxprice": {"8000"}})
	want := s.Table.Select(reldb.Range("price", lo, hi))
	if len(got) != len(want) {
		t.Errorf("range query rows = %d, want %d", len(got), len(want))
	}
	// Inverted range selects nothing.
	if rows := s.MatchingRows(url.Values{"minprice": {"8000"}, "maxprice": {"2000"}}); len(rows) != 0 {
		t.Errorf("inverted range returned %d rows", len(rows))
	}
}

func TestKeywordSearchBox(t *testing.T) {
	s := buildTestSite(t, "library", 200)
	rows := s.MatchingRows(url.Values{"q": {"history"}})
	if len(rows) == 0 {
		t.Fatal("keyword search found nothing for a common subject")
	}
	for _, id := range rows {
		if !strings.Contains(strings.ToLower(s.Table.RowText(id)), "history") {
			t.Fatalf("row %d does not contain keyword", id)
		}
	}
}

// RowSetSignature is the ground-truth counterpart of the surfacer's
// result-page fingerprints: independent of row order and duplication,
// and distinct for distinct record sets.
func TestRowSetSignatureGroundTruth(t *testing.T) {
	s := buildTestSite(t, "usedcars", 200)
	makes := s.Table.DistinctStrings("make")
	if len(makes) < 2 {
		t.Fatal("need at least two makes")
	}
	a := s.MatchingRows(url.Values{"make": {makes[0]}})
	b := s.MatchingRows(url.Values{"make": {makes[1]}})
	if len(a) == 0 || len(b) == 0 {
		t.Fatal("empty ground-truth result sets")
	}

	// Order and duplication do not change the fingerprint.
	perm := append([]int(nil), a...)
	for i, j := 0, len(perm)-1; i < j; i, j = i+1, j-1 {
		perm[i], perm[j] = perm[j], perm[i]
	}
	perm = append(perm, a[0], a[len(a)-1])
	if s.RowSetSignature(a) != s.RowSetSignature(perm) {
		t.Error("signature depends on row order/duplication")
	}

	// Different record sets sign differently.
	if s.RowSetSignature(a) == s.RowSetSignature(b) {
		t.Errorf("result sets for make=%q and make=%q collide", makes[0], makes[1])
	}

	// The streamed fingerprint equals signing the concatenated content
	// token sets directly.
	var toks []string
	seen := map[int]bool{}
	for _, id := range a {
		if seen[id] {
			continue
		}
		seen[id] = true
		toks = append(toks, textutil.ContentTokens(s.Table.RowText(id))...)
	}
	if got, want := textutil.SignatureOfTokens(toks), s.RowSetSignature(a); got != want {
		t.Errorf("SignatureOfTokens = %v, RowSetSignature = %v", got, want)
	}
}

func TestRecordPageHasTable(t *testing.T) {
	w := NewWeb()
	s := buildTestSite(t, "stores", 20)
	w.AddSite(s)
	body := get(t, w, "http://"+s.Spec.Host+"/record?id=0")
	tables := htmlx.ExtractTables(htmlx.Parse(body))
	if len(tables) != 1 {
		t.Fatalf("record page has %d tables", len(tables))
	}
	if len(tables[0].Headers) != len(s.Table.Columns) {
		t.Errorf("record table headers = %v", tables[0].Headers)
	}
}

func TestRecordPageChainsToNext(t *testing.T) {
	w := NewWeb()
	s := buildTestSite(t, "stores", 5)
	w.AddSite(s)
	body := get(t, w, "http://"+s.Spec.Host+"/record?id=3")
	if !strings.Contains(body, "/record?id=4") {
		t.Error("record page missing next-record link")
	}
	last := get(t, w, "http://"+s.Spec.Host+"/record?id=4")
	if strings.Contains(last, "/record?id=5") {
		t.Error("last record should not link beyond table")
	}
}

func TestRecordPage404(t *testing.T) {
	w := NewWeb()
	s := buildTestSite(t, "stores", 5)
	w.AddSite(s)
	resp, err := w.Client().Get("http://" + s.Spec.Host + "/record?id=99")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
}

func TestPostSiteRefusesNothingButIsPost(t *testing.T) {
	s := buildTestSite(t, "govdocs", 50)
	p := AsPost(s)
	if p.Spec.Method != "post" || !strings.HasPrefix(p.Spec.Host, "post-") {
		t.Errorf("AsPost spec wrong: %+v", p.Spec)
	}
	w := NewWeb()
	w.AddSite(p)
	body := get(t, w, p.FormURL())
	forms := htmlx.ExtractForms(htmlx.Parse(body))
	if forms[0].Method != "post" {
		t.Errorf("rendered method = %q", forms[0].Method)
	}
	// POST submission works.
	resp, err := w.Client().Post("http://"+p.Spec.Host+"/results", "application/x-www-form-urlencoded",
		strings.NewReader("topic="+url.QueryEscape(p.Table.DistinctStrings("topic")[0])))
	if err != nil {
		t.Fatal(err)
	}
	posted, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(posted), "results found") {
		t.Error("POST submission did not return results")
	}
}

func TestWebRequestAccounting(t *testing.T) {
	w := NewWeb()
	s := buildTestSite(t, "recipes", 30)
	w.AddSite(s)
	w.ResetCounts()
	get(t, w, s.HomeURL())
	get(t, w, s.FormURL())
	if got := w.Requests(s.Spec.Host); got != 2 {
		t.Errorf("Requests = %d, want 2", got)
	}
	if got := w.TotalRequests(); got != 2 {
		t.Errorf("TotalRequests = %d, want 2", got)
	}
	w.ResetCounts()
	if w.TotalRequests() != 0 {
		t.Error("ResetCounts did not zero")
	}
}

func TestHubLinksAllSites(t *testing.T) {
	web, err := BuildWorld(WorldConfig{Seed: 1, SitesPerDom: 2, RowsPerSite: 20})
	if err != nil {
		t.Fatal(err)
	}
	body := get(t, web, "http://"+HubHost+"/")
	doc := htmlx.Parse(body)
	base, _ := url.Parse("http://" + HubHost + "/")
	links := htmlx.ExtractLinks(doc, base)
	if want := len(Domains) * 2; len(links) != want {
		t.Errorf("hub links %d sites, want %d", len(links), want)
	}
}

func TestBuildWorldPostFraction(t *testing.T) {
	web, err := BuildWorld(WorldConfig{Seed: 1, SitesPerDom: 2, RowsPerSite: 10, PostFraction: 3})
	if err != nil {
		t.Fatal(err)
	}
	posts := 0
	for _, s := range web.Sites() {
		if s.Spec.Method == "post" {
			posts++
		}
	}
	if posts == 0 {
		t.Error("no POST sites generated")
	}
}

func TestUnknownHost404(t *testing.T) {
	w := NewWeb()
	resp, err := w.Client().Get("http://nosuch.example/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
}

func TestUnknownDomainError(t *testing.T) {
	if _, err := BuildSite("nosuch", 0, 1, 10); err == nil {
		t.Error("want error for unknown domain")
	}
}

func TestRangePairsGroundTruth(t *testing.T) {
	s := buildTestSite(t, "usedcars", 10)
	pairs := s.Spec.RangePairs()
	if len(pairs) != 1 || pairs[0] != [2]string{"minprice", "maxprice"} {
		t.Errorf("RangePairs = %v", pairs)
	}
	typed := s.Spec.TypedInputs()
	if typed["zip"] != "zipcode" || typed["minprice"] != "price" {
		t.Errorf("TypedInputs = %v", typed)
	}
}

func TestAllDomainsBuildAndServe(t *testing.T) {
	w := NewWeb()
	for _, dom := range Domains {
		s, err := BuildSite(dom, 0, 7, 30)
		if err != nil {
			t.Fatalf("%s: %v", dom, err)
		}
		w.AddSite(s)
		body := get(t, w, s.FormURL())
		forms := htmlx.ExtractForms(htmlx.Parse(body))
		if len(forms) != 1 {
			t.Errorf("%s: form page has %d forms", dom, len(forms))
		}
	}
}

// Row mutations are visible on the very next request — pages are
// rendered from current table state — and the ground-truth oracle
// follows along.
func TestSiteMutationVisibleImmediately(t *testing.T) {
	w := NewWeb()
	s := buildTestSite(t, "usedcars", 20)
	w.AddSite(s)
	n := s.Table.Len()

	clone := append(reldb.Row(nil), s.Table.Row(0)...)
	if err := s.Table.Insert(clone); err != nil {
		t.Fatal(err)
	}
	if s.Table.Len() != n+1 {
		t.Fatalf("insert: %d rows, want %d", s.Table.Len(), n+1)
	}
	lastRecord := get(t, w, "http://"+s.Spec.Host+"/record?id="+strconv.Itoa(n))
	if !strings.Contains(lastRecord, s.Table.Row(0)[0].String()) {
		t.Error("inserted record not served")
	}

	if err := s.Table.Delete(n); err != nil {
		t.Fatal(err)
	}
	if s.Table.Len() != n {
		t.Fatalf("delete: %d rows, want %d", s.Table.Len(), n)
	}

	updated := append(reldb.Row(nil), s.Table.Row(1)...)
	if err := s.Table.Update(3, updated); err != nil {
		t.Fatal(err)
	}
	if !s.Table.Row(3)[0].Equal(updated[0]) {
		t.Error("update not applied")
	}

	if err := s.Table.Update(999, updated); err == nil {
		t.Error("out-of-range update accepted")
	}
	if err := s.Table.Delete(-1); err == nil {
		t.Error("out-of-range delete accepted")
	}
	if err := s.Table.Insert(reldb.Row{reldb.S("wrong arity")}); err == nil {
		t.Error("bad-arity insert accepted")
	}
}

// TableSignature must move under every mutation kind — including the
// ones the set-semantics RowSetSignature is blind to (deleting one of
// two identical rows, reordering) — and must be a pure function of
// table content, so two identically built-and-churned sites agree.
func TestTableSignatureSensitivity(t *testing.T) {
	fresh := func() *Site { return buildTestSite(t, "usedcars", 20) }

	s := fresh()
	base := s.TableSignature()
	if base != fresh().TableSignature() {
		t.Fatal("signature differs between identical sites")
	}

	s.Table.Update(5, append(reldb.Row(nil), s.Table.Row(6)...))
	if s.TableSignature() == base {
		t.Error("update did not move the signature")
	}

	s = fresh()
	s.Table.Delete(0)
	if s.TableSignature() == base {
		t.Error("delete did not move the signature")
	}

	// The set-blind case: duplicate a row, sign, then delete one copy.
	s = fresh()
	s.Table.Insert(append(reldb.Row(nil), s.Table.Row(0)...))
	dup := s.TableSignature()
	s.Table.Delete(s.Table.Len() - 1)
	if s.TableSignature() == dup {
		t.Error("deleting one of two identical rows did not move the signature")
	}
	if s.TableSignature() != base {
		t.Error("undoing the duplication did not restore the signature")
	}
}

// Churn with one seed is deterministic across identically built worlds
// — the property the refresh pipeline's scratch-equivalence rests on.
func TestChurnDeterministic(t *testing.T) {
	build := func() *Web {
		w, err := BuildWorld(WorldConfig{Seed: 11, SitesPerDom: 1, RowsPerSite: 30})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	a, b, pristine := build(), build(), build()
	Churn(a, 8, 77)
	Churn(b, 8, 77)
	moved := 0
	for i, sa := range a.Sites() {
		if sa.TableSignature() != b.Sites()[i].TableSignature() {
			t.Errorf("%s: churned tables diverged", sa.Spec.Host)
		}
		if sa.TableSignature() != pristine.Sites()[i].TableSignature() {
			moved++
		}
	}
	if moved == 0 {
		t.Error("churn mutated nothing")
	}
}
