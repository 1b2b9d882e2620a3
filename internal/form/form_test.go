package form

import (
	"net/url"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"deepweb/internal/htmlx"
)

func parseForm(t *testing.T, page, base string) *Form {
	t.Helper()
	doc := htmlx.Parse(page)
	decls := htmlx.ExtractForms(doc)
	if len(decls) == 0 {
		t.Fatal("no forms in page")
	}
	u, err := url.Parse(base)
	if err != nil {
		t.Fatal(err)
	}
	f, err := FromDecl(u, decls[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

const searchPage = `<form action="/results" method="get">
<select name="make"><option value="">any</option><option value="ford">Ford</option><option value="honda">Honda</option></select>
<input type="text" name="minprice">
<input type="text" name="maxprice">
<input type="hidden" name="lang" value="en">
<input type="submit" value="Go">
<input type="text">
</form>`

func TestFromDeclClassification(t *testing.T) {
	f := parseForm(t, searchPage, "http://cars.example.com/search")
	if f.Site != "cars.example.com" || f.Method != "get" {
		t.Errorf("form meta wrong: %+v", f)
	}
	if f.Action.String() != "http://cars.example.com/results" {
		t.Errorf("action = %v", f.Action)
	}
	kinds := map[string]InputKind{}
	var mk Input
	for _, in := range f.Inputs {
		kinds[in.Name] = in.Kind
		if in.Name == "make" {
			mk = in
		}
	}
	if kinds["make"] != SelectMenu || kinds["minprice"] != TextBox || kinds["lang"] != Hidden {
		t.Errorf("classification wrong: %v", kinds)
	}
	if !mk.HasEmpty || !reflect.DeepEqual(mk.Options, []string{"ford", "honda"}) {
		t.Errorf("select options wrong: %+v", mk)
	}
	if got := len(f.Bindable()); got != 3 {
		t.Errorf("Bindable = %d, want 3 (make, minprice, maxprice)", got)
	}
}

func TestUnnamedInputUnbindable(t *testing.T) {
	f := parseForm(t, searchPage, "http://cars.example.com/search")
	last := f.Inputs[len(f.Inputs)-1]
	if last.Kind != Unbindable {
		t.Errorf("unnamed text input should be unbindable, got %v", last.Kind)
	}
}

func TestSubmitURLCanonical(t *testing.T) {
	f := parseForm(t, searchPage, "http://cars.example.com/search")
	u1 := f.SubmitURL(Binding{"make": "ford", "minprice": "1000"})
	u2 := f.SubmitURL(Binding{"minprice": "1000", "make": "ford"})
	if u1 != u2 {
		t.Errorf("binding order changed URL: %q vs %q", u1, u2)
	}
	if !strings.Contains(u1, "lang=en") {
		t.Errorf("hidden input missing from URL: %q", u1)
	}
	if !strings.Contains(u1, "maxprice=") {
		t.Errorf("unbound input should be submitted empty: %q", u1)
	}
}

func TestSubmitURLDistinctBindingsDistinctURLs(t *testing.T) {
	f := parseForm(t, searchPage, "http://cars.example.com/search")
	a := f.SubmitURL(Binding{"make": "ford"})
	b := f.SubmitURL(Binding{"make": "honda"})
	if a == b {
		t.Error("different bindings produced the same URL")
	}
}

func TestPostFormHasNoSubmitURL(t *testing.T) {
	page := `<form action="/buy" method="POST"><input type="text" name="q"></form>`
	f := parseForm(t, page, "http://shop.example.com/")
	if got := f.SubmitURL(Binding{"q": "x"}); got != "" {
		t.Errorf("POST form yielded URL %q, want empty", got)
	}
	body := f.PostBody(Binding{"q": "x"})
	if body != "q=x" {
		t.Errorf("PostBody = %q", body)
	}
}

func TestRelativeActionResolution(t *testing.T) {
	page := `<form action="results.cgi"><input type="text" name="q"></form>`
	f := parseForm(t, page, "http://site.example.com/dir/search.html")
	if f.Action.String() != "http://site.example.com/dir/results.cgi" {
		t.Errorf("action = %v", f.Action)
	}
	if f.Method != "get" {
		t.Errorf("default method = %q, want get", f.Method)
	}
}

func TestFromDeclNilBase(t *testing.T) {
	if _, err := FromDecl(nil, htmlx.FormDecl{}, 0); err == nil {
		t.Error("want error for nil base")
	}
}

func TestBindingClone(t *testing.T) {
	b := Binding{"a": "1"}
	c := b.Clone()
	c["a"] = "2"
	if b["a"] != "1" {
		t.Error("Clone aliases original")
	}
}

func TestInputKindString(t *testing.T) {
	if TextBox.String() != "textbox" || SelectMenu.String() != "select" ||
		Hidden.String() != "hidden" || Unbindable.String() != "unbindable" {
		t.Error("InputKind.String wrong")
	}
}

// Property: SubmitURL is deterministic and parses back to the same
// query values that were bound.
func TestSubmitURLPropertyRoundTrip(t *testing.T) {
	f := parseForm(t, searchPage, "http://cars.example.com/search")
	check := func(mk uint8, lo, hi uint16) bool {
		makes := []string{"ford", "honda"}
		b := Binding{
			"make":     makes[int(mk)%2],
			"minprice": url.QueryEscape(strings.Repeat("9", int(lo)%4+1)),
			"maxprice": strings.Repeat("8", int(hi)%4+1),
		}
		u, err := url.Parse(f.SubmitURL(b))
		if err != nil {
			return false
		}
		q := u.Query()
		return q.Get("make") == b["make"] && q.Get("maxprice") == b["maxprice"] && q.Get("lang") == "en"
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}
