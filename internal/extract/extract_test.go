package extract

import (
	"reflect"
	"testing"
	"testing/quick"
)

func carPages() []Page {
	return []Page{
		{
			Binding: map[string]string{"make": "ford"},
			Records: []string{
				"ford focus 1993 2500 98000 seattle 98101 clean title",
				"ford escort 1997 1800 120000 portland 97201 needs tires",
			},
		},
		{
			Binding: map[string]string{"make": "honda"},
			Records: []string{
				"honda civic 1999 3100 80000 seattle 98102 one owner",
			},
		},
		{
			Binding: map[string]string{"model": "civic"},
			Records: []string{
				"honda civic 1999 3100 80000 seattle 98102 one owner",
			},
		},
		{
			Binding: map[string]string{"zip": "98101"},
			Records: []string{
				"ford focus 1993 2500 98000 seattle 98101 clean title",
			},
		},
	}
}

func TestInduceLearnsOffsets(t *testing.T) {
	w := Induce(carPages())
	if w.Offsets["make"] != 0 {
		t.Errorf("make offset = %d, want 0", w.Offsets["make"])
	}
	if w.Offsets["model"] != 1 {
		t.Errorf("model offset = %d, want 1", w.Offsets["model"])
	}
	if w.Offsets["zip"] != 6 {
		t.Errorf("zip offset = %d, want 6", w.Offsets["zip"])
	}
	if w.Support["make"] != 3 {
		t.Errorf("make support = %d, want 3", w.Support["make"])
	}
	if got := w.Fields(); !reflect.DeepEqual(got, []string{"make", "model", "zip"}) {
		t.Errorf("Fields = %v", got)
	}
}

func TestInduceIgnoresFilterOnlyInputs(t *testing.T) {
	pages := []Page{{
		Binding: map[string]string{"minprice": "2000", "make": "ford"},
		Records: []string{"ford focus 1993 2500 98000 seattle 98101 ok"},
	}}
	w := Induce(pages)
	if _, ok := w.Offsets["minprice"]; ok {
		t.Error("range endpoint learned an offset despite never appearing in records")
	}
	if _, ok := w.Offsets["make"]; !ok {
		t.Error("make missing")
	}
}

func TestExtractSlicesRecord(t *testing.T) {
	w := Induce(carPages())
	got := w.Extract("toyota corolla 1999 4100 60000 denver 80202 reliable")
	if got["make"] != "toyota" || got["model"] != "corolla" || got["zip"] != "80202" {
		t.Errorf("Extract = %v", got)
	}
}

func TestExtractShortRecordOmitsFields(t *testing.T) {
	w := Induce(carPages())
	got := w.Extract("bmw 325i")
	if _, ok := got["zip"]; ok {
		t.Errorf("zip extracted from short record: %v", got)
	}
	if got["make"] != "bmw" {
		t.Errorf("make = %q", got["make"])
	}
}

func TestExtractMultiWordValue(t *testing.T) {
	pages := []Page{
		{
			Binding: map[string]string{"city": "san francisco"},
			Records: []string{
				"condo san francisco 450000 sunny corner",
				"loft san francisco 520000 brick walls",
			},
		},
		{
			Binding: map[string]string{"type": "condo"},
			Records: []string{"condo san francisco 450000 sunny corner"},
		},
	}
	w := Induce(pages)
	if w.Width["city"] != 2 {
		t.Fatalf("city width = %d, want 2", w.Width["city"])
	}
	got := w.Extract("house los angeles 700000 garden view")
	if got["city"] != "los angeles" {
		t.Errorf("multi-word city = %q", got["city"])
	}
	if got["type"] != "house" {
		t.Errorf("type = %q", got["type"])
	}
}

func TestFindSubsequence(t *testing.T) {
	hay := []string{"a", "b", "c", "b", "c"}
	if got := findSubsequence(hay, []string{"b", "c"}); got != 1 {
		t.Errorf("got %d, want 1", got)
	}
	if got := findSubsequence(hay, []string{"c", "a"}); got != -1 {
		t.Errorf("got %d, want -1", got)
	}
	if got := findSubsequence(hay, nil); got != -1 {
		t.Errorf("empty needle: got %d", got)
	}
	if got := findSubsequence([]string{"a"}, []string{"a", "b"}); got != -1 {
		t.Errorf("needle longer than hay: got %d", got)
	}
}

func TestInduceEmpty(t *testing.T) {
	w := Induce(nil)
	if len(w.Offsets) != 0 || len(w.Fields()) != 0 {
		t.Errorf("empty induction produced %v", w.Offsets)
	}
	if got := w.Extract("anything at all"); len(got) != 0 {
		t.Errorf("extraction with no fields = %v", got)
	}
}

// Property: extraction never panics and extracted values are
// substrings (token-wise) of the record.
func TestExtractPropertyContained(t *testing.T) {
	w := Induce(carPages())
	f := func(rec string) bool {
		out := w.Extract(rec)
		lowRec := " " + joinTokens(rec) + " "
		for _, v := range out {
			if v == "" {
				return false
			}
			if !contains(lowRec, " "+v+" ") {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func joinTokens(s string) string {
	toks := tokens(s)
	out := ""
	for i, t := range toks {
		if i > 0 {
			out += " "
		}
		out += t
	}
	return out
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
