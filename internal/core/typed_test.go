package core

import (
	"strconv"
	"testing"
	"testing/quick"

	"deepweb/internal/textutil"
)

func TestHypothesizeType(t *testing.T) {
	cases := []struct {
		name, label, want string
	}{
		{"zip", "", textutil.TypeZip},
		{"zipcode", "Zip Code", textutil.TypeZip},
		{"postal_code", "", textutil.TypeZip},
		{"city", "", textutil.TypeCity},
		{"hometown", "Town", textutil.TypeCity},
		{"minprice", "", textutil.TypePrice},
		{"salary_from", "", textutil.TypePrice},
		{"maxcost", "", textutil.TypePrice},
		{"year", "", textutil.TypeDate},
		{"pubdate", "", textutil.TypeDate},
		{"q", "", ""},
		{"model", "Model", ""},
		{"", "Zip Code", textutil.TypeZip}, // label-only signal
	}
	for _, c := range cases {
		if got := textutil.HypothesizeType(c.name, c.label); got != c.want {
			t.Errorf("textutil.HypothesizeType(%q,%q) = %q, want %q", c.name, c.label, got, c.want)
		}
	}
}

func TestTypedValuesZip(t *testing.T) {
	vals := TypedValues(textutil.TypeZip, 60)
	if len(vals) != 60 {
		t.Fatalf("got %d zips", len(vals))
	}
	seen := map[string]bool{}
	for _, v := range vals {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1000 || n > 99999 {
			t.Errorf("bad zip %q", v)
		}
		if seen[v] {
			t.Errorf("duplicate zip %q", v)
		}
		seen[v] = true
	}
}

func TestTypedValuesCity(t *testing.T) {
	vals := TypedValues(textutil.TypeCity, 10)
	if len(vals) != 10 || vals[0] != "seattle" {
		t.Errorf("cities = %v", vals)
	}
	// Request beyond vocabulary truncates rather than repeating.
	all := TypedValues(textutil.TypeCity, 10000)
	seen := map[string]bool{}
	for _, v := range all {
		if seen[v] {
			t.Fatalf("duplicate city %q", v)
		}
		seen[v] = true
	}
}

func TestTypedValuesPriceMonotone(t *testing.T) {
	vals := TypedValues(textutil.TypePrice, 10)
	prev := -1
	for _, v := range vals {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("bad price %q", v)
		}
		if n <= prev {
			t.Fatalf("prices not strictly increasing: %v", vals)
		}
		prev = n
	}
}

func TestTypedValuesDate(t *testing.T) {
	vals := TypedValues(textutil.TypeDate, 12)
	for _, v := range vals {
		n, _ := strconv.Atoi(v)
		if n < 1900 || n > 2008 {
			t.Errorf("year %q out of range", v)
		}
	}
	if vals[0] != "1900" || vals[len(vals)-1] != "2008" {
		t.Errorf("year spread endpoints: %v", vals)
	}
}

func TestTypedValuesUnknown(t *testing.T) {
	if TypedValues("nosuchtype", 5) != nil {
		t.Error("unknown type should give nil")
	}
}

func TestRangeValuePairsContiguous(t *testing.T) {
	for _, typ := range []string{textutil.TypePrice, textutil.TypeDate, ""} {
		pairs := RangeValuePairs(typ, 10)
		if len(pairs) != 10 {
			t.Fatalf("%s: %d pairs, want 10", typ, len(pairs))
		}
		for i, p := range pairs {
			lo, err1 := strconv.Atoi(p[0])
			hi, err2 := strconv.Atoi(p[1])
			if err1 != nil || err2 != nil || lo >= hi {
				t.Fatalf("%s pair %d invalid: %v", typ, i, p)
			}
			if i > 0 && pairs[i-1][1] != p[0] {
				t.Fatalf("%s pairs not contiguous at %d: %v then %v", typ, i, pairs[i-1], p)
			}
		}
	}
}

// Property: every RangeValuePairs output covers an interval with no
// gaps, for any pair count.
func TestRangeValuePairsProperty(t *testing.T) {
	f := func(n8 uint8) bool {
		n := int(n8)%20 + 1
		pairs := RangeValuePairs(textutil.TypePrice, n)
		if len(pairs) != n {
			return false
		}
		for i := 1; i < len(pairs); i++ {
			if pairs[i-1][1] != pairs[i][0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
