package textutil

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

func TestTokenizeBasic(t *testing.T) {
	got := Tokenize("Used Ford Focus, 1993 — $2,500!")
	want := []string{"used", "ford", "focus", "1993", "500"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeDropsExtremes(t *testing.T) {
	long := strings.Repeat("x", 41)
	got := Tokenize("a b " + long + " ok")
	want := []string{"ok"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeEmpty(t *testing.T) {
	if got := Tokenize(""); len(got) != 0 {
		t.Errorf("Tokenize(\"\") = %v, want empty", got)
	}
	if got := Tokenize("!!! --- ???"); len(got) != 0 {
		t.Errorf("Tokenize(punct) = %v, want empty", got)
	}
}

func TestTokenizeLowercases(t *testing.T) {
	for _, tok := range Tokenize("HONDA Civic EX") {
		if tok != strings.ToLower(tok) {
			t.Errorf("token %q not lower-cased", tok)
		}
	}
}

func TestContentTokensFiltersStopwordsAndDigits(t *testing.T) {
	got := ContentTokens("the price of the car is 12500 dollars")
	want := []string{"price", "car", "dollars"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ContentTokens = %v, want %v", got, want)
	}
}

func TestStem(t *testing.T) {
	cases := map[string]string{
		"cars":      "car",
		"cities":    "city",
		"makes":     "make",
		"listing":   "list",
		"listed":    "list",
		"glass":     "glass",
		"bus":       "bus",
		"price":     "price",
		"addresses": "address",
	}
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

// Stem and the pipeline's in-place stemBytes share one rule set; pin
// the equivalence so they cannot silently diverge.
func TestStemMatchesStemBytes(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if Stem(tok) != string(stemBytes([]byte(tok))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	for _, tok := range []string{"cities", "glasses", "sses", "ies", "buses", "bus", "misses", "es"} {
		if got, want := Stem(tok), string(stemBytes([]byte(tok))); got != want {
			t.Errorf("Stem(%q) = %q, stemBytes = %q", tok, got, want)
		}
	}
}

func TestCosine(t *testing.T) {
	a := NewTermVector([]string{"ford", "focus"})
	b := NewTermVector([]string{"ford", "focus"})
	if got := Cosine(a, b); math.Abs(got-1) > 1e-12 {
		t.Errorf("Cosine(identical) = %v, want 1", got)
	}
	c := NewTermVector([]string{"honda", "civic"})
	if got := Cosine(a, c); got != 0 {
		t.Errorf("Cosine(disjoint) = %v, want 0", got)
	}
	if got := Cosine(a, TermVector{}); got != 0 {
		t.Errorf("Cosine(with empty) = %v, want 0", got)
	}
}

func TestTopTermsDeterministicTieBreak(t *testing.T) {
	v := TermVector{"beta": 2, "alpha": 2, "gamma": 1}
	got := v.TopTerms(2)
	if got[0].Term != "alpha" || got[1].Term != "beta" {
		t.Errorf("TopTerms tie-break = %v, want alpha,beta", got)
	}
}

func TestTopTermsKLargerThanVector(t *testing.T) {
	v := TermVector{"a2": 1}
	if got := v.TopTerms(10); len(got) != 1 {
		t.Errorf("TopTerms len = %d, want 1", len(got))
	}
}

func TestSignatureIgnoresOrderAndMultiplicity(t *testing.T) {
	a := SignatureOf("honda civic 1999 blue sedan")
	b := SignatureOf("blue sedan honda honda civic 1999")
	if a != b {
		t.Errorf("signatures of permuted/multiplied content differ: %v vs %v", a, b)
	}
	c := SignatureOf("honda accord 1999 blue sedan")
	if a == c {
		t.Errorf("signatures of different content collide")
	}
}

func TestSignatureIgnoresStopwordChrome(t *testing.T) {
	a := SignatureOf("results for the query: honda civic")
	b := SignatureOf("honda civic results query")
	if a != b {
		t.Errorf("stopword chrome changed the signature")
	}
}

func TestDistinctSignatures(t *testing.T) {
	sigs := []Signature{1, 2, 2, 3, 1}
	if got := DistinctSignatures(sigs); got != 3 {
		t.Errorf("DistinctSignatures = %d, want 3", got)
	}
	if got := DistinctSignatures(nil); got != 0 {
		t.Errorf("DistinctSignatures(nil) = %d, want 0", got)
	}
}

// Property: tokenization output only contains runes that are letters or
// digits, lower-cased, within the length bounds (counted in runes).
func TestTokenizePropertyWellFormed(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if n := utf8.RuneCountInString(tok); n < 2 || n > 40 {
				return false
			}
			if tok != strings.ToLower(tok) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The 2–40 length bounds are rune counts, not byte counts: a one-rune
// multibyte token is dropped even though it is 2+ bytes, and a 15-rune
// CJK token is kept even though it is 45 bytes.
func TestTokenizeBoundsCountRunes(t *testing.T) {
	if got := Tokenize("é x"); len(got) != 0 {
		t.Errorf("Tokenize(one-rune tokens) = %v, want empty", got)
	}
	cjk := strings.Repeat("日", 15) // 45 bytes, 15 runes
	if got := Tokenize("ok " + cjk); !reflect.DeepEqual(got, []string{"ok", cjk}) {
		t.Errorf("Tokenize = %v, want [ok %s]", got, cjk)
	}
	over := strings.Repeat("日", 41) // over the rune bound
	if got := Tokenize(over + " ok"); !reflect.DeepEqual(got, []string{"ok"}) {
		t.Errorf("Tokenize(41-rune token) = %v, want [ok]", got)
	}
	if got := Tokenize("café naïve"); !reflect.DeepEqual(got, []string{"café", "naïve"}) {
		t.Errorf("Tokenize = %v, want [café naïve]", got)
	}
}

// The ASCII fast path and the Unicode slow path agree on mixed input,
// including case folding on both sides of the boundary.
func TestTokenizeMixedScripts(t *testing.T) {
	got := Tokenize("ŠKODA Octavia, Ζαγόρι-2024 БМВ")
	want := []string{"škoda", "octavia", "ζαγόρι", "2024", "бмв"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

// TokenizeInto appends into a caller-supplied buffer without clobbering
// what is already there, and a reused Tokenizer keeps yielding correct
// results.
func TestTokenizeInto(t *testing.T) {
	var tz Tokenizer
	buf := make([]string, 0, 8)
	buf = append(buf, "prefix")
	buf = tz.TokenizeInto(buf, "Ford Focus")
	if want := []string{"prefix", "ford", "focus"}; !reflect.DeepEqual(buf, want) {
		t.Fatalf("TokenizeInto = %v, want %v", buf, want)
	}
	for i := 0; i < 3; i++ {
		out := tz.TokenizeInto(buf[:0], "honda CIVIC 1999")
		if want := []string{"honda", "civic", "1999"}; !reflect.DeepEqual(out, want) {
			t.Fatalf("round %d: TokenizeInto = %v, want %v", i, out, want)
		}
	}
}

// StemmedTokensInto is the index pipeline: stopwords dropped, stems
// applied, digits kept.
func TestStemmedTokensInto(t *testing.T) {
	var tz Tokenizer
	got := tz.StemmedTokensInto(nil, "the listings of used cars from 1993")
	want := []string{"listing", "used", "car", "1993"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("StemmedTokensInto = %v, want %v", got, want)
	}
}

// A Signer accumulates the same fingerprint as SignatureOfTokens, and
// SignContent streams the same fingerprint as SignatureOf.
func TestSignerMatchesPackageFunctions(t *testing.T) {
	tokens := []string{"honda", "civic", "1999", "honda"}
	var sg Signer
	sg.Reset()
	for _, tok := range tokens {
		sg.Add(tok)
	}
	if sg.Sum() != SignatureOfTokens(tokens) {
		t.Error("Signer sum differs from SignatureOfTokens")
	}

	text := "used Honda Civic for sale in the city of Seattle"
	var tz Tokenizer
	sg.Reset()
	tz.SignContent(&sg, text)
	if sg.Sum() != SignatureOf(text) {
		t.Error("streamed SignContent differs from SignatureOf")
	}

	// Streaming parts must equal signing the concatenation.
	sg.Reset()
	tz.SignContent(&sg, "used Honda Civic")
	tz.SignContent(&sg, "for sale in Seattle")
	if sg.Sum() != SignatureOf("used Honda Civic for sale in Seattle") {
		t.Error("part-wise SignContent differs from whole-text SignatureOf")
	}
}

// Property: cosine similarity is symmetric and bounded.
func TestCosinePropertySymmetricBounded(t *testing.T) {
	f := func(xs, ys []string) bool {
		a, b := NewTermVector(xs), NewTermVector(ys)
		c1, c2 := Cosine(a, b), Cosine(b, a)
		return math.Abs(c1-c2) < 1e-9 && c1 >= 0 && c1 <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a signature is invariant under shuffling of tokens.
func TestSignaturePropertyPermutationInvariant(t *testing.T) {
	f := func(xs []string, seed int64) bool {
		if len(xs) == 0 {
			return true
		}
		perm := make([]string, len(xs))
		copy(perm, xs)
		sort.Strings(perm) // any fixed permutation suffices
		return SignatureOfTokens(xs) == SignatureOfTokens(perm)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
