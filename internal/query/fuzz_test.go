package query

import (
	"strings"
	"testing"
)

// FuzzQueryParse feeds arbitrary strings through the DSL's three entry
// points. Parse∘String is the identity on everything Parse accepts;
// Extract never panics, never turns keyword text into an error — every
// whitespace-delimited token comes back either as keyword text or as a
// predicate Parse accepts, none is lost — and Key sees through order
// and repetition.
func FuzzQueryParse(f *testing.F) {
	for _, seed := range []string{
		"",
		"make:ford",
		"price<10000",
		"salary>=40000",
		"year:2005..2009",
		"year:2005.0..2009",
		"used cars price<10000 make:ford year:2005..2009",
		"re:invent 3:2 a<b x>=",
		"City:Santa Fe",
		"price<nan",
		"a:-inf..+inf",
		"price<0x1p-2",
		"a:b:c",
		"a:1..2..3",
		"ŠKODA:Octavia \xff\xfe:\x80",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if p, err := Parse(s); err == nil {
			back, err := Parse(p.String())
			if err != nil {
				t.Fatalf("Parse(%q) = %+v, but its String %q does not parse: %v", s, p, p.String(), err)
			}
			if back != p {
				t.Fatalf("Parse(%q) = %+v, Parse(String) = %+v", s, p, back)
			}
		}

		rest, preds := Extract(s)
		fields := strings.Fields(s)
		if got := len(strings.Fields(rest)) + len(preds); got != len(fields) {
			t.Fatalf("Extract(%q) = (%q, %d predicates): %d tokens in, %d out", s, rest, len(preds), len(fields), got)
		}
		for _, p := range preds {
			if _, err := Parse(p.String()); err != nil {
				t.Fatalf("Extract(%q) produced %+v, which Parse rejects: %v", s, p, err)
			}
		}

		if len(preds) == 0 {
			return
		}
		key := Key(preds)
		shuffled := append([]Predicate(nil), preds[1:]...)
		shuffled = append(shuffled, preds[0], preds[len(preds)-1]) // rotated, last one doubled
		if got := Key(shuffled); got != key {
			t.Fatalf("Key(%+v) = %q, but rotated and with a duplicate it is %q", preds, key, got)
		}
	})
}
