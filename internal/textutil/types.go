package textutil

import "strings"

// TypeZip .. TypeDate name the common input data types the paper calls
// out (§4.1: "US zip codes, city names, dates and prices"). The
// surfacer types form inputs with them, and the query layer types
// structured predicates with them, so they live in this leaf package.
const (
	TypeZip   = "zipcode"
	TypeCity  = "city"
	TypePrice = "price"
	TypeDate  = "date"
)

// typePatterns maps a type to the lower-case substrings of an input
// name/label that suggest it. Order matters: first hit wins, and price
// is checked before date so "price from" beats the "from" of a date
// range heuristic elsewhere.
var typePatterns = []struct {
	typ  string
	pats []string
}{
	{TypeZip, []string{"zip", "postal"}},
	{TypeCity, []string{"city", "town"}},
	{TypePrice, []string{"price", "salary", "cost", "fee", "amount", "wage"}},
	{TypeDate, []string{"year", "date", "yr"}},
}

// HypothesizeType guesses the data type of a text input from its name
// and label, returning "" when nothing matches. This is only the
// hypothesis half; the surfacer confirms it by probing (§4.1 reports
// such typed inputs "can be identified with high accuracy" — the
// accuracy comes from the validation step).
func HypothesizeType(name, label string) string {
	hay := strings.ToLower(name + " " + label)
	for _, tp := range typePatterns {
		for _, p := range tp.pats {
			if strings.Contains(hay, p) {
				return tp.typ
			}
		}
	}
	return ""
}
