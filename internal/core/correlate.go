package core

import (
	"strings"

	"deepweb/internal/form"
	"deepweb/internal/textutil"
)

// Correlated-input analysis (§4.2). Two patterns matter in practice:
//
// Ranges: pairs of inputs bounding one numeric property (min-price /
// max-price). Treating them independently "might generate 120 URLs,
// many for invalid ranges"; fusing them yields "the 10 URLs that each
// retrieve results in different price ranges".
//
// Database selection: a select menu choosing which catalog a paired
// text box searches; good keywords differ per catalog.
//
// The paper proposes mining input-name/value/position patterns from
// large form collections; the patterns below are exactly the min/max,
// from/to, low/high naming conventions that mining recovers.

// rangeMarkers are the (lowSide, highSide) marker word pairs recognized
// in input names and labels.
var rangeMarkers = [][2]string{
	{"min", "max"},
	{"from", "to"},
	{"low", "high"},
	{"start", "end"},
	{"least", "most"},
}

// RangePair is a detected range correlation: two inputs bounding the
// same property.
type RangePair struct {
	MinInput string
	MaxInput string
	// Stem is the shared property name after stripping markers, e.g.
	// "price" for minprice/maxprice.
	Stem string
	// Type is the hypothesized data type of the axis ("" if unknown).
	Type string
}

// DetectRanges finds range pairs among a form's text boxes by the
// mined naming patterns: the two names must reduce to the same stem
// after removing a marker pair, with the markers on the correct sides.
// Select menus never participate (range endpoints are typed by users).
func DetectRanges(f *form.Form) []RangePair {
	boxes := textBoxes(f)
	var out []RangePair
	used := map[string]bool{}
	for _, a := range boxes {
		if used[a.Name] {
			continue
		}
		for _, b := range boxes {
			if a.Name == b.Name || used[a.Name] || used[b.Name] {
				continue
			}
			for _, m := range rangeMarkers {
				sa, oka := stripMarker(a.Name, a.Label, m[0])
				sb, okb := stripMarker(b.Name, b.Label, m[1])
				if oka && okb && sa != "" && sa == sb {
					typ := textutil.HypothesizeType(sa, a.Label)
					out = append(out, RangePair{MinInput: a.Name, MaxInput: b.Name, Stem: sa, Type: typ})
					used[a.Name], used[b.Name] = true, true
				}
			}
		}
	}
	return out
}

// stripMarker removes the marker word from an input's name (or, failing
// that, checks the label) and returns the remaining stem. "minprice" →
// ("price", true) for marker "min"; "price from" labels work too.
func stripMarker(name, label, marker string) (string, bool) {
	n := strings.ToLower(name)
	if strings.HasPrefix(n, marker) {
		return trimSep(strings.TrimPrefix(n, marker)), true
	}
	if strings.HasSuffix(n, marker) {
		return trimSep(strings.TrimSuffix(n, marker)), true
	}
	l := strings.ToLower(label)
	if l != "" && strings.Contains(l, marker) {
		stem := trimSep(strings.ReplaceAll(l, marker, " "))
		stem = strings.Join(strings.Fields(stem), " ")
		if stem != "" {
			return stem, true
		}
	}
	return "", false
}

func trimSep(s string) string {
	return strings.Trim(s, "-_ .")
}

// DBSelection is a detected database-selection correlation: the select
// menu names the catalog, the text box carries keywords, and each
// catalog needs its own keyword set.
type DBSelection struct {
	SelectInput string
	TextInput   string
	// Options are the catalog values the select offers.
	Options []string
}

// DetectDBSelection spots the §4.2 database-selection pattern
// syntactically: a form with exactly one select menu and exactly one
// text box that is a search box (no recognized type and a generic
// name). Confirmation — whether per-catalog keyword sets actually
// differ — is behavioural and happens during probing (the surfacer
// compares per-option keyword harvests).
func DetectDBSelection(f *form.Form) *DBSelection {
	var selects, boxes []form.Input
	for _, in := range f.Bindable() {
		switch in.Kind {
		case form.SelectMenu:
			selects = append(selects, in)
		case form.TextBox:
			boxes = append(boxes, in)
		}
	}
	if len(selects) != 1 || len(boxes) != 1 {
		return nil
	}
	box := boxes[0]
	if textutil.HypothesizeType(box.Name, box.Label) != "" {
		return nil // a typed box is not a keyword box
	}
	if !looksLikeSearchBox(box.Name, box.Label) {
		return nil
	}
	return &DBSelection{
		SelectInput: selects[0].Name,
		TextInput:   box.Name,
		Options:     selects[0].Options,
	}
}

// searchBoxNames are the generic names sites give free-keyword inputs.
var searchBoxNames = []string{
	"q", "query", "search", "keyword", "keywords", "terms", "text", "find",
}

func looksLikeSearchBox(name, label string) bool {
	n := strings.ToLower(name)
	for _, s := range searchBoxNames {
		if n == s || strings.Contains(n, s) {
			return true
		}
	}
	l := strings.ToLower(label)
	return strings.Contains(l, "search") || strings.Contains(l, "keyword")
}

func textBoxes(f *form.Form) []form.Input {
	var out []form.Input
	for _, in := range f.Bindable() {
		if in.Kind == form.TextBox {
			out = append(out, in)
		}
	}
	return out
}
