// Package extract takes up the second §5.1 challenge: "is it possible
// to automatically extract relational data from surfaced deep-web
// pages? … extract rows of data from pages that were generated from
// deep-web sites where the inputs that were filled in order to
// generate the pages are known."
//
// The known inputs are the lever. Every surfaced page carries the
// binding that generated it (e.g. make=ford), and the bound value
// appears inside each result record at a layout-determined position.
// Wrapper induction votes, across many (binding, record) observations,
// on the token offset where each input's value surfaces; extraction
// then slices records at the learned offsets. No per-site supervision
// is needed — the paper's point that generic wrapper learning needs
// manual markup, but deep-web pages come with free labels.
package extract

import (
	"sort"
	"strings"
)

// Page is one surfaced result page reduced to what induction needs:
// the binding that generated it and the record strings on it.
type Page struct {
	// Binding is the input → value assignment of the generating
	// submission (recoverable from the surfaced URL).
	Binding map[string]string
	// Records are the page's result records as flat text (one per
	// repeated list item).
	Records []string
}

// Wrapper is an induced positional extractor for one form's result
// layout.
type Wrapper struct {
	// Offsets maps an input name to the token offset at which its
	// value begins inside a record.
	Offsets map[string]int
	// Width maps an input name to the typical token width of its
	// values (mode over observations); multi-word values have
	// width > 1.
	Width map[string]int
	// Support counts the observations behind each offset choice.
	Support map[string]int
}

// Induce learns a wrapper from surfaced pages. For every bound
// (input, value) pair it locates the value's token position in each
// record that contains it and keeps the modal offset. Inputs whose
// values never appear in records (e.g. range endpoints — a price
// bound is a filter, not a field) get no offset.
func Induce(pages []Page) *Wrapper {
	votes := map[string]map[int]int{}  // input → offset → count
	widths := map[string]map[int]int{} // input → width → count
	for _, p := range pages {
		for input, value := range p.Binding {
			val := tokens(value)
			if len(val) == 0 {
				continue
			}
			for _, rec := range p.Records {
				toks := tokens(rec)
				off := findSubsequence(toks, val)
				if off < 0 {
					continue
				}
				if votes[input] == nil {
					votes[input] = map[int]int{}
					widths[input] = map[int]int{}
				}
				votes[input][off]++
				widths[input][len(val)]++
			}
		}
	}
	w := &Wrapper{Offsets: map[string]int{}, Width: map[string]int{}, Support: map[string]int{}}
	for input, offs := range votes {
		off, n := modal(offs)
		w.Offsets[input] = off
		w.Support[input] = n
		width, _ := modal(widths[input])
		w.Width[input] = width
	}
	return w
}

// Fields returns the wrapper's known field names, sorted by learned
// offset (layout order).
func (w *Wrapper) Fields() []string {
	out := make([]string, 0, len(w.Offsets))
	for f := range w.Offsets {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		if w.Offsets[out[i]] != w.Offsets[out[j]] {
			return w.Offsets[out[i]] < w.Offsets[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// Extract slices one record into fields at the learned offsets. A
// field's value spans from its offset for its learned width (clamped
// at the next field's offset and the record end). Records shorter than
// an offset simply omit that field.
func (w *Wrapper) Extract(record string) map[string]string {
	toks := tokens(record)
	fields := w.Fields()
	out := make(map[string]string, len(fields))
	for i, f := range fields {
		start := w.Offsets[f]
		if start >= len(toks) {
			continue
		}
		end := start + w.Width[f]
		if i+1 < len(fields) && w.Offsets[fields[i+1]] < end {
			end = w.Offsets[fields[i+1]]
		}
		if end > len(toks) {
			end = len(toks)
		}
		if end <= start {
			continue
		}
		out[f] = strings.Join(toks[start:end], " ")
	}
	return out
}

func tokens(s string) []string {
	return strings.Fields(strings.ToLower(s))
}

// findSubsequence returns the first index where needle occurs as a
// contiguous token subsequence of hay, or -1.
func findSubsequence(hay, needle []string) int {
	if len(needle) == 0 || len(needle) > len(hay) {
		return -1
	}
outer:
	for i := 0; i+len(needle) <= len(hay); i++ {
		for j := range needle {
			if hay[i+j] != needle[j] {
				continue outer
			}
		}
		return i
	}
	return -1
}

func modal(counts map[int]int) (key, n int) {
	best, bestN := 0, -1
	keys := make([]int, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Ints(keys) // deterministic tie-break: smallest key wins
	for _, k := range keys {
		if counts[k] > bestN {
			best, bestN = k, counts[k]
		}
	}
	if bestN < 0 {
		return 0, 0
	}
	return best, bestN
}
