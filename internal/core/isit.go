package core

import (
	"context"
	"errors"
	"net/url"
	"sort"

	"deepweb/internal/form"
	"deepweb/internal/textutil"
)

// Incremental Search for Informative Templates (ISIT, per the PVLDB'08
// algorithms this paper builds on). A query template is a choice of
// dimensions to bind; a template is informative when the result pages
// its submissions retrieve are sufficiently distinct from one another —
// i.e. the bound inputs actually partition the underlying database
// rather than being ignored or producing errors. Search starts from
// single-dimension templates and extends only informative ones, which
// is what keeps generated URLs proportional to the database rather than
// to the cross-product query space (§3.2).

// runISIT evaluates templates over the analysis' dimensions, fills in
// res.Reports, and emits URLs for the informative ones.
func (s *Surfacer) runISIT(ctx context.Context, res *Result) {
	dims := res.Analysis.Dimensions
	if len(dims) == 0 {
		return
	}
	type tmpl struct {
		sel  []int // dimension indices, ascending
		eval TemplateEval
	}
	var informative []tmpl

	evalSel := func(sel []int) (TemplateEval, bool) {
		return s.evalTemplate(ctx, res.Analysis.Form, dims, sel)
	}

	report := func(sel []int, eval TemplateEval, ok bool) int {
		names := make([]string, len(sel))
		for i, d := range sel {
			names[i] = dims[d].Name
		}
		res.Reports = append(res.Reports, TemplateReport{Dims: names, Eval: eval, Informative: ok})
		return len(res.Reports) - 1
	}

	// Level 1: singletons.
	for d := range dims {
		eval, budgetOK := evalSel([]int{d})
		ok := budgetOK && s.informative(eval)
		report([]int{d}, eval, ok)
		if ok {
			informative = append(informative, tmpl{sel: []int{d}, eval: eval})
		}
	}

	// Levels 2..MaxTemplateSize: extend informative templates with a
	// higher-indexed dimension (canonical order avoids duplicates).
	frontier := informative
	for size := 2; size <= s.Cfg.MaxTemplateSize; size++ {
		var next []tmpl
		for _, t := range frontier {
			last := t.sel[len(t.sel)-1]
			for d := last + 1; d < len(dims); d++ {
				sel := append(append([]int(nil), t.sel...), d)
				eval, budgetOK := evalSel(sel)
				// An extension must stay informative; under
				// StrictExtension it must also add distinctions over
				// its parent — otherwise the extra input is noise
				// multiplying URLs.
				ok := budgetOK && s.informative(eval)
				if ok && s.Cfg.StrictExtension {
					ok = eval.Distinct > t.eval.Distinct
				}
				report(sel, eval, ok)
				if ok {
					next = append(next, tmpl{sel: sel, eval: eval})
				}
			}
		}
		informative = append(informative, next...)
		frontier = next
	}

	// Emission: smaller templates first (they dominate coverage per
	// URL), then by evaluated distinctness.
	sort.SliceStable(informative, func(i, j int) bool {
		if len(informative[i].sel) != len(informative[j].sel) {
			return len(informative[i].sel) < len(informative[j].sel)
		}
		return informative[i].eval.Distinct > informative[j].eval.Distinct
	})
	seen := map[string]bool{}
	for _, t := range informative {
		if s.Cfg.Indexability && !s.indexable(t.eval) {
			continue
		}
		count := 0
		for _, b := range enumerate(dims, t.sel) {
			if len(res.URLs) >= s.Cfg.URLBudget {
				break
			}
			u := res.Analysis.Form.SubmitURL(b)
			if u == "" || seen[u] {
				continue
			}
			seen[u] = true
			res.URLs = append(res.URLs, u)
			count++
		}
		// Mark the matching report emitted.
		for i := range res.Reports {
			if sameSel(res.Reports[i].Dims, dims, t.sel) {
				res.Reports[i].Emitted = count > 0
				res.Reports[i].URLCount = count
			}
		}
	}
}

// informative applies the distinctness test.
func (s *Surfacer) informative(e TemplateEval) bool {
	if e.Sampled == 0 {
		return false
	}
	if e.Distinct < 2 && e.Sampled > 1 {
		return false
	}
	// A template whose sampled pages are all empty retrieves nothing.
	if e.ZeroPages == e.Sampled {
		return false
	}
	return e.DistinctRatio() >= s.Cfg.InformativenessThreshold
}

// indexable applies the §5.2 emission criterion: average items per
// sampled page within the target band.
func (s *Surfacer) indexable(e TemplateEval) bool {
	if e.AvgItems > float64(s.Cfg.TargetResultsMax) {
		return false
	}
	// Below the minimum only if essentially every page was empty.
	nonZero := e.Sampled - e.ZeroPages
	return nonZero > 0 && float64(e.Sampled-e.ZeroPages) >= 0.1*float64(e.Sampled)*float64(s.Cfg.TargetResultsMin)
}

// evalTemplate probes a deterministic sample of the template's
// submissions. The bool result is false only when the probe budget ran
// out mid-evaluation or the run was canceled — the two conditions that
// should end the whole template search. An unprobeable binding (POST
// form) aborts just this template's evaluation with budgetOK=true, and
// a transient fetch failure skips just that submission, so neither
// starves the remaining templates of probes they are still entitled
// to.
func (s *Surfacer) evalTemplate(ctx context.Context, f *form.Form, dims []Dimension, sel []int) (TemplateEval, bool) {
	all := enumerate(dims, sel)
	if len(all) == 0 {
		return TemplateEval{}, true
	}
	sample := sampleBindings(all, s.Cfg.SampleSize)
	var eval TemplateEval
	s.sigbuf = s.sigbuf[:0]
	totalItems := 0
	for _, b := range sample {
		obs, err := s.prober.probe(ctx, f, b)
		if stopProbing(err) {
			return eval, false
		}
		if errors.Is(err, errUnprobeable) {
			// Form-level condition: no binding of this template can be
			// submitted. Report it uninformative (Sampled stays 0 for a
			// fresh template), not budget-starved.
			return TemplateEval{}, true
		}
		if err != nil {
			continue // this one submission failed; sample the rest
		}
		eval.Sampled++
		s.sigbuf = append(s.sigbuf, obs.sig)
		totalItems += obs.items
		if obs.items == 0 {
			eval.ZeroPages++
		}
	}
	eval.Distinct = textutil.DistinctSignatures(s.sigbuf)
	if eval.Sampled > 0 {
		eval.AvgItems = float64(totalItems) / float64(eval.Sampled)
	}
	return eval, true
}

// enumerate lists every binding of the selected dimensions, in
// lexicographic value order — the template's full URL space.
func enumerate(dims []Dimension, sel []int) []form.Binding {
	total := 1
	for _, d := range sel {
		total *= len(dims[d].Values)
		if total > 1<<20 { // hard safety cap; budget trims later anyway
			total = 1 << 20
			break
		}
	}
	out := make([]form.Binding, 0, total)
	idx := make([]int, len(sel))
	for {
		b := form.Binding{}
		for i, d := range sel {
			dim := dims[d]
			row := dim.Values[idx[i]]
			for j, input := range dim.Inputs {
				b[input] = row[j]
			}
		}
		out = append(out, b)
		if len(out) >= total {
			break
		}
		// Odometer increment.
		k := len(sel) - 1
		for k >= 0 {
			idx[k]++
			if idx[k] < len(dims[sel[k]].Values) {
				break
			}
			idx[k] = 0
			k--
		}
		if k < 0 {
			break
		}
	}
	return out
}

// sampleBindings picks up to k bindings evenly spaced across the
// enumeration — deterministic, spread over the value space.
func sampleBindings(all []form.Binding, k int) []form.Binding {
	if len(all) <= k {
		return all
	}
	out := make([]form.Binding, 0, k)
	step := float64(len(all)) / float64(k)
	for i := 0; i < k; i++ {
		out = append(out, all[int(float64(i)*step)])
	}
	return out
}

func sameSel(names []string, dims []Dimension, sel []int) bool {
	if len(names) != len(sel) {
		return false
	}
	for i, d := range sel {
		if names[i] != dims[d].Name {
			return false
		}
	}
	return true
}

func mustParse(raw string) *url.URL {
	u, err := url.Parse(raw)
	if err != nil {
		return nil
	}
	return u
}
