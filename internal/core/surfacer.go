package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"deepweb/internal/form"
	"deepweb/internal/resilient"
	"deepweb/internal/textutil"
	"deepweb/internal/webx"
)

// Dimension is one axis of the query space after correlation analysis:
// a single input with candidate values, or a fused pair (range min+max,
// or database-selector + keyword box) whose values bind both inputs at
// once.
type Dimension struct {
	Name   string     // display name, e.g. "make" or "minprice+maxprice"
	Inputs []string   // 1 or 2 input names
	Values [][]string // each entry aligned with Inputs
}

// TemplateEval summarizes probing a sample of one template's
// submissions.
type TemplateEval struct {
	Sampled   int     // submissions probed
	Distinct  int     // distinct result-page signatures
	ZeroPages int     // pages with no result items
	AvgItems  float64 // mean items per sampled page
}

// DistinctRatio is the informativeness statistic: distinct signatures
// over sampled submissions.
func (e TemplateEval) DistinctRatio() float64 {
	if e.Sampled == 0 {
		return 0
	}
	return float64(e.Distinct) / float64(e.Sampled)
}

// TemplateReport records the decision made about one candidate
// template.
type TemplateReport struct {
	Dims        []string // dimension names bound by the template
	Eval        TemplateEval
	Informative bool
	Emitted     bool // passed indexability + budget and produced URLs
	URLCount    int
}

// Analysis is everything the engine inferred about one form before URL
// generation.
type Analysis struct {
	Form        *form.Form
	PostOnly    bool // the site only offers POST forms: not surfaceable (§3.2)
	Seeds       []string
	TypedInputs map[string]string // input name → confirmed type
	RangePairs  []RangePair
	DBSel       *DBSelection
	Dimensions  []Dimension
}

// Result is the output of surfacing one site.
type Result struct {
	Analysis   Analysis
	Reports    []TemplateReport
	URLs       []string
	ProbesUsed int
}

// Surfacer runs the pipeline. Create one per site or reuse across
// sites; it is not safe for concurrent use.
type Surfacer struct {
	Fetch  *webx.Fetcher
	Cfg    Config
	prober *prober

	// Reusable text-pipeline scratch: every result page the prober
	// harvests keywords from is tokenized through here, so one site's
	// whole analysis shares a single arena and intern table.
	tz     textutil.Tokenizer
	toks   []string
	sigbuf []textutil.Signature
}

// NewSurfacer wires a surfacer to a fetcher.
func NewSurfacer(f *webx.Fetcher, cfg Config) *Surfacer {
	return &Surfacer{Fetch: f, Cfg: cfg}
}

// SurfaceSite analyzes the site whose homepage is at homeURL and
// returns the URLs to insert into the index. It discovers the form by
// following same-host links from the homepage, exactly as a crawler
// that has already indexed the site's surface pages would.
//
// The context cancels the analysis between probe submissions: a
// canceled run stops issuing traffic within one probe round-trip and
// returns ctx.Err() instead of a partial result.
func (s *Surfacer) SurfaceSite(ctx context.Context, homeURL string) (*Result, error) {
	s.prober = &prober{fetch: s.Fetch, budget: s.Cfg.ProbeBudget}
	res := &Result{}

	f, seedTexts, err := s.findForm(ctx, homeURL)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if f == nil {
		res.Analysis.PostOnly = true
		res.ProbesUsed = s.prober.used
		return res, nil
	}
	res.Analysis.Form = f
	res.Analysis.Seeds = SeedKeywords(seedTexts, s.Cfg.SeedKeywords)

	s.buildDimensions(ctx, &res.Analysis)
	s.runISIT(ctx, res)
	res.ProbesUsed = s.prober.used
	// Probing loops treat cancellation like budget exhaustion (settle
	// for what is learned); the caller must see the abort, not a
	// partial result it might commit as complete.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// findForm fetches the homepage, then same-host non-query links, until
// it finds a GET form with bindable inputs. It returns nil (no error)
// when only POST forms exist. The collected page texts double as the
// seed corpus.
func (s *Surfacer) findForm(ctx context.Context, homeURL string) (*form.Form, []string, error) {
	home, err := s.Fetch.GetCtx(ctx, homeURL)
	if err != nil {
		return nil, nil, fmt.Errorf("core: fetch homepage: %w", err)
	}
	if home.Status != 200 {
		// A failing homepage condemns the whole site for this pass, and
		// its class decides what happens next: a transient status (5xx,
		// 429) leaves the site unrecorded so the next refresh heals it;
		// a permanent one records a definitive failure. Without this
		// check a 503 error page would be parsed as a form-less homepage
		// and committed as an empty-but-done site.
		return nil, nil, fmt.Errorf("core: fetch homepage: %w",
			resilient.StatusError(mustParse(homeURL).Host, home.Status))
	}
	s.prober.used++
	texts := []string{home.Text()}
	pages := []*webx.Page{home}
	for _, l := range home.Links() {
		if strings.Contains(l, "?") || !sameHost(l, homeURL) {
			continue
		}
		if s.prober.used >= s.prober.budget || ctx.Err() != nil {
			break
		}
		p, err := s.Fetch.GetCtx(ctx, l)
		if err != nil || p.Status != 200 {
			continue
		}
		s.prober.used++
		texts = append(texts, p.Text())
		pages = append(pages, p)
	}
	for _, p := range pages {
		base := mustParse(p.URL)
		for i, decl := range p.Forms() {
			f, err := form.FromDecl(base, decl, i)
			if err != nil {
				continue
			}
			if f.Method == "get" && len(f.Bindable()) > 0 {
				return f, texts, nil
			}
		}
	}
	return nil, texts, nil
}

// buildDimensions turns the form's inputs into query dimensions,
// applying typed-input recognition and correlation fusion per config.
func (s *Surfacer) buildDimensions(ctx context.Context, a *Analysis) {
	f := a.Form
	a.TypedInputs = map[string]string{}

	// Correlation analysis first: inputs consumed by a fused dimension
	// are excluded from independent treatment.
	fused := map[string]bool{}
	if s.Cfg.RangeAware {
		a.RangePairs = DetectRanges(f)
		for _, rp := range a.RangePairs {
			pairs := RangeValuePairs(rp.Type, 10)
			vals := make([][]string, len(pairs))
			for i, p := range pairs {
				vals[i] = []string{p[0], p[1]}
			}
			a.Dimensions = append(a.Dimensions, Dimension{
				Name:   rp.MinInput + "+" + rp.MaxInput,
				Inputs: []string{rp.MinInput, rp.MaxInput},
				Values: vals,
			})
			fused[rp.MinInput], fused[rp.MaxInput] = true, true
			if rp.Type != "" {
				a.TypedInputs[rp.MinInput] = rp.Type
				a.TypedInputs[rp.MaxInput] = rp.Type
			}
		}
	}
	if s.Cfg.PerDBKeywords {
		if db := DetectDBSelection(f); db != nil {
			if dim, ok := s.dbSelectionDimension(ctx, f, db); ok {
				a.DBSel = db
				a.Dimensions = append(a.Dimensions, dim)
				fused[db.SelectInput], fused[db.TextInput] = true, true
			}
		}
	}

	for _, in := range f.Bindable() {
		if fused[in.Name] {
			continue
		}
		switch in.Kind {
		case form.SelectMenu:
			vals := in.Options
			if len(vals) > s.Cfg.MaxValuesPerInput {
				vals = vals[:s.Cfg.MaxValuesPerInput]
			}
			a.Dimensions = append(a.Dimensions, singleDim(in.Name, vals))
		case form.TextBox:
			if s.Cfg.TypedInputs {
				if typ := textutil.HypothesizeType(in.Name, in.Label); typ != "" {
					if vals, ok := s.confirmType(ctx, f, in.Name, typ); ok {
						a.TypedInputs[in.Name] = typ
						a.Dimensions = append(a.Dimensions, singleDim(in.Name, vals))
						continue
					}
				}
			}
			kws := s.probeSearchBox(ctx, f, in.Name, form.Binding{}, a.Seeds)
			if len(kws) > 0 {
				vals := make([]string, len(kws))
				for i, k := range kws {
					vals[i] = k.kw
				}
				a.Dimensions = append(a.Dimensions, singleDim(in.Name, vals))
			}
		}
	}
	// Deterministic dimension order by name.
	sort.Slice(a.Dimensions, func(i, j int) bool { return a.Dimensions[i].Name < a.Dimensions[j].Name })
}

// confirmType validates a type hypothesis behaviourally: some sampled
// typed values must actually retrieve results. Returns the value list
// to use on success.
func (s *Surfacer) confirmType(ctx context.Context, f *form.Form, inputName, typ string) ([]string, bool) {
	vals := TypedValues(typ, s.Cfg.MaxValuesPerInput)
	hits := 0
	for i, v := range vals {
		if i >= 10 { // sample at most 10 values for confirmation
			break
		}
		obs, err := s.prober.probe(ctx, f, form.Binding{inputName: v})
		if stopProbing(err) || errors.Is(err, errUnprobeable) {
			break
		}
		if err != nil {
			continue // transient failure: try the next value
		}
		if obs.items > 0 {
			hits++
		}
	}
	return vals, hits > 0
}

// dbSelectionDimension builds the fused (catalog, keyword) dimension:
// per-option iterative probing yields per-catalog keyword sets (§4.2).
// It reports ok=false when the per-option keyword sets are essentially
// identical — then the select is not a database selector and the inputs
// are better treated independently.
func (s *Surfacer) dbSelectionDimension(ctx context.Context, f *form.Form, db *DBSelection) (Dimension, bool) {
	opts := db.Options
	if len(opts) > 6 {
		opts = opts[:6]
	}
	perOpt := make([][]keywordInfo, len(opts))
	kwSets := make([]map[string]bool, len(opts))
	// Per-option seeds come from probing the option alone: the option's
	// own result pages are the best description of its catalog.
	for i, opt := range opts {
		obs, err := s.prober.probe(ctx, f, form.Binding{db.SelectInput: opt})
		seeds := []string{}
		if err == nil && obs.items > 0 {
			tv := textutil.TermVector{}
			s.toks = s.tz.ContentTokensInto(s.toks[:0], obs.text)
			for _, tok := range s.toks {
				tv[tok]++
			}
			for _, w := range tv.TopTerms(s.Cfg.SeedKeywords) {
				seeds = append(seeds, w.Term)
			}
		}
		kws := s.probeSearchBox(ctx, f, db.TextInput, form.Binding{db.SelectInput: opt}, seeds)
		perOpt[i] = kws
		kwSets[i] = map[string]bool{}
		for _, k := range kws {
			kwSets[i][k.kw] = true
		}
	}
	// Confirmation: mean pairwise Jaccard of keyword sets must be low.
	if j := meanJaccard(kwSets); j > 0.5 {
		return Dimension{}, false
	}
	dim := Dimension{
		Name:   db.SelectInput + "+" + db.TextInput,
		Inputs: []string{db.SelectInput, db.TextInput},
	}
	perOptCap := s.Cfg.MaxValuesPerInput / max(1, len(opts))
	if perOptCap < 1 {
		perOptCap = 1
	}
	for i, opt := range opts {
		for k, kw := range perOpt[i] {
			if k >= perOptCap {
				break
			}
			dim.Values = append(dim.Values, []string{opt, kw.kw})
		}
	}
	return dim, len(dim.Values) > 0
}

func meanJaccard(sets []map[string]bool) float64 {
	var sum float64
	var n int
	for i := 0; i < len(sets); i++ {
		for j := i + 1; j < len(sets); j++ {
			inter, union := 0, 0
			for k := range sets[i] {
				if sets[j][k] {
					inter++
				}
			}
			union = len(sets[i]) + len(sets[j]) - inter
			if union > 0 {
				sum += float64(inter) / float64(union)
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func singleDim(name string, vals []string) Dimension {
	out := Dimension{Name: name, Inputs: []string{name}}
	for _, v := range vals {
		out.Values = append(out.Values, []string{v})
	}
	return out
}

func sameHost(u, ref string) bool {
	a, b := mustParse(u), mustParse(ref)
	if a == nil || b == nil {
		return false
	}
	return a.Host == b.Host
}
