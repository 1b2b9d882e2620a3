// Package webgen generates the synthetic deep web the experiments run
// against: sites backed by reldb tables, each serving a homepage, an
// HTML search form, result pages with paging, and per-record detail
// pages, over an in-process virtual internet (no sockets).
//
// Each site carries ground-truth metadata (which column backs which
// input, what type an input is, which input pairs form a range) that the
// paper's algorithms must *rediscover* from HTML alone; experiments
// score them against this truth.
package webgen

import "fmt"

// Op is the query semantics of one form input, as implemented by the
// site's back end.
type Op uint8

// Input operations.
const (
	// OpEq filters rows whose column equals the submitted value.
	OpEq Op = iota
	// OpRangeMin filters rows whose int column is ≥ the value.
	OpRangeMin
	// OpRangeMax filters rows whose int column is ≤ the value.
	OpRangeMax
	// OpKeyword filters rows containing all submitted words anywhere in
	// their text (a site "search box", §4.1).
	OpKeyword
)

func (o Op) String() string {
	switch o {
	case OpEq:
		return "eq"
	case OpRangeMin:
		return "rangemin"
	case OpRangeMax:
		return "rangemax"
	case OpKeyword:
		return "keyword"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Control is the HTML control rendered for an input.
type Control uint8

// Control kinds.
const (
	ControlText Control = iota
	ControlSelect
)

// InputSpec declares one input of a site's search form.
type InputSpec struct {
	Name    string // HTML input name
	Label   string // rendered <label>
	Column  string // backing table column ("" for OpKeyword = all columns)
	Control Control
	Op      Op
	// TypeHint is ground truth for the typed-input experiments (E5):
	// "zipcode", "city", "price", "date", or "" for untyped.
	TypeHint string
	// MaxOptions caps rendered select options (0 = all distinct values).
	MaxOptions int
	// KeywordCols restricts an OpKeyword input to named columns; empty
	// means the whole row (a catalog site searches titles and
	// descriptions, not its own catalog label).
	KeywordCols []string
}

// SiteSpec declares a whole site.
type SiteSpec struct {
	Host   string // virtual host name, e.g. "usedcars-00.example"
	Domain string // vertical this site belongs to, e.g. "usedcars"
	Title  string
	Method string // "get" or "post" — POST sites are unreachable to the surfacer (§3.2)
	// PageSize is results per page; further results are behind "next"
	// links. It drives the indexability experiment (E9).
	PageSize int
	// RequireBound rejects submissions with no bound inputs (most real
	// sites refuse an empty search).
	RequireBound bool
	// SeedRecords is how many record pages the homepage links directly
	// (the "already indexed pages" seed keywords are drawn from, §4.1).
	SeedRecords int
	Inputs      []InputSpec
	// HeaderAliases renames columns when record tables are rendered
	// (display only; forms and queries are unaffected). Different sites
	// of one vertical naming the same column differently is what gives
	// the §6 synonym service something to find.
	HeaderAliases map[string]string
}

// headerName returns the rendered header for a column.
func (s SiteSpec) headerName(col string) string {
	if alias, ok := s.HeaderAliases[col]; ok {
		return alias
	}
	return col
}

// RangePairs returns the ground-truth (min,max) input-name pairs of the
// form: inputs with OpRangeMin/OpRangeMax over the same column.
func (s SiteSpec) RangePairs() [][2]string {
	var out [][2]string
	for _, a := range s.Inputs {
		if a.Op != OpRangeMin {
			continue
		}
		for _, b := range s.Inputs {
			if b.Op == OpRangeMax && b.Column == a.Column {
				out = append(out, [2]string{a.Name, b.Name})
			}
		}
	}
	return out
}

// TypedInputs returns ground-truth input name → type hint for inputs
// carrying a type.
func (s SiteSpec) TypedInputs() map[string]string {
	out := map[string]string{}
	for _, in := range s.Inputs {
		if in.TypeHint != "" {
			out[in.Name] = in.TypeHint
		}
	}
	return out
}
