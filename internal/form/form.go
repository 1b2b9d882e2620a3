// Package form turns syntactic form declarations (internal/htmlx) into
// the semantic model the surfacing engine and the mediator both consume:
// which controls are bindable, what their value domains are, and how a
// concrete binding becomes a submission URL.
//
// The model deliberately stops short of interpreting what inputs *mean* —
// per the paper (§4), surfacing needs input data types and input
// correlations, not form semantics; those analyses live in internal/core.
package form

import (
	"fmt"
	"net/url"
	"strings"

	"deepweb/internal/htmlx"
)

// InputKind classifies a form control by how it can be bound.
type InputKind uint8

// Input kinds. TextBox covers <input type=text|search|number> and
// <textarea>; SelectMenu covers <select>; Hidden inputs are submitted
// with their fixed value; Unbindable covers submit/button/checkbox
// controls the surfacer leaves alone.
const (
	TextBox InputKind = iota
	SelectMenu
	Hidden
	Unbindable
)

func (k InputKind) String() string {
	switch k {
	case TextBox:
		return "textbox"
	case SelectMenu:
		return "select"
	case Hidden:
		return "hidden"
	default:
		return "unbindable"
	}
}

// Input is one named control of a form.
type Input struct {
	Name    string
	Kind    InputKind
	Label   string   // human label, when the page provided one
	Options []string // select-menu values, excluding the empty "any" option
	// HasEmpty records whether the select offered an empty/wildcard
	// option; submitting it means "unconstrained".
	HasEmpty bool
	Default  string // default/hidden value
}

// Form is a fully-resolved, submittable form.
type Form struct {
	// ID uniquely identifies the form within an experiment run
	// (host + action path + index on page).
	ID     string
	Site   string // host that served the page
	Action *url.URL
	Method string // "get" or "post"
	Inputs []Input
}

// FromDecl resolves a declaration extracted at base into a Form.
// Unnamed controls and buttons are classified Unbindable but retained so
// indices line up with the page.
func FromDecl(base *url.URL, d htmlx.FormDecl, idx int) (*Form, error) {
	if base == nil {
		return nil, fmt.Errorf("form: nil base URL")
	}
	actionURL, err := url.Parse(d.Action)
	if err != nil {
		return nil, fmt.Errorf("form: bad action %q: %w", d.Action, err)
	}
	f := &Form{
		ID:     fmt.Sprintf("%s%s#%d", base.Host, base.ResolveReference(actionURL).Path, idx),
		Site:   base.Host,
		Action: base.ResolveReference(actionURL),
		Method: strings.ToLower(d.Method),
	}
	if f.Method == "" {
		f.Method = "get"
	}
	for _, in := range d.Inputs {
		f.Inputs = append(f.Inputs, classify(in))
	}
	return f, nil
}

func classify(in htmlx.InputDecl) Input {
	out := Input{Name: in.Name, Label: in.Label, Default: in.Value}
	switch in.Kind {
	case "select":
		out.Kind = SelectMenu
		for _, o := range in.Options {
			if strings.TrimSpace(o.Value) == "" {
				out.HasEmpty = true
				continue
			}
			out.Options = append(out.Options, o.Value)
		}
	case "text", "search", "number", "textarea", "":
		out.Kind = TextBox
	case "hidden":
		out.Kind = Hidden
	default: // submit, button, checkbox, radio, reset, image...
		out.Kind = Unbindable
	}
	if in.Name == "" {
		out.Kind = Unbindable
	}
	return out
}

// Bindable returns the inputs a surfacer may assign values to: named
// text boxes and select menus.
func (f *Form) Bindable() []Input {
	var out []Input
	for _, in := range f.Inputs {
		if in.Kind == TextBox || in.Kind == SelectMenu {
			out = append(out, in)
		}
	}
	return out
}

// Binding assigns concrete values to a subset of a form's inputs.
// Inputs absent from the binding are submitted empty (text boxes) or as
// their wildcard option (selects) — exactly what a browser sends when a
// user leaves them untouched.
type Binding map[string]string

// SubmitURL renders the GET submission URL for a binding: hidden inputs
// carry their fixed values, bound inputs their assigned values, unbound
// bindable inputs empty strings. Parameter order is canonicalized
// (url.Values.Encode sorts by key) so URL equality is binding equality.
// POST forms have no surfaceable URL; SubmitURL returns "" for them
// (paper §3.2: "surfacing cannot be applied to HTML forms that use the
// POST method").
func (f *Form) SubmitURL(b Binding) string {
	if f.Method != "get" {
		return ""
	}
	q := f.values(b)
	u := *f.Action
	u.RawQuery = q.Encode()
	return u.String()
}

// PostBody renders the application/x-www-form-urlencoded body for a POST
// submission with the given binding; the mediator uses this (it can
// query POST forms even though the surfacer cannot index them).
func (f *Form) PostBody(b Binding) string {
	return f.values(b).Encode()
}

func (f *Form) values(b Binding) url.Values {
	q := url.Values{}
	for _, in := range f.Inputs {
		switch in.Kind {
		case Hidden:
			q.Set(in.Name, in.Default)
		case TextBox, SelectMenu:
			if v, ok := b[in.Name]; ok {
				q.Set(in.Name, v)
			} else {
				q.Set(in.Name, "")
			}
		}
	}
	return q
}

// Clone returns an independent copy of the binding.
func (b Binding) Clone() Binding {
	c := make(Binding, len(b))
	for k, v := range b {
		c[k] = v
	}
	return c
}
