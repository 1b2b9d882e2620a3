// Package outside exercises the out-of-engine half of epochsafe: any
// mutator call is flagged, reads are not, and a bare never-cached index
// can opt out with a reasoned allow directive.
package outside

import "index"

func Mutate(ix *index.Index, d index.Doc) {
	ix.Add(d)           // want `index\.Index\.Add called outside internal/engine`
	ix.Annotate(0, nil) // want `index\.Index\.Annotate called outside internal/engine`
	ix.Delete(d.URL)    // want `index\.Index\.Delete called outside internal/engine`
}

func Read(ix *index.Index) bool {
	_ = ix.TopK("q")         // ok: read-only
	return ix.Has("http://") // ok: read-only
}

func BareExperiment(d index.Doc) {
	ix := index.New()
	//deepvet:allow epochsafe -- bare pre-engine index; no result cache can ever be armed on it
	ix.Add(d)
}
