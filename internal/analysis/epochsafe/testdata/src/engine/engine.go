// Package engine exercises the in-engine half of epochsafe: a mutation
// is legal when the function bumps the epoch itself or carries a
// //deepvet:epoch marker naming the pass that bumps.
package engine

import "index"

type Engine struct {
	Index *index.Index
	epoch uint64
}

func (e *Engine) bumpEpoch() { e.epoch++ }

// AddDoc bumps the epoch itself.
func (e *Engine) AddDoc(d index.Doc) {
	e.Index.Add(d) // ok: bumpEpoch called below
	e.bumpEpoch()
}

// Remove shows call order does not matter — the bump anywhere in the
// function satisfies the contract.
func (e *Engine) Remove(url string) {
	e.bumpEpoch()
	e.Index.Delete(url) // ok: bumpEpoch called above
}

// commit drains a staging buffer into the index.
//
//deepvet:epoch -- only called from commitOutcome, which bumps after every commit
func (e *Engine) commit(docs []index.Doc) {
	for _, d := range docs {
		e.Index.Add(d) // ok: marker names the bumping caller
	}
}

// sneaky mutates with neither a bump nor a marker.
func (e *Engine) sneaky(d index.Doc) {
	e.Index.Add(d)    // want `sneaky mutates the index but neither calls bumpEpoch`
	e.Index.TopK("q") // ok: read-only
}

// reindex shows every mutator is covered, not just Add.
func (e *Engine) reindex(docs []index.Doc) {
	e.Index.Compact()            // want `reindex mutates the index but neither calls bumpEpoch`
	_ = e.Index.ImportDocs(docs) // want `reindex mutates the index but neither calls bumpEpoch`
}
