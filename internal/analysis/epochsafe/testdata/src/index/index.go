// Package index is a stand-in for the real inverted index: the same
// mutator surface, none of the implementation. The analyzer skips this
// package itself — the implementation mutates freely.
package index

type Doc struct {
	URL  string
	Text string
}

type Index struct {
	docs map[string]int
}

func New() *Index { return &Index{docs: map[string]int{}} }

func (ix *Index) Add(d Doc) (id int, added bool) {
	if _, ok := ix.docs[d.URL]; ok {
		return ix.docs[d.URL], false
	}
	id = len(ix.docs)
	ix.docs[d.URL] = id
	return id, true
}

func (ix *Index) Annotate(id int, anns map[string]string) {}

func (ix *Index) Delete(url string) bool {
	_, ok := ix.docs[url]
	delete(ix.docs, url)
	return ok
}

func (ix *Index) Compact() {}

func (ix *Index) ImportDocs(docs []Doc) error { return nil }

// TopK is read-only: callable from anywhere.
func (ix *Index) TopK(q string) []int { return nil }

// Has is read-only.
func (ix *Index) Has(url string) bool { _, ok := ix.docs[url]; return ok }
