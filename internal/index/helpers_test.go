package index

import "context"

// search and annotatedSearch are the tests' shorthand for the first
// unfiltered page under a live context.
func search(ix *Index, q string, k int) []Result {
	hits, _, _ := ix.TopK(context.Background(), q, k, 0, nil)
	return hits
}

func annotatedSearch(ix *Index, q string, k int) []Result {
	hits, _, _ := ix.AnnotatedTopK(context.Background(), q, k, 0, nil)
	return hits
}

// postingsOf returns the posting list of the given doc id, tf pairs.
func postingsOf(docTFs ...int32) PostingList {
	var pl PostingList
	for i := 0; i < len(docTFs); i += 2 {
		pl.Append(docTFs[i], docTFs[i+1])
	}
	return pl
}

// exportDocs returns ix's documents and BM25 lengths, by doc id.
func exportDocs(ix *Index) ([]Doc, []int32) {
	docs := make([]Doc, ix.Len())
	for id := range docs {
		docs[id] = ix.Doc(id)
	}
	return docs, append([]int32(nil), ix.lens...)
}

// exportTables returns ix's annotation tables and document count, in
// the form InstallAnnotations takes.
func exportTables(ix *Index) ([]AnnColumn, []AnnSchema, int) {
	cols, schemas := ix.ExportAnnotations()
	return cols, schemas, ix.Len()
}
