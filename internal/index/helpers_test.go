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
