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
