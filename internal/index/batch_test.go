package index

import (
	"fmt"
	"testing"
)

func batchDocs(n int) []Doc {
	docs := make([]Doc, n)
	for i := range docs {
		docs[i] = Doc{
			URL:    fmt.Sprintf("http://s%d.example/r?id=%d", i%3, i),
			Title:  fmt.Sprintf("doc %d ford", i),
			Text:   fmt.Sprintf("used ford focus %d excellent condition austin texas", i),
			Source: fmt.Sprintf("s%d.example", i%3),
		}
	}
	return docs
}

// Batch commits must leave the index in exactly the state sequential
// AddPrepared commits produce: same exported shards, docs, and stats.
func TestAddPreparedBatchEquivalentToSequential(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			docs := batchDocs(100)
			// A duplicate URL inside the batch and one already present.
			docs[50].URL = docs[10].URL
			seq := NewSharded(shards)
			seqPre, _ := seq.Add(Doc{URL: "pre.example", Title: "pre", Text: "existing doc"})
			var wantIDs []int
			var wantAdded []bool
			for _, d := range docs {
				id, ok := seq.AddPrepared(Prepare(d))
				wantIDs = append(wantIDs, id)
				wantAdded = append(wantAdded, ok)
			}

			bat := NewSharded(shards)
			batPre, _ := bat.Add(Doc{URL: "pre.example", Title: "pre", Text: "existing doc"})
			if batPre != seqPre {
				t.Fatal("setup mismatch")
			}
			ps := make([]*Prepared, len(docs))
			for i, d := range docs {
				ps[i] = Prepare(d)
			}
			ids, added := bat.AddPreparedBatch(ps)
			for i := range docs {
				if ids[i] != wantIDs[i] || added[i] != wantAdded[i] {
					t.Fatalf("doc %d: batch (%d,%v), sequential (%d,%v)", i, ids[i], added[i], wantIDs[i], wantAdded[i])
				}
			}

			// Whole-index equivalence: exported docs and every shard's
			// sorted term/postings dump must match. Shard layout is
			// seed-dependent per index, so compare the union of shards.
			sd, sl, _ := seq.ExportDocs()
			bd, bl, _ := bat.ExportDocs()
			if len(sd) != len(bd) {
				t.Fatalf("doc counts differ: %d vs %d", len(sd), len(bd))
			}
			for i := range sd {
				if sd[i] != bd[i] || sl[i] != bl[i] {
					t.Fatalf("doc %d differs", i)
				}
			}
			if got, want := dumpTerms(bat, shards), dumpTerms(seq, shards); got != want {
				t.Fatalf("postings differ:\nbatch: %.300s\nseq:   %.300s", got, want)
			}

			// Ranking equivalence on a few probes.
			for _, q := range []string{"ford", "focus excellent", "austin"} {
				a := search(seq, q, 10)
				b := search(bat, q, 10)
				if len(a) != len(b) {
					t.Fatalf("query %q: %d vs %d results", q, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("query %q result %d: %+v vs %+v", q, i, a[i], b[i])
					}
				}
			}
		})
	}
}

// dumpTerms renders every term's posting list (terms sorted across all
// shards) so two indexes can be compared independent of shard layout.
func dumpTerms(ix *Index, shards int) string {
	all := map[string][]Posting{}
	for si := 0; si < shards; si++ {
		for _, tp := range ix.ExportShard(si) {
			all[tp.Term] = append(all[tp.Term], tp.Postings...)
		}
	}
	keys := make([]string, 0, len(all))
	for k := range all {
		keys = append(keys, k)
	}
	sortStrings(keys)
	out := ""
	for _, k := range keys {
		out += k
		for _, p := range all[k] {
			out += fmt.Sprintf(" %d:%d", p.Doc, p.TF)
		}
		out += "\n"
	}
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestAddPreparedBatchEmpty(t *testing.T) {
	ix := New()
	ids, added := ix.AddPreparedBatch(nil)
	if len(ids) != 0 || len(added) != 0 {
		t.Fatal("empty batch produced output")
	}
}

func TestPreparedAccessors(t *testing.T) {
	p := Prepare(Doc{URL: "u", Title: "ford focus", Text: "ford excellent"})
	if p.Doc().URL != "u" {
		t.Fatal("Doc accessor")
	}
	// Title tokens count twice in dl: 2 title + 2 text + 2 = 6.
	if p.DocLen() != 6 {
		t.Fatalf("DocLen = %d, want 6", p.DocLen())
	}
	terms, tfs := p.Terms(), p.TermFreqs()
	if len(terms) != len(tfs) || len(terms) == 0 {
		t.Fatalf("terms/tfs mismatch: %v %v", terms, tfs)
	}
	var fordTF int32
	for i, tm := range terms {
		if tm == "ford" {
			fordTF = tfs[i]
		}
	}
	if fordTF != 3 { // 2 (title) + 1 (text)
		t.Fatalf("ford tf = %d, want 3", fordTF)
	}
}
