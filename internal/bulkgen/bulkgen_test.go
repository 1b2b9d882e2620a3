package bulkgen

import (
	"fmt"
	"strings"
	"testing"

	"deepweb/internal/datagen"
	"deepweb/internal/index"
)

func drain(t *testing.T, src *Source) []Doc {
	t.Helper()
	var out []Doc
	for {
		d, anns, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, Doc{Doc: d, Anns: anns})
	}
}

func docsEqual(a, b Doc) bool {
	if a.Doc != b.Doc || len(a.Anns) != len(b.Anns) {
		return false
	}
	for k, v := range a.Anns {
		if b.Anns[k] != v {
			return false
		}
	}
	return true
}

// The determinism contract the bulk build relies on: the same seed
// yields a byte-identical document stream for any worker count.
func TestSourceDeterministicAcrossWorkers(t *testing.T) {
	spec := Spec{Seed: 42, Docs: 5000, Sites: 7, BlockSize: 256}
	var ref []Doc
	for _, workers := range []int{1, 4, 16} {
		w, err := NewWorld(spec)
		if err != nil {
			t.Fatal(err)
		}
		got := drain(t, w.Source(workers))
		if len(got) != spec.Docs {
			t.Fatalf("workers=%d: got %d docs, want %d", workers, len(got), spec.Docs)
		}
		if ref == nil {
			ref = got
			continue
		}
		for i := range ref {
			if !docsEqual(ref[i], got[i]) {
				t.Fatalf("workers=%d: doc %d differs:\n  ref: %+v\n  got: %+v", workers, i, ref[i], got[i])
			}
		}
	}
}

func TestGenBlockPureAndSeedSensitive(t *testing.T) {
	w, err := NewWorld(Spec{Seed: 7, Docs: 2000, Sites: 3, BlockSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	ref := BlockRef{Site: 1, Block: 2}
	a := w.GenBlock(ref, nil)
	b := w.GenBlock(ref, nil)
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("block lengths differ or empty: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !docsEqual(a[i], b[i]) {
			t.Fatalf("GenBlock not pure at row %d", i)
		}
	}
	w2, err := NewWorld(Spec{Seed: 8, Docs: 2000, Sites: 3, BlockSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	c := w2.GenBlock(ref, nil)
	same := 0
	for i := range a {
		if docsEqual(a[i], c[i]) {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced an identical block")
	}
}

func TestWorldLayout(t *testing.T) {
	w, err := NewWorld(Spec{Seed: 1, Docs: 10, Sites: 3, BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	// 10 docs over 3 sites: 4+3+3.
	total := 0
	urls := map[string]bool{}
	for _, d := range drain(t, w.Source(2)) {
		total++
		if urls[d.Doc.URL] {
			t.Fatalf("duplicate URL %q", d.Doc.URL)
		}
		urls[d.Doc.URL] = true
		if d.Doc.Source == "" || !strings.HasPrefix(d.Doc.URL, "http://"+d.Doc.Source) {
			t.Fatalf("URL %q not on its source host %q", d.Doc.URL, d.Doc.Source)
		}
		if d.Doc.Title == "" || d.Doc.Text == "" {
			t.Fatalf("empty title or text: %+v", d)
		}
		if len(d.Anns) == 0 {
			t.Fatalf("doc %q has no annotations", d.Doc.URL)
		}
	}
	if total != 10 {
		t.Fatalf("got %d docs, want 10", total)
	}
	if _, err := NewWorld(Spec{Seed: 1}); err == nil {
		t.Fatal("NewWorld accepted Docs=0")
	}
}

// Zipf head-heaviness: the most common make must dominate a uniform
// share, and correlated columns must stay aligned.
func TestDistributionsSkewedAndCorrelated(t *testing.T) {
	w, err := NewWorld(Spec{Seed: 11, Docs: 4000, Sites: 1})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, d := range drain(t, w.Source(4)) {
		mk, model := d.Anns["make"], d.Anns["model"]
		if mk == "" || model == "" {
			t.Fatalf("usedcars doc missing make/model: %v", d.Anns)
		}
		counts[mk]++
		if !modelBelongsToMake(mk, model) {
			t.Fatalf("model %q not a %s model", model, mk)
		}
	}
	best, total := 0, 0
	for _, c := range counts {
		total += c
		if c > best {
			best = c
		}
	}
	if best*len(counts) < 2*total {
		t.Fatalf("head make has %d/%d across %d makes — not Zipf-skewed", best, total, len(counts))
	}
}

func modelBelongsToMake(mk, model string) bool {
	for i, m := range datagen.CarMakes {
		if m == mk {
			for _, cand := range datagen.CarModels[i] {
				if cand == model {
					return true
				}
			}
			return false
		}
	}
	return false
}

func TestTailWordStable(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < tailVocabSize; i += 997 {
		word := tailWord(i)
		if word != tailWord(i) {
			t.Fatalf("tailWord(%d) unstable", i)
		}
		if seen[word] {
			t.Fatalf("tailWord collision at %d: %q", i, word)
		}
		seen[word] = true
	}
	if got := tailWord(3 + tailVocabSize); got != tailWord(3) {
		t.Fatalf("tailWord wrap mismatch: %q vs %q", got, tailWord(3))
	}
}

// Ensure the source closes cleanly when abandoned mid-stream.
func TestSourceCloseEarly(t *testing.T) {
	w, err := NewWorld(Spec{Seed: 3, Docs: 100000, Sites: 4, BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	src := w.Source(8)
	for i := 0; i < 10; i++ {
		if _, _, ok := src.Next(); !ok {
			t.Fatal("stream ended too early")
		}
	}
	src.Close()
	src.Close() // idempotent
}

func ExampleWorld_Source() {
	w, _ := NewWorld(Spec{Seed: 1, Docs: 3, Sites: 1})
	src := w.Source(2)
	var d index.Doc
	n := 0
	for {
		doc, _, ok := src.Next()
		if !ok {
			break
		}
		d = doc
		n++
	}
	fmt.Println(n, d.Source)
	// Output: 3 bulk-usedcars-000.example
}
