package workload

import (
	"reflect"
	"strings"
	"testing"

	"deepweb/internal/query"
)

func TestQueryPoolDeterministicAndDistinct(t *testing.T) {
	a := QueryPool(7, 500)
	b := QueryPool(7, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different pools")
	}
	if len(a) != 500 {
		t.Fatalf("pool size %d, want 500", len(a))
	}
	seen := map[string]bool{}
	for _, q := range a {
		if seen[q] {
			t.Fatalf("duplicate query %q", q)
		}
		seen[q] = true
		if strings.TrimSpace(q) == "" {
			t.Fatal("empty query in pool")
		}
	}
	if c := QueryPool(8, 500); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical pools")
	}
	if QueryPool(7, 0) != nil {
		t.Fatal("n=0 should return nil")
	}
}

func TestQueryPoolFiltered(t *testing.T) {
	// frac = 0 is the unfiltered pool exactly.
	if !reflect.DeepEqual(QueryPoolFiltered(7, 500, 0), QueryPool(7, 500)) {
		t.Fatal("frac=0 diverged from QueryPool")
	}
	a := QueryPoolFiltered(7, 500, 0.25)
	if !reflect.DeepEqual(a, QueryPoolFiltered(7, 500, 0.25)) {
		t.Fatal("same seed produced different filtered pools")
	}
	filtered, seen := 0, map[string]bool{}
	for _, q := range a {
		if seen[q] {
			t.Fatalf("duplicate query %q", q)
		}
		seen[q] = true
		text, preds := query.Extract(q)
		if strings.TrimSpace(text) == "" {
			t.Fatalf("query %q has no keyword text", q)
		}
		if len(preds) > 0 {
			filtered++
		}
	}
	// 0.25 * 500 = 125 replacements; every replacement carries exactly
	// the predicates its template wrote, and base templates carry none.
	if filtered != 125 {
		t.Fatalf("filtered queries = %d, want 125", filtered)
	}
	// Replacements spread across ranks: some in the head, some in the tail.
	if _, preds := query.Extract(a[0]); len(preds) == 0 {
		t.Error("rank 0 should carry a filter (spread starts at the head)")
	}
	headHalf := 0
	for _, q := range a[:250] {
		if _, preds := query.Extract(q); len(preds) > 0 {
			headHalf++
		}
	}
	if headHalf == 0 || headHalf == filtered {
		t.Errorf("filtered queries not spread: %d of %d in the head half", headHalf, filtered)
	}
}
