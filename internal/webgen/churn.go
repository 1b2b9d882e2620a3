package webgen

import (
	"math/rand"

	"deepweb/internal/reldb"
)

// Churn: deterministic content mutation for freshness experiments. The
// paper stresses that deep-web content changes under the crawler —
// surfaced pages go stale — so the synthetic web needs a way to age.
// Churn applies a reproducible mix of row updates, deletes and inserts
// so two worlds built from the same config and churned with the same
// seed end up byte-identical, which is what lets the refresh pipeline
// be property-tested against a from-scratch surface of the mutated
// world.

// Churn applies n random row mutations across the whole web, each to
// a site drawn from one seeded stream, so some sites may take several
// and others none. Sites are drawn from in host order, so the result is
// a pure function of (web state, n, seed).
func Churn(w *Web, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	sites := w.Sites()
	if len(sites) == 0 {
		return
	}
	for range n {
		ChurnSite(sites[rng.Intn(len(sites))], 1, rng)
	}
}

// ChurnSite applies n random mutations to one site's table: updates
// (one cell takes another row's value for that column, so the column's
// value domain is preserved), deletes, and inserts (a near-clone of an
// existing row with one cell borrowed from another). All three go
// through the validated reldb mutation API.
func ChurnSite(s *Site, n int, rng *rand.Rand) {
	t := s.Table
	for k := 0; k < n; k++ {
		if t.Len() == 0 {
			return
		}
		switch op := rng.Intn(4); {
		case op == 0 && t.Len() > 1:
			// Delete, but never empty the table: a site with no records
			// is a dead site, not a churned one.
			t.Delete(rng.Intn(t.Len()))
		case op == 1:
			t.Insert(crossRow(t, rng))
		default:
			t.Update(rng.Intn(t.Len()), crossRow(t, rng))
		}
	}
}

// crossRow builds a valid row by cloning a random row and replacing one
// cell with the same column's value from another random row.
func crossRow(t *reldb.Table, rng *rand.Rand) reldb.Row {
	src := t.Row(rng.Intn(t.Len()))
	row := append(reldb.Row(nil), src...)
	donor := t.Row(rng.Intn(t.Len()))
	col := rng.Intn(len(row))
	row[col] = donor[col]
	return row
}
