package workload

import (
	"fmt"
	"math/rand"

	"deepweb/internal/core"
	"deepweb/internal/datagen"
	"deepweb/internal/dist"
	"deepweb/internal/textutil"
)

// Query-pool side of the workload model: where workload.go models which
// *forms* power-law traffic lands on (E1's analytic arm), this file
// produces the concrete query strings a load generator replays against
// the serving tier. The strings are built from the same datagen
// vocabularies the synthetic web is generated from, so head-of-pool
// queries actually hit surfaced documents rather than scoring zero.

// queryTemplates are the shapes QueryPool cycles through, mirroring the
// verticals of the synthetic web (vehicles, real estate, jobs, recipes,
// library). Each is a function of a seeded rng so the combinatorial
// space stays large enough to fill big pools without repeats.
var queryTemplates = []func(r *rand.Rand) string{
	func(r *rand.Rand) string {
		mi := r.Intn(len(datagen.CarMakes))
		return fmt.Sprintf("used %s %s", datagen.CarMakes[mi],
			datagen.CarModels[mi][r.Intn(len(datagen.CarModels[mi]))])
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf("homes in %s", datagen.USCities[r.Intn(len(datagen.USCities))])
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf("%s jobs in %s",
			datagen.JobTitles[r.Intn(len(datagen.JobTitles))],
			datagen.USCities[r.Intn(len(datagen.USCities))])
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf("%s %s recipe",
			datagen.Cuisines[r.Intn(len(datagen.Cuisines))],
			datagen.Dishes[r.Intn(len(datagen.Dishes))])
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf("%s books", datagen.BookSubjects[r.Intn(len(datagen.BookSubjects))])
	},
	func(r *rand.Rand) string {
		mi := r.Intn(len(datagen.CarMakes))
		return fmt.Sprintf("%s %s %s in %s",
			datagen.NoteWords[r.Intn(len(datagen.NoteWords))],
			datagen.CarMakes[mi],
			datagen.CarModels[mi][r.Intn(len(datagen.CarModels[mi]))],
			datagen.USCities[r.Intn(len(datagen.USCities))])
	},
}

// QueryPool returns n distinct query strings, deterministic in seed.
// Index order is the pool's popularity rank order (rank 0 first); a
// Zipfian sampler over indices therefore concentrates traffic on the
// pool's head exactly as search traffic concentrates on head queries.
func QueryPool(seed int64, n int) []string {
	if n <= 0 {
		return nil
	}
	r := rand.New(rand.NewSource(seed))
	pool := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; len(pool) < n; i++ {
		q := queryTemplates[i%len(queryTemplates)](r)
		if seen[q] {
			continue
		}
		seen[q] = true
		pool = append(pool, q)
	}
	return pool
}

// filteredQueryTemplates are the filtered-query shapes
// QueryPoolFiltered splices in: a keyword query plus one typed
// predicate in the in-query DSL of internal/query ("price<9900",
// "year:1990..2000"), so the same string drives both /v1/search?q=
// and an in-process query.Extract + engine.Search. price() and year()
// draw from the core typed-value ladders.
var filteredQueryTemplates = []func(r *rand.Rand, price, year func() string) string{
	func(r *rand.Rand, price, _ func() string) string {
		return fmt.Sprintf("used %s price<%s",
			datagen.CarMakes[r.Intn(len(datagen.CarMakes))], price())
	},
	func(r *rand.Rand, price, _ func() string) string {
		return fmt.Sprintf("homes in %s price<%s",
			datagen.USCities[r.Intn(len(datagen.USCities))], price())
	},
	func(r *rand.Rand, _, year func() string) string {
		y1, y2 := year(), year()
		if y1 > y2 { // 4-digit years order lexically
			y1, y2 = y2, y1
		}
		return fmt.Sprintf("%s books year:%s..%s",
			datagen.BookSubjects[r.Intn(len(datagen.BookSubjects))], y1, y2)
	},
	func(r *rand.Rand, price, _ func() string) string {
		return fmt.Sprintf("%s jobs salary>=%s",
			datagen.JobTitles[r.Intn(len(datagen.JobTitles))], price())
	},
	func(r *rand.Rand, _, year func() string) string {
		mi := r.Intn(len(datagen.CarMakes))
		return fmt.Sprintf("used %s %s year>%s", datagen.CarMakes[mi],
			datagen.CarModels[mi][r.Intn(len(datagen.CarModels[mi]))], year())
	},
}

// QueryPoolFiltered is QueryPool with a fraction frac of the pool
// replaced by filtered queries: keywords plus one typed predicate whose
// value is drawn Zipfian from the core typed-value ladders, so filter
// values are head-heavy the way real structured traffic is. frac = 0
// returns exactly QueryPool(seed, n). Replacements spread evenly
// across popularity ranks, so filtered traffic shows up at the head and the tail alike.
func QueryPoolFiltered(seed int64, n int, frac float64) []string {
	pool := QueryPool(seed, n)
	nf := int(frac*float64(n) + 0.5)
	if nf <= 0 || len(pool) == 0 {
		return pool
	}
	if nf > n {
		nf = n
	}
	r := rand.New(rand.NewSource(seed + 1))
	prices := core.TypedValues(textutil.TypePrice, 12)
	years := core.TypedValues(textutil.TypeDate, 12)
	zPrice := dist.NewZipf(seed+2, 1.05, uint64(len(prices)))
	zYear := dist.NewZipf(seed+3, 1.05, uint64(len(years)))
	price := func() string { return prices[zPrice.Next()] }
	year := func() string { return years[zYear.Next()] }
	seen := make(map[string]bool, n)
	for _, q := range pool {
		seen[q] = true
	}
	for i := 0; i < nf; i++ {
		var q string
		for t := i; ; t++ {
			q = filteredQueryTemplates[t%len(filteredQueryTemplates)](r, price, year)
			if !seen[q] {
				break
			}
		}
		seen[q] = true
		pool[i*n/nf] = q
	}
	return pool
}
