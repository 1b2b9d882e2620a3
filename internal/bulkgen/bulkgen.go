// Package bulkgen generates million-row synthetic deep-web worlds.
//
// It is the bulk counterpart of webgen/datagen: where those build a few
// hundred rows per site behind live HTTP forms, bulkgen produces raw
// surfaced *documents* at 10⁶ scale, streamed block by block so a
// million-row world never materializes in memory. The value model
// follows the related data-load generators (schema- and
// distribution-aware columns, worker pools): per-column distributions
// are Zipfian over the shared datagen vocabularies (head-heavy, like
// real classifieds), numeric columns are normal draws snapped to a
// price/year/mileage ladder, and correlated pairs (make→model,
// city→zip, city→state, cuisine→dish) hold across every generated row.
//
// Determinism discipline matches webgen.Chaos: every block of rows is
// generated from its own seeded RNG derived as
//
//	siteSeed  = Spec.Seed ^ fnv64a(host)
//	blockSeed = siteSeed + block*7919
//
// so the stream is byte-identical for any worker count and any
// consumption order — the property the bulk build's byte-identical
// snapshots rely on and the tests pin.
//
// Cross-site vocabulary sharing is deliberate: all sites of a vertical
// draw from the same datagen lists and all sites share one synthesized
// long-tail vocabulary, so corpus-wide document frequencies behave like
// a real crawl (a handful of very common terms, a long tail of rare
// ones) and BM25's idf term has something realistic to chew on.
package bulkgen

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"deepweb/internal/datagen"
	"deepweb/internal/index"
	"deepweb/internal/reldb"
)

// Doc is one generated record: the index document plus its §5.1-style
// typed annotations (column → rendered value), exactly what the
// surfacing pipeline would have recovered from a form binding.
type Doc struct {
	Doc  index.Doc
	Anns map[string]string
}

// Spec configures a bulk world. The zero value is not valid: Docs must
// be positive. Seed fully determines the generated corpus.
type Spec struct {
	Seed  int64
	Docs  int // total documents across all sites (required)
	Sites int // number of sites, cycling the verticals (default: one per vertical)

	// BlockSize is the generation granularity: rows are produced in
	// blocks of this many, each from its own derived RNG stream.
	// Smaller blocks mean finer-grained parallelism and a smaller
	// streaming footprint. Default 1024.
	BlockSize int
}

// World is a fully specified (but not materialized) bulk corpus.
// Methods are safe for concurrent use: generation state lives in
// per-call RNGs, never in the World.
type World struct {
	spec  Spec
	sites []site
}

type site struct {
	host string
	vert *vertical
	rows int   // rows on this site
	seed int64 // Spec.Seed ^ fnv64a(host)
}

// BlockRef names one block of one site; the unit of parallel generation.
type BlockRef struct {
	Site  int
	Block int
}

// NewWorld validates spec, applies defaults, and lays out sites.
func NewWorld(spec Spec) (*World, error) {
	if spec.Docs <= 0 {
		return nil, fmt.Errorf("bulkgen: Spec.Docs must be positive, got %d", spec.Docs)
	}
	if spec.Sites <= 0 {
		spec.Sites = len(verticals)
	}
	if spec.Sites > spec.Docs {
		spec.Sites = spec.Docs
	}
	if spec.BlockSize <= 0 {
		spec.BlockSize = 1024
	}
	w := &World{spec: spec}
	per, extra := spec.Docs/spec.Sites, spec.Docs%spec.Sites
	for si := 0; si < spec.Sites; si++ {
		v := &verticals[si%len(verticals)]
		host := fmt.Sprintf("bulk-%s-%03d.example", v.name, si)
		rows := per
		if si < extra {
			rows++
		}
		w.sites = append(w.sites, site{host: host, vert: v, rows: rows, seed: spec.Seed ^ int64(fnv64a(host))})
	}
	return w, nil
}

// NumSites returns the number of generated sites.
func (w *World) NumSites() int { return len(w.sites) }

// Blocks enumerates every block in canonical order (site-major, then
// block): the order Source streams documents in.
func (w *World) Blocks() []BlockRef {
	var refs []BlockRef
	for si, st := range w.sites {
		for b := 0; b*w.spec.BlockSize < st.rows; b++ {
			refs = append(refs, BlockRef{Site: si, Block: b})
		}
	}
	return refs
}

// GenBlock generates one block of documents, appending to dst (which
// may be nil). It is pure: the same ref always yields the same bytes,
// regardless of which other blocks have been generated or by whom.
func (w *World) GenBlock(ref BlockRef, dst []Doc) []Doc {
	st := w.sites[ref.Site]
	r := rand.New(rand.NewSource(st.seed + int64(ref.Block)*7919))
	gen := st.vert.gen(r)
	lo := ref.Block * w.spec.BlockSize
	hi := lo + w.spec.BlockSize
	if hi > st.rows {
		hi = st.rows
	}
	for i := lo; i < hi; i++ {
		row, title := gen(i)
		dst = append(dst, renderDoc(st.host, st.vert, i, row, title))
	}
	return dst
}

// renderDoc turns a typed row into the flat document the index ingests:
// RowText-style "value value ..." body prefixed by "col value" pairs so
// keyword probes hit column names too, plus one annotation per column.
func renderDoc(host string, v *vertical, rowIdx int, row reldb.Row, title string) Doc {
	var b strings.Builder
	anns := make(map[string]string, len(row))
	for i, val := range row {
		s := val.String()
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(v.cols[i].Name)
		b.WriteByte(' ')
		b.WriteString(s)
		anns[v.cols[i].Name] = s
	}
	return Doc{
		Doc: index.Doc{
			URL:    fmt.Sprintf("http://%s/record?id=%d", host, rowIdx),
			Title:  title,
			Text:   b.String(),
			Source: host,
		},
		Anns: anns,
	}
}

// rowGen produces the typed row and title for one row index. The
// closure owns per-block samplers; draws per row happen in a fixed
// order, which is what makes blocks reproducible.
type rowGen func(rowIdx int) (reldb.Row, string)

type vertical struct {
	name string
	cols []reldb.Column
	gen  func(r *rand.Rand) rowGen
}

func scol(n string) reldb.Column { return reldb.Column{Name: n, Kind: reldb.KindString} }
func icol(n string) reldb.Column { return reldb.Column{Name: n, Kind: reldb.KindInt} }
func tcol(n string) reldb.Column { return reldb.Column{Name: n, Kind: reldb.KindText} }

// verticals are the bulk counterparts of the datagen domains: same
// shared vocabularies (so cross-site df statistics line up), same
// correlated columns, but distribution-driven and unbounded in row
// count.
var verticals = []vertical{
	{
		name: "usedcars",
		cols: []reldb.Column{
			scol("make"), scol("model"), icol("year"), icol("price"),
			icol("mileage"), scol("city"), icol("zip"), tcol("notes"),
		},
		gen: func(r *rand.Rand) rowGen {
			mk := newZipf(r, 1.2, len(datagen.CarMakes))
			city := newZipf(r, 1.3, len(datagen.USCities))
			note := newNotes(r)
			year := ladder{mean: 2002, sigma: 4, step: 1, min: 1990, max: 2009}
			price := ladder{mean: 9500, sigma: 5500, step: 250, min: 500, max: 24750}
			miles := ladder{mean: 90000, sigma: 45000, step: 1000, min: 5000, max: 200000}
			return func(i int) (reldb.Row, string) {
				m := zidx(mk)
				models := datagen.CarModels[m]
				c := zidx(city)
				row := reldb.Row{
					reldb.S(datagen.CarMakes[m]),
					reldb.S(models[r.Intn(len(models))]),
					reldb.I(int64(year.draw(r))),
					reldb.I(int64(price.draw(r))),
					reldb.I(int64(miles.draw(r))),
					reldb.S(datagen.USCities[c]),
					reldb.I(int64(datagen.ZipForCity(c, i))),
					reldb.T(note.phrase(2, 3)),
				}
				title := "used " + row[0].Str + " " + row[1].Str + " " + strconv.FormatInt(row[2].Int, 10)
				return row, title
			}
		},
	},
	{
		name: "realestate",
		cols: []reldb.Column{
			scol("city"), scol("state"), scol("type"), icol("zip"),
			icol("bedrooms"), icol("price"), tcol("notes"),
		},
		gen: func(r *rand.Rand) rowGen {
			types := []string{"house", "condo", "apartment", "townhouse", "loft"}
			city := newZipf(r, 1.3, len(datagen.USCities))
			typ := newZipf(r, 1.2, len(types))
			note := newNotes(r)
			beds := ladder{mean: 3, sigma: 1.2, step: 1, min: 1, max: 6}
			price := ladder{mean: 320000, sigma: 180000, step: 5000, min: 50000, max: 1000000}
			return func(i int) (reldb.Row, string) {
				c := zidx(city)
				row := reldb.Row{
					reldb.S(datagen.USCities[c]),
					reldb.S(datagen.USStates[c]),
					reldb.S(types[zidx(typ)]),
					reldb.I(int64(datagen.ZipForCity(c, i))),
					reldb.I(int64(beds.draw(r))),
					reldb.I(int64(price.draw(r))),
					reldb.T(note.phrase(2, 4)),
				}
				title := row[2].Str + " in " + row[0].Str + " " + row[1].Str
				return row, title
			}
		},
	},
	{
		name: "jobs",
		cols: []reldb.Column{
			scol("title"), scol("company"), scol("city"), scol("state"),
			icol("salary"), tcol("description"),
		},
		gen: func(r *rand.Rand) rowGen {
			jt := newZipf(r, 1.2, len(datagen.JobTitles))
			co := newZipf(r, 1.3, len(datagen.Companies))
			city := newZipf(r, 1.3, len(datagen.USCities))
			note := newNotes(r)
			salary := ladder{mean: 62000, sigma: 18000, step: 1000, min: 25000, max: 175000}
			return func(i int) (reldb.Row, string) {
				c := zidx(city)
				row := reldb.Row{
					reldb.S(datagen.JobTitles[zidx(jt)]),
					reldb.S(datagen.Companies[zidx(co)]),
					reldb.S(datagen.USCities[c]),
					reldb.S(datagen.USStates[c]),
					reldb.I(int64(salary.draw(r))),
					reldb.T(note.phrase(1, 5)),
				}
				title := row[0].Str + " at " + row[1].Str
				return row, title
			}
		},
	},
	{
		name: "govdocs",
		cols: []reldb.Column{
			scol("agency"), scol("topic"), icol("year"), icol("docno"), tcol("body"),
		},
		gen: func(r *rand.Rand) rowGen {
			ag := newZipf(r, 1.2, len(datagen.Agencies))
			tp := newZipf(r, 1.2, len(datagen.GovTopics))
			note := newNotes(r)
			year := ladder{mean: 2002, sigma: 3, step: 1, min: 1995, max: 2008}
			return func(i int) (reldb.Row, string) {
				row := reldb.Row{
					reldb.S(datagen.Agencies[zidx(ag)]),
					reldb.S(datagen.GovTopics[zidx(tp)]),
					reldb.I(int64(year.draw(r))),
					reldb.I(int64(i)),
					reldb.T(note.phrase(1, 6)),
				}
				title := row[0].Str + " notice " + strconv.Itoa(i) + " regarding " + row[1].Str
				return row, title
			}
		},
	},
	{
		name: "library",
		cols: []reldb.Column{
			scol("subject"), scol("author"), icol("year"), tcol("summary"),
		},
		gen: func(r *rand.Rand) rowGen {
			sub := newZipf(r, 1.2, len(datagen.BookSubjects))
			note := newNotes(r)
			year := ladder{mean: 1975, sigma: 25, step: 1, min: 1900, max: 2008}
			return func(i int) (reldb.Row, string) {
				author := datagen.FirstNames[r.Intn(len(datagen.FirstNames))] +
					" " + datagen.LastNames[r.Intn(len(datagen.LastNames))]
				row := reldb.Row{
					reldb.S(datagen.BookSubjects[zidx(sub)]),
					reldb.S(author),
					reldb.I(int64(year.draw(r))),
					reldb.T(note.phrase(2, 4)),
				}
				title := "the " + tailWord(i) + " of " + row[0].Str
				return row, title
			}
		},
	},
	{
		name: "recipes",
		cols: []reldb.Column{
			scol("cuisine"), scol("dish"), icol("minutes"), tcol("steps"),
		},
		gen: func(r *rand.Rand) rowGen {
			di := newZipf(r, 1.2, len(datagen.Dishes))
			note := newNotes(r)
			mins := ladder{mean: 45, sigma: 25, step: 5, min: 10, max: 180}
			return func(i int) (reldb.Row, string) {
				// dish → cuisine by index arithmetic, the same
				// correlation rule datagen.Recipes uses.
				d := zidx(di)
				row := reldb.Row{
					reldb.S(datagen.Cuisines[d%len(datagen.Cuisines)]),
					reldb.S(datagen.Dishes[d]),
					reldb.I(int64(mins.draw(r))),
					reldb.T(note.phrase(2, 4)),
				}
				title := row[0].Str + " " + row[1].Str
				return row, title
			}
		},
	},
}

// fnv64a matches the webgen host-seed derivation (hostSeed there is
// seed ^ fnv64a(host)); duplicated rather than exported to keep the
// packages decoupled.
func fnv64a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}
