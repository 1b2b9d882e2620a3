package datagen

import (
	"testing"

	"deepweb/internal/reldb"
)

func TestVocabularyAlignment(t *testing.T) {
	if len(USCities) != len(USStates) {
		t.Fatalf("cities (%d) and states (%d) misaligned", len(USCities), len(USStates))
	}
	if len(USCities) != len(zipBases) {
		t.Fatalf("cities (%d) and zip bases (%d) misaligned", len(USCities), len(zipBases))
	}
	if len(CarMakes) != len(CarModels) {
		t.Fatalf("makes (%d) and model lists (%d) misaligned", len(CarMakes), len(CarModels))
	}
	for i, models := range CarModels {
		if len(models) == 0 {
			t.Errorf("make %q has no models", CarMakes[i])
		}
	}
	if len(MediaCategories) != len(MediaTitles) {
		t.Fatalf("media categories and title lists misaligned")
	}
}

func TestZipForCityFiveDigits(t *testing.T) {
	for c := range USCities {
		for i := 0; i < 100; i += 13 {
			z := ZipForCity(c, i)
			if z < 1000 || z > 99999 {
				t.Errorf("zip %d for city %d out of range", z, c)
			}
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	gens := map[string]func(int64, int) *reldb.Table{
		"usedcars": UsedCars, "realestate": RealEstate, "jobs": Jobs,
		"library": Library, "govdocs": GovDocs, "media": MediaCatalog,
		"faculty": Faculty, "stores": Stores, "recipes": Recipes,
	}
	for name, gen := range gens {
		a, b := gen(99, 50), gen(99, 50)
		if a.Len() != 50 || b.Len() != 50 {
			t.Fatalf("%s: wrong row count", name)
		}
		for i := 0; i < a.Len(); i++ {
			if a.RowText(i) != b.RowText(i) {
				t.Errorf("%s: row %d differs across same-seed runs", name, i)
				break
			}
		}
		c := gen(100, 50)
		same := true
		for i := 0; i < a.Len(); i++ {
			if a.RowText(i) != c.RowText(i) {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s: different seeds produced identical tables", name)
		}
	}
}

func TestUsedCarsModelMatchesMake(t *testing.T) {
	tbl := UsedCars(7, 500)
	makeIdx := map[string]int{}
	for i, m := range CarMakes {
		makeIdx[m] = i
	}
	mi, mo := tbl.ColIndex("make"), tbl.ColIndex("model")
	for i := 0; i < tbl.Len(); i++ {
		r := tbl.Row(i)
		models := CarModels[makeIdx[r[mi].Str]]
		found := false
		for _, m := range models {
			if m == r[mo].Str {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("row %d: model %q not a %q model", i, r[mo].Str, r[mi].Str)
		}
	}
}

func TestUsedCarsValueRanges(t *testing.T) {
	tbl := UsedCars(7, 300)
	extrema := func(col string) (lo, hi int64) {
		ints := tbl.DistinctInts(col)
		return ints[0], ints[len(ints)-1]
	}
	min, max := extrema("price")
	if min < 500 || max > 25000 {
		t.Errorf("price out of spec: [%d,%d]", min, max)
	}
	ymin, ymax := extrema("year")
	if ymin < 1990 || ymax > 2009 {
		t.Errorf("year out of spec: [%d,%d]", ymin, ymax)
	}
}

func TestUsedCarsZipfSkew(t *testing.T) {
	tbl := UsedCars(11, 2000)
	counts := map[string]int{}
	mi := tbl.ColIndex("make")
	for i := 0; i < tbl.Len(); i++ {
		counts[tbl.Row(i)[mi].Str]++
	}
	// Head make must dominate: more than 3x the mean.
	maxC := 0
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
	}
	if mean := 2000 / len(CarMakes); maxC < 3*mean {
		t.Errorf("no head skew: max make count %d vs mean %d", maxC, mean)
	}
}

func TestFacultyAwardFraction(t *testing.T) {
	tbl := Faculty(5, 2000)
	bi := tbl.ColIndex("bio")
	withAward := 0
	for i := 0; i < tbl.Len(); i++ {
		if len(tbl.Row(i)[bi].Str) > 0 && containsAny(tbl.Row(i)[bi].Str, Awards) {
			withAward++
		}
	}
	frac := float64(withAward) / 2000
	if frac < 0.05 || frac > 0.18 {
		t.Errorf("award fraction %.3f outside ~10%% band", frac)
	}
}

func containsAny(s string, subs []string) bool {
	for _, sub := range subs {
		if len(sub) > 0 && len(s) >= len(sub) && index(s, sub) {
			return true
		}
	}
	return false
}

func index(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestMediaCatalogCategoriesCovered(t *testing.T) {
	tbl := MediaCatalog(3, 400)
	got := tbl.DistinctStrings("category")
	if len(got) != len(MediaCategories) {
		t.Errorf("categories present = %v, want all of %v", got, MediaCategories)
	}
}

func TestStoresZipConsistentWithCity(t *testing.T) {
	tbl := Stores(9, 200)
	ci, zi := tbl.ColIndex("city"), tbl.ColIndex("zip")
	cityIdx := map[string]int{}
	for i, c := range USCities {
		cityIdx[c] = i
	}
	for i := 0; i < tbl.Len(); i++ {
		r := tbl.Row(i)
		base := zipBases[cityIdx[r[ci].Str]]
		if z := int(r[zi].Int); z < base || z >= base+40 {
			t.Fatalf("row %d: zip %d outside city band [%d,%d)", i, z, base, base+40)
		}
	}
}

func TestRecipesCuisineAligned(t *testing.T) {
	tbl := Recipes(13, 100)
	di, ci := tbl.ColIndex("dish"), tbl.ColIndex("cuisine")
	dishIdx := map[string]int{}
	for i, d := range Dishes {
		dishIdx[d] = i
	}
	for i := 0; i < tbl.Len(); i++ {
		r := tbl.Row(i)
		want := Cuisines[dishIdx[r[di].Str]%len(Cuisines)]
		if r[ci].Str != want {
			t.Fatalf("dish %q has cuisine %q, want %q", r[di].Str, r[ci].Str, want)
		}
	}
}

func TestGovDocsTitlesUnique(t *testing.T) {
	tbl := GovDocs(21, 300)
	ti := tbl.ColIndex("title")
	seen := map[string]bool{}
	for i := 0; i < tbl.Len(); i++ {
		title := tbl.Row(i)[ti].Str
		if seen[title] {
			t.Fatalf("duplicate gov doc title %q", title)
		}
		seen[title] = true
	}
}
