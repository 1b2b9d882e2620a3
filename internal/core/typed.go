package core

import (
	"math"
	"strconv"

	"deepweb/internal/textutil"
)

// Typed-input support (§4.1). The paper's point: the surfacer does not
// need to know what a form is *about* — only that a given text box
// accepts, say, zip codes. Types are hypothesized from input names and
// labels (the cheap, high-precision signal the paper reports) and then
// validated by probing: a hypothesized type is confirmed only if typed
// sample values actually retrieve results (textutil.HypothesizeType
// holds the name heuristic, which the query layer shares).

// TypedValues returns up to n candidate values for a recognized type.
// These vocabularies stand in for the cross-form aggregate knowledge the
// paper's semantic services provide (§6): zip codes and city names mined
// from millions of forms, price ladders, plausible years.
func TypedValues(typ string, n int) []string {
	switch typ {
	case textutil.TypeZip:
		return sampleZips(n)
	case textutil.TypeCity:
		return sampleCities(n)
	case textutil.TypePrice:
		return priceLadder(n)
	case textutil.TypeDate:
		return yearSpread(n)
	default:
		return nil
	}
}

// RangeValuePairs returns (lo,hi) value pairs for a fused numeric range
// dimension of the given type: consecutive rungs of the type's ladder,
// which jointly cover the whole axis without overlap — the "10 URLs that
// each retrieve results in different price ranges" of §4.2.
func RangeValuePairs(typ string, n int) [][2]string {
	var rungs []string
	switch typ {
	case textutil.TypePrice:
		rungs = priceLadder(n + 1)
	case textutil.TypeDate:
		rungs = yearSpread(n + 1)
	default:
		// A numeric range of unknown flavor gets a generic geometric
		// ladder.
		rungs = genericLadder(n + 1)
	}
	pairs := make([][2]string, 0, len(rungs)-1)
	for i := 0; i+1 < len(rungs); i++ {
		pairs = append(pairs, [2]string{rungs[i], rungs[i+1]})
	}
	return pairs
}

// builtinZips and builtinCities are small shared vocabularies; in the
// real system these come from aggregating select menus across millions
// of forms (§6's value service). They are intentionally *not* read from
// any site's backing table.
var builtinCities = []string{
	"seattle", "portland", "san francisco", "los angeles", "san diego",
	"phoenix", "denver", "dallas", "houston", "austin",
	"chicago", "detroit", "minneapolis", "st louis", "kansas city",
	"atlanta", "miami", "orlando", "charlotte", "nashville",
	"boston", "new york", "philadelphia", "pittsburgh", "baltimore",
	"washington", "richmond", "raleigh", "columbus", "cleveland",
	"cincinnati", "indianapolis", "milwaukee", "memphis", "new orleans",
	"oklahoma city", "salt lake city", "las vegas", "sacramento", "fresno",
	"tucson", "albuquerque", "omaha", "tulsa", "wichita",
	"boise", "spokane", "anchorage", "honolulu", "tampa",
}

var builtinZipBases = []int{
	98100, 97200, 94100, 90000, 92100, 85000, 80200, 75200, 77000, 78700,
	60600, 48200, 55400, 63100, 64100, 30300, 33100, 32800, 28200, 37200,
	2100, 10000, 19100, 15200, 21200, 20000, 23200, 27600, 43200, 44100,
	45200, 46200, 53200, 38100, 70100, 73100, 84100, 89100, 95800, 93700,
	85700, 87100, 68100, 74100, 67200, 83700, 99200, 99500, 96800, 33600,
}

func sampleZips(n int) []string {
	out := make([]string, 0, n)
	for i := 0; len(out) < n; i++ {
		base := builtinZipBases[i%len(builtinZipBases)]
		out = append(out, strconv.Itoa(base+i/len(builtinZipBases)))
	}
	return out
}

func sampleCities(n int) []string {
	if n > len(builtinCities) {
		n = len(builtinCities)
	}
	return append([]string(nil), builtinCities[:n]...)
}

// priceLadder returns n price points spanning $250 to ~$1M roughly
// geometrically; consecutive points make sensible range buckets.
func priceLadder(n int) []string {
	if n < 2 {
		n = 2
	}
	out := make([]string, 0, n)
	lo, hi := 250.0, 1000000.0
	ratio := math.Pow(hi/lo, 1/float64(n-1))
	v := lo
	for i := 0; i < n; i++ {
		out = append(out, strconv.Itoa(int(round100(v))))
		v *= ratio
	}
	return out
}

// yearSpread returns n years spanning 1900..2008 evenly.
func yearSpread(n int) []string {
	if n < 2 {
		n = 2
	}
	out := make([]string, 0, n)
	lo, hi := 1900, 2008
	for i := 0; i < n; i++ {
		out = append(out, strconv.Itoa(lo+(hi-lo)*i/(n-1)))
	}
	return out
}

func genericLadder(n int) []string {
	if n < 2 {
		n = 2
	}
	out := make([]string, 0, n)
	v := 1
	for i := 0; i < n; i++ {
		out = append(out, strconv.Itoa(v))
		v *= 4
	}
	return out
}

func round100(v float64) float64 {
	if v < 1000 {
		return float64(int(v/50) * 50)
	}
	return float64(int(v/100) * 100)
}
