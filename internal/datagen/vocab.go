// Package datagen generates the synthetic structured data behind every
// deep-web site in the reproduction: per-domain record tables with
// Zipf-skewed value frequencies, drawn from fixed vocabularies. All
// generation is seeded and deterministic, so experiments are
// reproducible and ground truth is always available.
package datagen

// Vocabularies. These are fixed, ordinary-English word lists; the point
// is not realism of individual values but realistic *structure*: typed
// values (zips, cities, prices, dates), correlated pairs (make→model),
// small categorical domains served by select menus and large ones served
// by text boxes (paper §4.1).

// USCities are city names used by city-typed inputs. Paired positionally
// with USStates and ZipBases.
var USCities = []string{
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

// USStates are two-letter state codes aligned with USCities.
var USStates = []string{
	"wa", "or", "ca", "ca", "ca",
	"az", "co", "tx", "tx", "tx",
	"il", "mi", "mn", "mo", "mo",
	"ga", "fl", "fl", "nc", "tn",
	"ma", "ny", "pa", "pa", "md",
	"dc", "va", "nc", "oh", "oh",
	"oh", "in", "wi", "tn", "la",
	"ok", "ut", "nv", "ca", "ca",
	"az", "nm", "ne", "ok", "ks",
	"id", "wa", "ak", "hi", "fl",
}

// zipBases gives each city a 5-digit zip prefix region; individual zips
// are base + offset. Aligned with USCities.
var zipBases = []int{
	98100, 97200, 94100, 90000, 92100,
	85000, 80200, 75200, 77000, 78700,
	60600, 48200, 55400, 63100, 64100,
	30300, 33100, 32800, 28200, 37200,
	2100, 10000, 19100, 15200, 21200,
	20000, 23200, 27600, 43200, 44100,
	45200, 46200, 53200, 38100, 70100,
	73100, 84100, 89100, 95800, 93700,
	85700, 87100, 68100, 74100, 67200,
	83700, 99200, 99500, 96800, 33600,
}

// CarMakes lists car manufacturers; CarModels[i] are the models of
// CarMakes[i] — the canonical correlated input pair of §4.2.
var CarMakes = []string{
	"ford", "honda", "toyota", "chevrolet", "nissan",
	"volkswagen", "bmw", "subaru", "hyundai", "mazda",
	"jeep", "dodge", "kia", "audi", "volvo",
}

// CarModels are the models per make, aligned with CarMakes.
var CarModels = [][]string{
	{"focus", "escort", "taurus", "mustang", "explorer", "ranger", "fiesta"},
	{"civic", "accord", "crv", "pilot", "odyssey", "fit"},
	{"corolla", "camry", "prius", "rav4", "tacoma", "sienna", "yaris"},
	{"impala", "malibu", "cavalier", "silverado", "tahoe", "cruze"},
	{"altima", "sentra", "maxima", "pathfinder", "frontier", "versa"},
	{"jetta", "golf", "passat", "beetle", "tiguan"},
	{"325i", "328i", "530i", "x3", "x5", "z4"},
	{"outback", "forester", "impreza", "legacy", "crosstrek"},
	{"elantra", "sonata", "santa fe", "tucson suv", "accent"},
	{"mazda3", "mazda6", "cx5", "miata", "protege"},
	{"wrangler", "cherokee", "liberty", "compass", "patriot"},
	{"ram", "caravan", "charger", "durango", "neon"},
	{"optima", "sorento", "sportage", "rio", "soul"},
	{"a4", "a6", "q5", "tt", "allroad"},
	{"s60", "v70", "xc90", "s40", "850"},
}

// JobTitles are used by the jobs vertical.
var JobTitles = []string{
	"software engineer", "data analyst", "project manager", "nurse",
	"accountant", "electrician", "plumber", "teacher", "librarian",
	"chemist", "biologist", "paralegal", "chef", "barista",
	"mechanic", "welder", "carpenter", "architect", "surveyor",
	"pharmacist", "dental hygienist", "radiology technician",
	"truck driver", "dispatcher", "warehouse supervisor",
	"marketing coordinator", "sales representative", "graphic designer",
	"technical writer", "systems administrator",
}

// Companies employ job records.
var Companies = []string{
	"acme corp", "globex", "initech", "umbrella logistics", "stark industries",
	"wayne enterprises", "wonka foods", "tyrell systems", "cyberdyne labs",
	"aperture science", "hooli", "pied piper", "vandelay industries",
	"dunder mifflin", "sterling cooper", "oscorp", "massive dynamic",
	"soylent foods", "virtucon", "zorin industries",
}

// BookSubjects classify library records.
var BookSubjects = []string{
	"history", "biography", "science", "mathematics", "poetry",
	"philosophy", "economics", "geography", "astronomy", "chemistry",
	"botany", "zoology", "medicine", "law", "architecture",
	"music theory", "painting", "sculpture", "linguistics", "archaeology",
}

// FirstNames and LastNames combine into person names (authors, faculty).
var FirstNames = []string{
	"james", "mary", "robert", "patricia", "john", "jennifer", "michael",
	"linda", "david", "elizabeth", "william", "barbara", "richard", "susan",
	"joseph", "jessica", "thomas", "sarah", "charles", "karen", "wei",
	"yuki", "priya", "omar", "fatima", "carlos", "maria", "ivan", "olga",
	"chen",
}

// LastNames pair with FirstNames.
var LastNames = []string{
	"smith", "johnson", "williams", "brown", "jones", "garcia", "miller",
	"davis", "rodriguez", "martinez", "hernandez", "lopez", "gonzalez",
	"wilson", "anderson", "thomas", "taylor", "moore", "jackson", "martin",
	"lee", "perez", "thompson", "white", "harris", "sanchez", "clark",
	"ramirez", "lewis", "nakamura",
}

// Agencies are the government/NGO portals of the paper's long-tail
// discussion ("governmental and NGO portals … rules and regulations,
// survey results", §3.2).
var Agencies = []string{
	"environmental protection bureau", "county health department",
	"state transportation authority", "fisheries commission",
	"rural electrification board", "historic preservation office",
	"water resources council", "public records division",
	"consumer safety agency", "forestry service",
	"housing assistance program", "small farms institute",
	"coastal management council", "air quality district",
	"veterans affairs office",
}

// GovTopics classify government documents.
var GovTopics = []string{
	"permits", "regulations", "grants", "inspections", "licensing",
	"zoning", "easements", "water rights", "emissions", "recycling",
	"food safety", "immunization", "land survey", "floodplain",
	"noise ordinance", "well drilling", "septic systems", "burn bans",
}

// Cuisines classify restaurant/recipe records; a typical small
// select-menu domain (§4.1).
var Cuisines = []string{
	"italian", "mexican", "thai", "indian", "japanese", "french",
	"greek", "ethiopian", "vietnamese", "korean", "spanish", "lebanese",
}

// Dishes are recipe names seeded per cuisine by index arithmetic.
var Dishes = []string{
	"lasagna", "tacos", "pad thai", "butter chicken", "ramen", "cassoulet",
	"moussaka", "injera platter", "pho", "bibimbap", "paella", "kibbeh",
	"risotto", "enchiladas", "green curry", "biryani", "udon", "ratatouille",
	"souvlaki", "doro wat", "banh mi", "bulgogi", "gazpacho", "tabbouleh",
}

// MediaCategories are the catalogs of the database-selection form (§4.2):
// one select menu chooses the catalog, one text box searches it.
var MediaCategories = []string{"movies", "music", "software", "games"}

// MediaTitles per category; the §4.2 point is that good keywords differ
// per catalog ("microsoft" works for software, not for movies).
var MediaTitles = [][]string{
	{ // movies
		"the long harvest", "midnight ferry", "glass mountain",
		"the cartographer", "seven lanterns", "river of ash",
		"the last projectionist", "winter circus", "paper sails",
		"the violet hour", "stolen meridian", "the quiet engine",
	},
	{ // music
		"blue delta sessions", "northern lights suite", "tin roof blues",
		"harmonic drift", "the velvet metronome", "cedar canyon songs",
		"electric prairie", "nocturnes for two", "brass parade",
		"the hollow choir", "saltwater hymns", "analog heart",
	},
	{ // software
		"microsoft office", "turbotax deluxe", "photoshop elements",
		"norton antivirus", "quickbooks pro", "autocad lite",
		"dreamweaver studio", "visual basic toolkit", "linux mandrake",
		"winzip utilities", "realplayer plus", "netscape composer",
	},
	{ // games
		"dungeon of the crystal king", "starfleet tactics", "kart frenzy",
		"puzzle harbor", "dragon orchard", "mech arena", "pixel pirates",
		"tower alchemist", "rally legends", "galaxy trader",
		"castle siege II", "chess master gold",
	},
}

// Departments for the faculty-bio site of the fortuitous-query
// experiment (§3.2's "SIGMOD Innovations Award MIT professor" example).
var Departments = []string{
	"computer science", "electrical engineering", "mathematics",
	"physics", "chemistry", "biology", "economics", "linguistics",
	"mechanical engineering", "civil engineering",
}

// Awards appear inside faculty biography text — reachable by keyword
// search over surfaced pages, invisible to a department-keyed mediator.
var Awards = []string{
	"sigmod innovations award", "turing award", "fields medal",
	"dijkstra prize", "godel prize", "knuth prize", "nobel prize",
	"abel prize", "von neumann medal", "kyoto prize",
}

// NoteWords pad free-text columns so result pages have realistic,
// diverse vocabulary.
var NoteWords = []string{
	"excellent", "condition", "rare", "vintage", "certified", "original",
	"restored", "updated", "spacious", "sunny", "quiet", "corner",
	"downtown", "suburban", "remodeled", "hardwood", "garage", "garden",
	"waterfront", "mountain", "view", "furnished", "heated", "insulated",
}

// ZipForCity returns the i-th zip code of the city at cityIdx. Offsets
// cycle within a 40-zip band so zips stay 5 digits and city-consistent.
func ZipForCity(cityIdx, i int) int {
	return zipBases[cityIdx%len(zipBases)] + (i % 40)
}
