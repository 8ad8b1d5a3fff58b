// Package geo provides the geographic substrate shared by every other
// subsystem: a country catalog with representative coordinates, region
// groupings, and great-circle distance math.
//
// Internet measurement workflows constantly translate between network
// identifiers (IPs, ASes, landing points) and geography (countries,
// regions). This package is the single source of truth for that
// translation so that the synthetic world, the cable catalog, the
// traceroute RTT model and the impact aggregators all agree.
package geo

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// Region is a coarse geographic grouping used by queries such as
// "cables between Europe and Asia".
type Region string

// Regions of the world used by the measurement workflows.
const (
	Europe       Region = "Europe"
	Asia         Region = "Asia"
	NorthAmerica Region = "North America"
	SouthAmerica Region = "South America"
	Africa       Region = "Africa"
	MiddleEast   Region = "Middle East"
	Oceania      Region = "Oceania"
)

// AllRegions lists every region in deterministic order.
func AllRegions() []Region {
	return []Region{Europe, Asia, NorthAmerica, SouthAmerica, Africa, MiddleEast, Oceania}
}

// RegionSet is a set of the regions AllRegions lists, one bit each.
type RegionSet uint8

// regionBit is r's bit in a RegionSet, or 0 for a name AllRegions
// does not list.
func regionBit(r Region) RegionSet {
	switch r {
	case Europe:
		return 1 << 0
	case Asia:
		return 1 << 1
	case NorthAmerica:
		return 1 << 2
	case SouthAmerica:
		return 1 << 3
	case Africa:
		return 1 << 4
	case MiddleEast:
		return 1 << 5
	case Oceania:
		return 1 << 6
	}
	return 0
}

// With returns s with r added; a name AllRegions does not list adds
// nothing.
func (s RegionSet) With(r Region) RegionSet { return s | regionBit(r) }

// Has reports whether r is in s.
func (s RegionSet) Has(r Region) bool { return s&regionBit(r) != 0 }

// Len returns the number of regions in s.
func (s RegionSet) Len() int { return bits.OnesCount8(uint8(s)) }

// Coord is a WGS84 latitude/longitude pair in decimal degrees.
type Coord struct {
	Lat float64
	Lng float64
}

// String implements fmt.Stringer.
func (c Coord) String() string { return fmt.Sprintf("(%.3f,%.3f)", c.Lat, c.Lng) }

// Valid reports whether the coordinate lies within WGS84 bounds.
func (c Coord) Valid() bool {
	return c.Lat >= -90 && c.Lat <= 90 && c.Lng >= -180 && c.Lng <= 180
}

// Country describes one country in the catalog. Coordinates point at the
// country's principal network hub (usually the capital or the largest
// coastal city), which is where the synthetic world places routers.
type Country struct {
	Code    string // ISO 3166-1 alpha-2
	Name    string
	Region  Region
	Hub     Coord // principal network hub
	Coastal bool  // has submarine-cable landing potential
}

// earthRadiusKm is the mean Earth radius used for great-circle math.
const earthRadiusKm = 6371.0

const degToRad = math.Pi / 180

// DistanceKm returns the great-circle distance between two coordinates in
// kilometers using the haversine formula.
func DistanceKm(a, b Coord) float64 {
	return ArcKm(Haversine(a, b, CosLat(a), CosLat(b)))
}

// CosLat returns the cosine of c's latitude, the factor each end
// contributes to Haversine. Callers that measure from one point many
// times compute it once.
func CosLat(c Coord) float64 { return math.Cos(c.Lat * degToRad) }

// Haversine returns the haversine of the central angle between a and
// b, given cosA = CosLat(a) and cosB = CosLat(b). ArcKm turns it into
// kilometers; a smaller haversine is never a longer distance, so a
// nearest-point search may compare haversines and convert only the
// winner's.
func Haversine(a, b Coord, cosA, cosB float64) float64 {
	sinLat := math.Sin((b.Lat - a.Lat) * degToRad / 2)
	sinLng := math.Sin((b.Lng - a.Lng) * degToRad / 2)
	return sinLat*sinLat + cosA*cosB*sinLng*sinLng
}

// ArcKm returns the great-circle distance in kilometers of a central
// angle whose haversine is h.
func ArcKm(h float64) float64 {
	return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
}

// HaversineBound returns the largest haversine whose ArcKm is at most
// km: for every h, ArcKm(h) <= km exactly when h >= 0 && h <= bound,
// so a radius test over many points computes the arcsine only here. It
// is -1 when km is negative or NaN and +Inf when every arc fits.
func HaversineBound(km float64) float64 {
	if !(km >= 0) {
		return -1
	}
	if ArcKm(1) <= km {
		return math.Inf(1)
	}
	// ArcKm(lo) <= km < ArcKm(hi); the bit patterns of non-negative
	// float64s order as their values do.
	lo, hi := uint64(0), math.Float64bits(1)
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if ArcKm(math.Float64frombits(mid)) <= km {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Float64frombits(lo)
}

// PropagationDelayMs returns the one-way light propagation delay in
// milliseconds over a fiber path of the given length. Light in fiber
// travels at roughly 2/3 of c; cable paths are longer than great circles,
// so callers typically apply a path-stretch factor on top.
func PropagationDelayMs(km float64) float64 {
	const fiberLightSpeedKmPerMs = 299792.458 / 1000.0 * (2.0 / 3.0) // ≈199.9 km/ms
	return km / fiberLightSpeedKmPerMs
}

// catalog is the country table. It is intentionally a curated subset of the
// world: enough coverage on every region and every major submarine-cable
// corridor for resilience analysis, small enough to keep simulations fast.
var catalog = []Country{
	// Europe
	{"GB", "United Kingdom", Europe, Coord{51.507, -0.128}, true},
	{"FR", "France", Europe, Coord{43.296, 5.370}, true}, // Marseille: principal cable hub
	{"DE", "Germany", Europe, Coord{50.110, 8.682}, false},
	{"NL", "Netherlands", Europe, Coord{52.370, 4.895}, true},
	{"ES", "Spain", Europe, Coord{36.140, -5.353}, true},
	{"IT", "Italy", Europe, Coord{38.115, 13.361}, true}, // Palermo hub
	{"PT", "Portugal", Europe, Coord{38.722, -9.139}, true},
	{"GR", "Greece", Europe, Coord{37.983, 23.727}, true},
	{"SE", "Sweden", Europe, Coord{59.329, 18.068}, true},
	{"NO", "Norway", Europe, Coord{58.970, 5.731}, true},
	{"IE", "Ireland", Europe, Coord{53.349, -6.260}, true},
	{"PL", "Poland", Europe, Coord{52.229, 21.012}, false},
	{"AT", "Austria", Europe, Coord{48.208, 16.373}, false},
	{"CH", "Switzerland", Europe, Coord{47.376, 8.541}, false},
	{"BE", "Belgium", Europe, Coord{51.219, 2.928}, true},
	{"DK", "Denmark", Europe, Coord{55.676, 12.568}, true},
	{"FI", "Finland", Europe, Coord{60.169, 24.938}, true},
	{"CZ", "Czechia", Europe, Coord{50.075, 14.437}, false},
	{"RO", "Romania", Europe, Coord{44.172, 28.652}, true}, // Constanța
	{"BG", "Bulgaria", Europe, Coord{43.204, 27.910}, true},
	{"MT", "Malta", Europe, Coord{35.899, 14.514}, true},
	{"CY", "Cyprus", Europe, Coord{34.707, 33.022}, true},

	// Middle East
	{"EG", "Egypt", MiddleEast, Coord{31.200, 29.918}, true}, // Alexandria
	{"SA", "Saudi Arabia", MiddleEast, Coord{21.543, 39.173}, true},
	{"AE", "United Arab Emirates", MiddleEast, Coord{25.070, 55.140}, true},
	{"OM", "Oman", MiddleEast, Coord{23.588, 58.383}, true},
	{"IL", "Israel", MiddleEast, Coord{32.080, 34.780}, true},
	{"JO", "Jordan", MiddleEast, Coord{29.532, 35.008}, true}, // Aqaba
	{"TR", "Turkey", MiddleEast, Coord{41.008, 28.978}, true},
	{"QA", "Qatar", MiddleEast, Coord{25.285, 51.531}, true},
	{"KW", "Kuwait", MiddleEast, Coord{29.376, 47.977}, true},
	{"BH", "Bahrain", MiddleEast, Coord{26.228, 50.586}, true},
	{"IQ", "Iraq", MiddleEast, Coord{30.508, 47.783}, true}, // Al-Faw
	{"DJ", "Djibouti", MiddleEast, Coord{11.588, 43.145}, true},

	// Asia
	{"IN", "India", Asia, Coord{19.076, 72.878}, true}, // Mumbai
	{"LK", "Sri Lanka", Asia, Coord{6.927, 79.861}, true},
	{"BD", "Bangladesh", Asia, Coord{21.427, 92.005}, true}, // Cox's Bazar
	{"PK", "Pakistan", Asia, Coord{24.861, 67.010}, true},   // Karachi
	{"MM", "Myanmar", Asia, Coord{16.871, 96.199}, true},
	{"TH", "Thailand", Asia, Coord{7.884, 98.398}, true}, // Phuket/Songkhla
	{"MY", "Malaysia", Asia, Coord{3.139, 101.687}, true},
	{"SG", "Singapore", Asia, Coord{1.352, 103.820}, true},
	{"ID", "Indonesia", Asia, Coord{-6.208, 106.846}, true},
	{"VN", "Vietnam", Asia, Coord{10.823, 106.630}, true},
	{"PH", "Philippines", Asia, Coord{14.600, 120.984}, true},
	{"HK", "Hong Kong", Asia, Coord{22.319, 114.169}, true},
	{"CN", "China", Asia, Coord{31.230, 121.474}, true}, // Shanghai
	{"TW", "Taiwan", Asia, Coord{25.033, 121.565}, true},
	{"JP", "Japan", Asia, Coord{35.677, 139.650}, true},
	{"KR", "South Korea", Asia, Coord{35.180, 129.076}, true}, // Busan
	{"KH", "Cambodia", Asia, Coord{10.627, 103.522}, true},
	{"BN", "Brunei", Asia, Coord{4.903, 114.940}, true},
	{"NP", "Nepal", Asia, Coord{27.717, 85.324}, false},
	{"KZ", "Kazakhstan", Asia, Coord{51.170, 71.449}, false},

	// Africa
	{"ZA", "South Africa", Africa, Coord{-33.925, 18.424}, true},
	{"KE", "Kenya", Africa, Coord{-4.043, 39.668}, true}, // Mombasa
	{"TZ", "Tanzania", Africa, Coord{-6.792, 39.208}, true},
	{"NG", "Nigeria", Africa, Coord{6.455, 3.394}, true},
	{"GH", "Ghana", Africa, Coord{5.603, -0.187}, true},
	{"SN", "Senegal", Africa, Coord{14.717, -17.467}, true},
	{"MA", "Morocco", Africa, Coord{33.573, -7.590}, true},
	{"TN", "Tunisia", Africa, Coord{36.806, 10.181}, true},
	{"DZ", "Algeria", Africa, Coord{36.754, 3.059}, true},
	{"MZ", "Mozambique", Africa, Coord{-25.969, 32.573}, true},
	{"ET", "Ethiopia", Africa, Coord{9.010, 38.761}, false},
	{"SD", "Sudan", Africa, Coord{19.616, 37.216}, true}, // Port Sudan
	{"CI", "Côte d'Ivoire", Africa, Coord{5.360, -4.008}, true},
	{"CM", "Cameroon", Africa, Coord{4.051, 9.768}, true},
	{"AO", "Angola", Africa, Coord{-8.839, 13.289}, true},

	// North America
	{"US", "United States", NorthAmerica, Coord{40.713, -74.006}, true}, // NYC hub
	{"CA", "Canada", NorthAmerica, Coord{44.649, -63.576}, true},        // Halifax
	{"MX", "Mexico", NorthAmerica, Coord{19.433, -99.133}, true},
	{"PA", "Panama", NorthAmerica, Coord{8.983, -79.517}, true},
	{"CR", "Costa Rica", NorthAmerica, Coord{9.933, -84.083}, true},
	{"CU", "Cuba", NorthAmerica, Coord{23.113, -82.366}, true},
	{"DO", "Dominican Republic", NorthAmerica, Coord{18.486, -69.931}, true},

	// South America
	{"BR", "Brazil", SouthAmerica, Coord{-23.967, -46.333}, true}, // Santos/Fortaleza
	{"AR", "Argentina", SouthAmerica, Coord{-34.603, -58.382}, true},
	{"CL", "Chile", SouthAmerica, Coord{-33.047, -71.613}, true},
	{"CO", "Colombia", SouthAmerica, Coord{10.400, -75.514}, true},
	{"PE", "Peru", SouthAmerica, Coord{-12.046, -77.043}, true},
	{"UY", "Uruguay", SouthAmerica, Coord{-34.903, -56.188}, true},
	{"VE", "Venezuela", SouthAmerica, Coord{10.480, -66.903}, true},

	// Oceania
	{"AU", "Australia", Oceania, Coord{-33.869, 151.209}, true},
	{"NZ", "New Zealand", Oceania, Coord{-36.848, 174.763}, true},
	{"FJ", "Fiji", Oceania, Coord{-18.141, 178.442}, true},
	{"GU", "Guam", Oceania, Coord{13.444, 144.794}, true},
}

var (
	byCode map[string]Country
	byName map[string]Country
)

func init() {
	byCode = make(map[string]Country, len(catalog))
	byName = make(map[string]Country, len(catalog))
	for _, c := range catalog {
		byCode[c.Code] = c
		byName[strings.ToLower(c.Name)] = c
	}
}

// Countries returns the full country catalog sorted by ISO code.
func Countries() []Country {
	out := make([]Country, len(catalog))
	copy(out, catalog)
	sort.Slice(out, func(i, j int) bool { return out[i].Code < out[j].Code })
	return out
}

// CountryByCode looks up a country by its ISO 3166-1 alpha-2 code.
func CountryByCode(code string) (Country, bool) {
	c, ok := byCode[strings.ToUpper(code)]
	return c, ok
}

// CountryByName looks up a country by its English name
// (case-insensitive).
func CountryByName(name string) (Country, bool) {
	c, ok := byName[strings.ToLower(strings.TrimSpace(name))]
	return c, ok
}

// CountriesInRegion returns the countries of one region sorted by code.
func CountriesInRegion(r Region) []Country {
	var out []Country
	for _, c := range Countries() {
		if c.Region == r {
			out = append(out, c)
		}
	}
	return out
}

// CoastalCountries returns all countries with submarine-cable landing
// potential, sorted by code.
func CoastalCountries() []Country {
	var out []Country
	for _, c := range Countries() {
		if c.Coastal {
			out = append(out, c)
		}
	}
	return out
}

// ParseRegion recognizes a region name in free text (case-insensitive,
// with a few aliases used in measurement queries).
func ParseRegion(s string) (Region, bool) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "europe", "eu", "european":
		return Europe, true
	case "asia", "asian", "apac":
		return Asia, true
	case "north america", "na", "northern america":
		return NorthAmerica, true
	case "south america", "latam", "latin america":
		return SouthAmerica, true
	case "africa", "african":
		return Africa, true
	case "middle east", "mideast", "gulf":
		return MiddleEast, true
	case "oceania", "pacific", "australasia":
		return Oceania, true
	}
	return "", false
}

// RegionOf returns the region of a country code, or false when unknown.
func RegionOf(code string) (Region, bool) {
	c, ok := CountryByCode(code)
	if !ok {
		return "", false
	}
	return c.Region, true
}

// Midpoint returns the geographic midpoint of two coordinates. It is a
// simple spherical midpoint, good enough for cable way-pointing.
func Midpoint(a, b Coord) Coord {
	lat1, lng1 := a.Lat*degToRad, a.Lng*degToRad
	lat2, lng2 := b.Lat*degToRad, b.Lng*degToRad

	bx := math.Cos(lat2) * math.Cos(lng2-lng1)
	by := math.Cos(lat2) * math.Sin(lng2-lng1)
	lat3 := math.Atan2(math.Sin(lat1)+math.Sin(lat2),
		math.Sqrt((math.Cos(lat1)+bx)*(math.Cos(lat1)+bx)+by*by))
	lng3 := lng1 + math.Atan2(by, math.Cos(lat1)+bx)

	return Coord{Lat: lat3 / degToRad, Lng: math.Mod(lng3/degToRad+540, 360) - 180}
}
