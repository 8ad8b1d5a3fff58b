// Package nautilus reimplements the capability surface of the Nautilus
// cross-layer cartography framework (Ramanathan & Abdu Jyothi, 2023): a
// submarine-cable catalog with landing points, and an inference engine
// that maps IP-level links onto the physical cables they ride, with
// per-candidate confidence scores and speed-of-light validation.
//
// The catalog is synthetic but modeled on the real submarine-cable
// system: cable names, corridors and landing sequences follow their
// real-world counterparts so that measurement queries ("SeaMeWe-5
// failure", "cables between Europe and Asia") are meaningful.
package nautilus

import (
	"fmt"
	"sort"
	"strings"

	"arachnet/internal/geo"
	"arachnet/internal/textmatch"
)

// CableID identifies a submarine cable system.
type CableID string

// LandingPoint is one shore end of a cable.
type LandingPoint struct {
	Country string // ISO code
	City    string
	Loc     geo.Coord
}

// Cable is one submarine cable system. Landings are ordered along the
// cable route; the route length is the sum of hop distances times a
// routing-stretch factor.
type Cable struct {
	ID       CableID
	Name     string
	RFS      int // ready-for-service year
	Landings []LandingPoint
}

// LengthKm returns the route length of the cable.
func (c Cable) LengthKm() float64 {
	return c.SegmentKm(0, len(c.Landings)-1)
}

// SegmentKm returns the along-route distance between two landing
// indexes. The 1.1 factor models slack and hazard-avoidance routing.
func (c Cable) SegmentKm(i, j int) float64 {
	if i > j {
		i, j = j, i
	}
	var km float64
	for k := i; k < j; k++ {
		km += geo.DistanceKm(c.Landings[k].Loc, c.Landings[k+1].Loc)
	}
	return km * 1.1
}

// Countries returns the distinct landing countries in route order.
func (c Cable) Countries() []string {
	seen := map[string]bool{}
	var out []string
	for _, lp := range c.Landings {
		if !seen[lp.Country] {
			seen[lp.Country] = true
			out = append(out, lp.Country)
		}
	}
	return out
}

// LandsIn reports whether the cable has a landing in the given country.
func (c Cable) LandsIn(country string) bool {
	for _, lp := range c.Landings {
		if lp.Country == country {
			return true
		}
	}
	return false
}

// Regions returns the set of regions the cable touches.
func (c Cable) Regions() []geo.Region {
	seen := map[geo.Region]bool{}
	var out []geo.Region
	for _, lp := range c.Landings {
		if r, ok := geo.RegionOf(lp.Country); ok && !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}

// Catalog is the queryable cable database.
type Catalog struct {
	cables    []Cable
	byID      map[CableID]*Cable
	byCountry map[string][]CableID
	// names holds the NormalizeName forms of each cable, index-aligned
	// with cables, so name matching normalizes only the text it is given.
	names []cableNames
	// forms is the automaton over those forms: pattern 3i+k is form k
	// (name, ID, short name) of cables[i].
	forms *textmatch.Matcher
}

// maxCables bounds the catalog, so Mentioned keeps its marks on the
// stack.
const maxCables = 64

// cableNames are the normalized forms a cable is recognized by: its
// name, its ID, and its short name without a parenthetical ("AAE-1" for
// "AAE-1 (Asia-Africa-Europe 1)"), which is empty when there is none.
type cableNames struct {
	name, id, short string
}

func containsNonEmpty(s, sub string) bool {
	return sub != "" && strings.Contains(s, sub)
}

// lp builds a landing point at a country's hub with an offset, giving
// each city a stable synthetic coordinate near the real landing site.
func lp(country, city string, dLat, dLng float64) LandingPoint {
	c, ok := geo.CountryByCode(country)
	if !ok {
		panic(fmt.Sprintf("nautilus: unknown country %q in catalog", country))
	}
	return LandingPoint{
		Country: country, City: city,
		Loc: geo.Coord{Lat: c.Hub.Lat + dLat, Lng: c.Hub.Lng + dLng},
	}
}

// BuildCatalog returns the built-in cable catalog. The returned catalog
// is freshly allocated and safe for the caller to hold.
func BuildCatalog() *Catalog {
	cables := []Cable{
		// ───── Europe ↔ Middle East ↔ Asia corridor ─────
		{ID: "seamewe-5", Name: "SeaMeWe-5", RFS: 2016, Landings: []LandingPoint{
			lp("FR", "Toulon", 0.1, 0.6), lp("IT", "Catania", -0.5, 1.7), lp("TR", "Marmaris", -4.2, 0.3),
			lp("EG", "Zafarana", -2.0, 2.5), lp("SA", "Yanbu", 2.6, -1.1), lp("DJ", "Djibouti City", 0, 0),
			lp("OM", "Qalhat", -0.7, 0.9), lp("AE", "Kalba", 0.0, 1.2), lp("PK", "Karachi", 0, 0),
			lp("IN", "Mumbai", 0, 0), lp("LK", "Matara", -1.0, 0.7), lp("BD", "Kuakata", 0.4, -1.9),
			lp("MM", "Ngwe Saung", 0.1, -1.6), lp("MY", "Malacca", -0.9, 0.6), lp("SG", "Tuas", 0, -0.2),
		}},
		{ID: "seamewe-4", Name: "SeaMeWe-4", RFS: 2005, Landings: []LandingPoint{
			lp("FR", "Marseille", 0, 0), lp("IT", "Palermo", 0, 0), lp("DZ", "Annaba", 0.2, 4.6),
			lp("TN", "Bizerte", 0.4, -0.4), lp("EG", "Alexandria", 0, 0), lp("SA", "Jeddah", 0, 0),
			lp("AE", "Fujairah", 0.1, 1.2), lp("PK", "Karachi", 0, 0), lp("IN", "Chennai", -5.8, 7.4),
			lp("LK", "Colombo", 0, 0), lp("BD", "Cox's Bazar", 0, 0), lp("TH", "Satun", -1.2, 1.6),
			lp("MY", "Penang", 2.3, -1.3), lp("SG", "Tuas", 0, -0.2),
		}},
		{ID: "aae-1", Name: "AAE-1 (Asia-Africa-Europe 1)", RFS: 2017, Landings: []LandingPoint{
			lp("FR", "Marseille", 0, 0), lp("GR", "Chania", -2.5, 0.3), lp("EG", "Abu Talat", 0, -0.8),
			lp("SA", "Jeddah", 0, 0), lp("DJ", "Djibouti City", 0, 0), lp("OM", "Barka", 0.1, -0.7),
			lp("AE", "Fujairah", 0.1, 1.2), lp("QA", "Doha", 0, 0), lp("PK", "Karachi", 0, 0),
			lp("IN", "Mumbai", 0, 0), lp("MM", "Ngwe Saung", 0.1, -1.6), lp("TH", "Songkhla", -0.8, 2.2),
			lp("MY", "Kuala Lumpur", 0, 0), lp("SG", "Tuas", 0, -0.2), lp("KH", "Sihanoukville", 0, 0),
			lp("VN", "Vung Tau", -0.4, 0.6), lp("HK", "Tseung Kwan O", 0, 0.1),
		}},
		{ID: "falcon", Name: "FALCON", RFS: 2006, Landings: []LandingPoint{
			lp("EG", "Suez", -1.2, 3.4), lp("SA", "Jeddah", 0, 0), lp("OM", "Muscat", 0, 0),
			lp("AE", "Al Fujayrah", 0.1, 1.2), lp("QA", "Doha", 0, 0), lp("BH", "Manama", 0, 0),
			lp("KW", "Kuwait City", 0, 0), lp("IQ", "Al-Faw", 0, 0), lp("IN", "Mumbai", 0, 0),
		}},
		{ID: "imewe", Name: "IMEWE", RFS: 2010, Landings: []LandingPoint{
			lp("FR", "Marseille", 0, 0), lp("IT", "Catania", -0.5, 1.7), lp("EG", "Alexandria", 0, 0),
			lp("SA", "Jeddah", 0, 0), lp("AE", "Fujairah", 0.1, 1.2), lp("PK", "Karachi", 0, 0),
			lp("IN", "Mumbai", 0, 0),
		}},
		{ID: "eig", Name: "Europe India Gateway (EIG)", RFS: 2011, Landings: []LandingPoint{
			lp("GB", "Bude", -0.7, -4.4), lp("PT", "Sesimbra", -0.6, 0.1), lp("ES", "Gibraltar", 0, 0),
			lp("MT", "Marsaxlokk", -0.1, 0.1), lp("EG", "Alexandria", 0, 0), lp("SA", "Jeddah", 0, 0),
			lp("DJ", "Djibouti City", 0, 0), lp("OM", "Barka", 0.1, -0.7), lp("AE", "Fujairah", 0.1, 1.2),
			lp("IN", "Mumbai", 0, 0),
		}},
		{ID: "flag-ea", Name: "FLAG Europe-Asia", RFS: 1997, Landings: []LandingPoint{
			lp("GB", "Porthcurno", -1.4, -5.4), lp("ES", "Estepona", 0.2, 0.2), lp("IT", "Palermo", 0, 0),
			lp("EG", "Alexandria", 0, 0), lp("JO", "Aqaba", 0, 0), lp("SA", "Jeddah", 0, 0),
			lp("AE", "Fujairah", 0.1, 1.2), lp("IN", "Mumbai", 0, 0), lp("MY", "Penang", 2.3, -1.3),
			lp("TH", "Satun", -1.2, 1.6), lp("HK", "Lantau", 0, -0.3), lp("CN", "Shanghai", 0, 0),
			lp("KR", "Keoje", 0.5, -0.4), lp("JP", "Ninomiya", -0.4, -0.4),
		}},
		{ID: "pakcable", Name: "PEACE (Pakistan & East Africa Connecting Europe)", RFS: 2022, Landings: []LandingPoint{
			lp("FR", "Marseille", 0, 0), lp("MT", "Marsaxlokk", -0.1, 0.1), lp("EG", "Zafarana", -2.0, 2.5),
			lp("KE", "Mombasa", 0, 0), lp("PK", "Karachi", 0, 0), lp("SG", "Tuas", 0, -0.2),
		}},

		// ───── Intra-Mediterranean / Europe ─────
		{ID: "medloop", Name: "MedLoop", RFS: 2009, Landings: []LandingPoint{
			lp("ES", "Barcelona", 5.2, -3.2), lp("FR", "Marseille", 0, 0), lp("IT", "Genoa", 6.3, -4.5),
			lp("GR", "Athens", 0, 0), lp("CY", "Yeroskipou", 0.1, -0.6), lp("IL", "Tel Aviv", 0, 0),
		}},
		{ID: "atlas-offshore", Name: "Atlas Offshore", RFS: 2007, Landings: []LandingPoint{
			lp("FR", "Marseille", 0, 0), lp("MA", "Asilah", 2.0, -1.0),
		}},
		{ID: "celtic", Name: "Celtic Norse", RFS: 2000, Landings: []LandingPoint{
			lp("IE", "Dublin", 0, 0), lp("GB", "Holyhead", 1.8, -4.5), lp("FR", "Lannion", 5.4, -8.8),
		}},
		{ID: "nordbalt", Name: "NordBalt Connect", RFS: 2013, Landings: []LandingPoint{
			lp("SE", "Stockholm", 0, 0), lp("FI", "Helsinki", 0, 0), lp("DE", "Rostock", 4.0, 3.4),
			lp("DK", "Copenhagen", 0, 0), lp("PL", "Kolobrzeg", 1.9, -5.4), lp("NO", "Kristiansand", -0.9, 2.3),
		}},
		{ID: "ukfr", Name: "Channel Crossing", RFS: 2003, Landings: []LandingPoint{
			lp("GB", "Dover", -0.4, 1.4), lp("FR", "Calais", 7.7, -3.5), lp("BE", "Ostend", 0, 0),
			lp("NL", "Katwijk", 0, -0.5),
		}},
		{ID: "blacksea", Name: "Black Sea Fibre", RFS: 2014, Landings: []LandingPoint{
			lp("RO", "Constanța", 0, 0), lp("BG", "Varna", 0, 0), lp("TR", "Istanbul", 0, 0),
		}},

		// ───── Transatlantic ─────
		{ID: "apollo", Name: "Apollo", RFS: 2003, Landings: []LandingPoint{
			lp("GB", "Bude", -0.7, -4.4), lp("FR", "Lannion", 5.4, -8.8), lp("US", "Shirley NY", 0.1, -1.4),
		}},
		{ID: "tat-14", Name: "TAT-14", RFS: 2001, Landings: []LandingPoint{
			lp("US", "Manasquan", -0.6, 0.1), lp("GB", "Bude", -0.7, -4.4), lp("FR", "St-Valery", 6.8, -3.8),
			lp("NL", "Katwijk", 0, -0.5), lp("DE", "Norden", 3.5, -1.5), lp("DK", "Blaabjerg", 0, -4.4),
		}},
		{ID: "marea", Name: "MAREA", RFS: 2017, Landings: []LandingPoint{
			lp("US", "Virginia Beach", -3.9, -1.9), lp("ES", "Bilbao", 7.1, 2.4),
		}},
		{ID: "grace-hopper", Name: "Grace Hopper", RFS: 2022, Landings: []LandingPoint{
			lp("US", "New York", 0, 0), lp("GB", "Bude", -0.7, -4.4), lp("ES", "Bilbao", 7.1, 2.4),
		}},
		{ID: "dunant", Name: "Dunant", RFS: 2021, Landings: []LandingPoint{
			lp("US", "Virginia Beach", -3.9, -1.9), lp("FR", "St-Hilaire", 3.3, -6.9),
		}},
		{ID: "amitie", Name: "Amitié", RFS: 2023, Landings: []LandingPoint{
			lp("US", "Lynn MA", 1.7, 3.0), lp("GB", "Bude", -0.7, -4.4), lp("FR", "Le Porge", 1.5, -6.5),
		}},
		{ID: "hibernia", Name: "Hibernia Express", RFS: 2015, Landings: []LandingPoint{
			lp("CA", "Halifax", 0, 0), lp("IE", "Cork", -1.5, -2.2), lp("GB", "Brean", 0.7, -3.0),
		}},

		// ───── Europe/Americas ↔ South America ─────
		{ID: "ellalink", Name: "EllaLink", RFS: 2021, Landings: []LandingPoint{
			lp("PT", "Sines", -0.8, 0.3), lp("BR", "Fortaleza", 20.2, 7.8),
		}},
		{ID: "sacs", Name: "SACS (South Atlantic Cable System)", RFS: 2018, Landings: []LandingPoint{
			lp("AO", "Luanda", 0, 0), lp("BR", "Fortaleza", 20.2, 7.8),
		}},
		{ID: "monet", Name: "Monet", RFS: 2017, Landings: []LandingPoint{
			lp("US", "Boca Raton", -14.4, 6.0), lp("BR", "Fortaleza", 20.2, 7.8), lp("BR", "Santos", 0, 0),
		}},
		{ID: "seabras", Name: "Seabras-1", RFS: 2017, Landings: []LandingPoint{
			lp("US", "Wall NJ", -0.6, 0.1), lp("BR", "Praia Grande", -0.1, -0.1),
		}},
		{ID: "tannat", Name: "Tannat", RFS: 2018, Landings: []LandingPoint{
			lp("BR", "Santos", 0, 0), lp("UY", "Maldonado", 0.2, 1.2), lp("AR", "Las Toninas", -1.8, 1.7),
		}},
		{ID: "curie", Name: "Curie", RFS: 2020, Landings: []LandingPoint{
			lp("US", "Hermosa Beach", -6.9, -44.4), lp("PA", "Balboa", 0, 0), lp("CL", "Valparaíso", 0, 0),
		}},
		{ID: "samba", Name: "SAm-1", RFS: 2001, Landings: []LandingPoint{
			lp("US", "Boca Raton", -14.4, 6.0), lp("CO", "Barranquilla", 0.6, -0.3), lp("PE", "Lurín", -0.3, 0.2),
			lp("CL", "Arica", 14.6, 1.3), lp("AR", "Las Toninas", -1.8, 1.7), lp("BR", "Santos", 0, 0),
			lp("DO", "Punta Cana", 0.2, 1.5), lp("PA", "Colón", 0.4, -0.4), lp("VE", "Camuri", 0.1, 0.1),
		}},
		{ID: "arcos", Name: "ARCOS-1", RFS: 2001, Landings: []LandingPoint{
			lp("US", "North Miami", -14.8, 5.8), lp("MX", "Cancún", 1.7, 12.2), lp("CR", "Puerto Limón", 0.1, 1.0),
			lp("PA", "Colón", 0.4, -0.4), lp("CO", "Cartagena", 0, 0), lp("VE", "Punto Fijo", 1.2, -3.3),
			lp("DO", "Santo Domingo", 0, 0), lp("CU", "Havana", 0, 0),
		}},

		// ───── Africa ─────
		{ID: "2africa", Name: "2Africa", RFS: 2024, Landings: []LandingPoint{
			lp("GB", "Bude", -0.7, -4.4), lp("PT", "Sesimbra", -0.6, 0.1), lp("SN", "Dakar", 0, 0),
			lp("CI", "Abidjan", 0, 0), lp("GH", "Accra", 0, 0), lp("NG", "Lagos", 0, 0),
			lp("CM", "Douala", 0, 0), lp("AO", "Luanda", 0, 0), lp("ZA", "Cape Town", 0, 0),
			lp("MZ", "Maputo", 0, 0), lp("TZ", "Dar es Salaam", 0, 0), lp("KE", "Mombasa", 0, 0),
			lp("DJ", "Djibouti City", 0, 0), lp("SD", "Port Sudan", 0, 0), lp("SA", "Jeddah", 0, 0),
			lp("EG", "Suez", -1.2, 3.4), lp("IT", "Genoa", 6.3, -4.5), lp("FR", "Marseille", 0, 0),
		}},
		{ID: "wacs", Name: "WACS (West Africa Cable System)", RFS: 2012, Landings: []LandingPoint{
			lp("GB", "Highbridge", 0.8, -3.0), lp("PT", "Seixal", -0.1, 0.0), lp("SN", "Dakar", 0, 0),
			lp("CI", "Abidjan", 0, 0), lp("GH", "Accra", 0, 0), lp("NG", "Lagos", 0, 0),
			lp("CM", "Limbe", 0.0, -0.7), lp("AO", "Sangano", -0.5, 0.2), lp("ZA", "Yzerfontein", 0.8, -0.3),
		}},
		{ID: "eassy", Name: "EASSy", RFS: 2010, Landings: []LandingPoint{
			lp("ZA", "Mtunzini", 4.9, 13.3), lp("MZ", "Maputo", 0, 0), lp("TZ", "Dar es Salaam", 0, 0),
			lp("KE", "Mombasa", 0, 0), lp("DJ", "Djibouti City", 0, 0), lp("SD", "Port Sudan", 0, 0),
		}},
		{ID: "seacom", Name: "SEACOM", RFS: 2009, Landings: []LandingPoint{
			lp("ZA", "Mtunzini", 4.9, 13.3), lp("MZ", "Maputo", 0, 0), lp("TZ", "Dar es Salaam", 0, 0),
			lp("KE", "Mombasa", 0, 0), lp("DJ", "Djibouti City", 0, 0), lp("EG", "Zafarana", -2.0, 2.5),
			lp("FR", "Marseille", 0, 0), lp("IN", "Mumbai", 0, 0),
		}},

		// ───── Intra-Asia / Transpacific / Oceania ─────
		{ID: "apg", Name: "APG (Asia Pacific Gateway)", RFS: 2016, Landings: []LandingPoint{
			lp("SG", "Tuas", 0, -0.2), lp("MY", "Kuantan", 0.7, 1.6), lp("TH", "Sri Racha", 5.2, 2.5),
			lp("VN", "Da Nang", 5.2, 1.6), lp("HK", "Tseung Kwan O", 0, 0.1), lp("CN", "Nanhui", -0.2, 0.4),
			lp("TW", "Toucheng", -0.3, 0.3), lp("KR", "Busan", 0, 0), lp("JP", "Shima", -1.3, -2.9),
		}},
		{ID: "sjc", Name: "SJC (Southeast Asia Japan Cable)", RFS: 2013, Landings: []LandingPoint{
			lp("SG", "Tuas", 0, -0.2), lp("ID", "Batam", -4.9, -2.7), lp("BN", "Tungku", 0, 0),
			lp("PH", "Nasugbu", -0.6, -0.2), lp("HK", "Chung Hom Kok", -0.1, 0.0), lp("CN", "Shantou", -7.9, -4.7),
			lp("JP", "Chikura", -0.7, 0.3),
		}},
		{ID: "aag", Name: "AAG (Asia-America Gateway)", RFS: 2009, Landings: []LandingPoint{
			lp("MY", "Mersing", -0.8, 2.1), lp("SG", "Tuas", 0, -0.2), lp("TH", "Sri Racha", 5.2, 2.5),
			lp("VN", "Vung Tau", -0.4, 0.6), lp("BN", "Tungku", 0, 0), lp("PH", "Currimao", 3.4, -0.5),
			lp("HK", "South Lantau", -0.1, -0.3), lp("GU", "Tanguisson", 0.1, 0.0), lp("US", "Honolulu", -19.0, -83.9),
		}},
		{ID: "unity", Name: "Unity/EAC-Pacific", RFS: 2010, Landings: []LandingPoint{
			lp("JP", "Chikura", -0.7, 0.3), lp("US", "Redondo Beach", -6.8, -44.4),
		}},
		{ID: "faster", Name: "FASTER", RFS: 2016, Landings: []LandingPoint{
			lp("JP", "Shima", -1.3, -2.9), lp("TW", "Tanshui", 0.1, 0.0), lp("US", "Bandon OR", 2.4, -50.5),
		}},
		{ID: "jupiter", Name: "JUPITER", RFS: 2020, Landings: []LandingPoint{
			lp("JP", "Shima", -1.3, -2.9), lp("PH", "Daet", -0.5, 1.9), lp("US", "Hermosa Beach", -6.9, -44.4),
		}},
		{ID: "tpe", Name: "TPE (Trans-Pacific Express)", RFS: 2008, Landings: []LandingPoint{
			lp("CN", "Qingdao", 4.8, -1.1), lp("KR", "Keoje", 0.5, -0.4), lp("TW", "Tanshui", 0.1, 0.0),
			lp("JP", "Maruyama", -0.6, 0.2), lp("US", "Nedonna Beach", 4.8, -49.9),
		}},
		{ID: "southern-cross", Name: "Southern Cross", RFS: 2000, Landings: []LandingPoint{
			lp("AU", "Sydney", 0, 0), lp("NZ", "Takapuna", 0, 0), lp("FJ", "Suva", 0, 0),
			lp("US", "Hillsboro OR", 4.6, -48.7),
		}},
		{ID: "indigo", Name: "INDIGO", RFS: 2019, Landings: []LandingPoint{
			lp("SG", "Tuas", 0, -0.2), lp("ID", "Jakarta", 0, 0), lp("AU", "Perth", -1.2, -35.4),
		}},
		{ID: "ajc", Name: "Australia-Japan Cable", RFS: 2001, Landings: []LandingPoint{
			lp("AU", "Sydney", 0, 0), lp("GU", "Tumon Bay", 0.1, 0.0), lp("JP", "Shima", -1.3, -2.9),
		}},
		{ID: "sea-h2x", Name: "SEA-H2X", RFS: 2024, Landings: []LandingPoint{
			lp("SG", "Tuas", 0, -0.2), lp("TH", "Songkhla", -0.8, 2.2), lp("PH", "Batangas", -0.8, 0.1),
			lp("HK", "Tseung Kwan O", 0, 0.1), lp("CN", "Hainan", -11.6, -11.2),
		}},
	}

	if len(cables) > maxCables {
		panic(fmt.Sprintf("nautilus: %d cables exceed maxCables", len(cables)))
	}
	cat := &Catalog{
		cables:    cables,
		byID:      make(map[CableID]*Cable, len(cables)),
		byCountry: make(map[string][]CableID),
		names:     make([]cableNames, len(cables)),
	}
	sort.Slice(cat.cables, func(i, j int) bool { return cat.cables[i].ID < cat.cables[j].ID })
	forms := make([]string, 0, 3*len(cables))
	for i := range cat.cables {
		c := &cat.cables[i]
		cat.byID[c.ID] = c
		for _, cc := range c.Countries() {
			cat.byCountry[cc] = append(cat.byCountry[cc], c.ID)
		}
		n := &cat.names[i]
		n.name, n.id = NormalizeName(c.Name), NormalizeName(string(c.ID))
		if j := strings.IndexByte(c.Name, '('); j > 0 {
			n.short = NormalizeName(c.Name[:j])
		}
		forms = append(forms, n.name, n.id, n.short)
	}
	cat.forms = textmatch.New(forms)
	return cat
}

// Cables returns every cable sorted by ID.
func (cat *Catalog) Cables() []Cable {
	out := make([]Cable, len(cat.cables))
	copy(out, cat.cables)
	return out
}

// Len returns the number of cables.
func (cat *Catalog) Len() int { return len(cat.cables) }

// ByID returns the cable with the given ID.
func (cat *Catalog) ByID(id CableID) (Cable, bool) {
	c, ok := cat.byID[id]
	if !ok {
		return Cable{}, false
	}
	return *c, true
}

// ByName resolves a cable by (case-insensitive) name or ID. It also
// accepts common short forms such as "SeaMeWe-5" vs "seamewe-5".
func (cat *Catalog) ByName(name string) (Cable, bool) {
	norm := NormalizeName(name)
	for i, n := range cat.names {
		if n.id == norm || n.name == norm {
			return cat.cables[i], true
		}
	}
	// Substring match on the canonical name as a fallback.
	for i, n := range cat.names {
		if containsNonEmpty(n.name, norm) {
			return cat.cables[i], true
		}
	}
	return Cable{}, false
}

// Mentioned returns, in ID order, the cables whose name, ID or short
// name (the name without its parenthetical) occurs in norm, a text
// already passed through NormalizeName. It returns nil when none does.
// BuildCatalog builds the automaton over the cables' normalized forms,
// so Mentioned reads norm once.
func (cat *Catalog) Mentioned(norm string) []CableID {
	var hit [3 * maxCables]bool
	cat.forms.Scan(norm, hit[:])
	var out []CableID
	for i := range cat.cables {
		if hit[3*i] || hit[3*i+1] || hit[3*i+2] {
			out = append(out, cat.cables[i].ID)
		}
	}
	return out
}

// NormalizeName lowercases s and keeps only the ASCII letters and
// digits of the result, so "SeaMeWe-5", "seamewe 5" and "SEAMEWE5"
// compare equal. Cable names, IDs and query texts are matched in this
// form.
func NormalizeName(s string) string {
	s = strings.ToLower(s)
	var b strings.Builder
	b.Grow(len(s))
	// Bytes of multi-byte runes and invalid bytes are all ≥ 0x80, so a
	// byte loop keeps exactly the runes a rune loop would.
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') {
			b.WriteByte(c)
		}
	}
	return b.String()
}

// LandingIn returns the IDs of cables landing in a country, sorted.
func (cat *Catalog) LandingIn(country string) []CableID {
	ids := cat.byCountry[country]
	out := make([]CableID, len(ids))
	copy(out, ids)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Between returns cables that land in both regions — the resolver for
// queries like "cables between Europe and Asia".
func (cat *Catalog) Between(a, b geo.Region) []Cable {
	var out []Cable
	for _, c := range cat.cables {
		hasA, hasB := false, false
		for _, r := range c.Regions() {
			if r == a {
				hasA = true
			}
			if r == b {
				hasB = true
			}
		}
		if hasA && hasB {
			out = append(out, c)
		}
	}
	return out
}
