package netsim

import (
	"fmt"
	"math/rand/v2"
	"net/netip"
	"sort"

	"arachnet/internal/geo"
)

// Generate builds a world from a configuration. It is deterministic: the
// same Config always produces the same world.
func Generate(cfg Config) (*World, error) {
	if cfg.StubsPerCountry < 0 || cfg.Tier1Count < 1 {
		return nil, fmt.Errorf("netsim: invalid config: need at least one tier-1 AS")
	}
	countries, err := resolveCountries(cfg.Countries)
	if err != nil {
		return nil, err
	}

	g := &generator{
		cfg:       cfg,
		rng:       rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15)),
		countries: countries,
		byRegion:  groupByRegion(countries),
		w:         &World{Cfg: cfg, Countries: countries},
	}
	g.makeASes()
	g.makeASLinks()
	g.makeRouters()
	g.makeIPLinks()
	g.w.buildIndexes()
	return g.w, nil
}

func resolveCountries(codes []string) ([]geo.Country, error) {
	if len(codes) == 0 {
		return geo.Countries(), nil
	}
	out := make([]geo.Country, 0, len(codes))
	for _, code := range codes {
		c, ok := geo.CountryByCode(code)
		if !ok {
			return nil, fmt.Errorf("netsim: unknown country code %q", code)
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Code < out[j].Code })
	return out, nil
}

func groupByRegion(cs []geo.Country) map[geo.Region][]geo.Country {
	m := make(map[geo.Region][]geo.Country)
	for _, c := range cs {
		m[c.Region] = append(m[c.Region], c)
	}
	return m
}

type generator struct {
	cfg       Config
	rng       *rand.Rand
	countries []geo.Country
	byRegion  map[geo.Region][]geo.Country
	w         *World

	nextASN ASN
	addrHi  uint32 // next /24 index inside 10.0.0.0/8
}

// regionsInPlay returns regions that actually have countries, in
// deterministic order.
func (g *generator) regionsInPlay() []geo.Region {
	var out []geo.Region
	for _, r := range geo.AllRegions() {
		if len(g.byRegion[r]) > 0 {
			out = append(out, r)
		}
	}
	return out
}

// pick returns up to n distinct elements of xs chosen deterministically.
func pick[T any](rng *rand.Rand, xs []T, n int) []T {
	if n >= len(xs) {
		out := make([]T, len(xs))
		copy(out, xs)
		return out
	}
	idx := rng.Perm(len(xs))[:n]
	sort.Ints(idx)
	out := make([]T, 0, n)
	for _, i := range idx {
		out = append(out, xs[i])
	}
	return out
}

func (g *generator) allocASN() ASN {
	if g.nextASN == 0 {
		g.nextASN = 100
	}
	g.nextASN++
	return g.nextASN
}

func (g *generator) makeASes() {
	regions := g.regionsInPlay()

	// Tier-1: global backbones present in a spread of countries across
	// every region.
	for i := 0; i < g.cfg.Tier1Count; i++ {
		var presence []string
		for _, r := range regions {
			per := 3
			if len(g.byRegion[r]) < per {
				per = len(g.byRegion[r])
			}
			for _, c := range pick(g.rng, g.byRegion[r], per) {
				presence = append(presence, c.Code)
			}
		}
		sort.Strings(presence)
		home := presence[g.rng.IntN(len(presence))]
		g.w.ASes = append(g.w.ASes, AS{
			ASN: g.allocASN(), Name: fmt.Sprintf("backbone-%d", i+1),
			Tier: Tier1, Home: home, Presence: presence,
		})
	}

	// Tier-2: regional providers.
	for _, r := range regions {
		for i := 0; i < g.cfg.Tier2PerRegion; i++ {
			per := 6
			if len(g.byRegion[r]) < per {
				per = len(g.byRegion[r])
			}
			var presence []string
			for _, c := range pick(g.rng, g.byRegion[r], per) {
				presence = append(presence, c.Code)
			}
			sort.Strings(presence)
			home := presence[g.rng.IntN(len(presence))]
			g.w.ASes = append(g.w.ASes, AS{
				ASN: g.allocASN(), Name: fmt.Sprintf("regional-%s-%d", shortRegion(r), i+1),
				Tier: Tier2, Home: home, Presence: presence,
			})
		}
	}

	// Stubs: edge networks, one country each.
	for _, c := range g.countries {
		for i := 0; i < g.cfg.StubsPerCountry; i++ {
			g.w.ASes = append(g.w.ASes, AS{
				ASN: g.allocASN(), Name: fmt.Sprintf("edge-%s-%d", c.Code, i+1),
				Tier: Stub, Home: c.Code, Presence: []string{c.Code},
			})
		}
	}

	// Content networks: present at major hubs in several regions.
	for i := 0; i < g.cfg.ContentCount; i++ {
		var presence []string
		for _, r := range regions {
			per := 2
			if len(g.byRegion[r]) < per {
				per = len(g.byRegion[r])
			}
			for _, c := range pick(g.rng, g.byRegion[r], per) {
				presence = append(presence, c.Code)
			}
		}
		sort.Strings(presence)
		home := presence[g.rng.IntN(len(presence))]
		g.w.ASes = append(g.w.ASes, AS{
			ASN: g.allocASN(), Name: fmt.Sprintf("cdn-%d", i+1),
			Tier: Content, Home: home, Presence: presence,
		})
	}
}

func shortRegion(r geo.Region) string {
	switch r {
	case geo.Europe:
		return "eu"
	case geo.Asia:
		return "as"
	case geo.NorthAmerica:
		return "na"
	case geo.SouthAmerica:
		return "sa"
	case geo.Africa:
		return "af"
	case geo.MiddleEast:
		return "me"
	case geo.Oceania:
		return "oc"
	}
	return "xx"
}

// asesOfTier returns the generated ASes of one tier, in ASN order.
func (g *generator) asesOfTier(t Tier) []AS {
	var out []AS
	for _, a := range g.w.ASes {
		if a.Tier == t {
			out = append(out, a)
		}
	}
	return out
}

func presenceOverlap(a, b AS) int {
	set := make(map[string]bool, len(a.Presence))
	for _, c := range a.Presence {
		set[c] = true
	}
	n := 0
	for _, c := range b.Presence {
		if set[c] {
			n++
		}
	}
	return n
}

func hasPresence(a AS, code string) bool {
	for _, c := range a.Presence {
		if c == code {
			return true
		}
	}
	return false
}

func regionOfAS(a AS) geo.Region {
	r, _ := geo.RegionOf(a.Home)
	return r
}

func (g *generator) addASLink(a, b ASN, rel Relationship) {
	if a == b {
		return
	}
	g.w.ASLinks = append(g.w.ASLinks, ASLink{A: a, B: b, Rel: rel})
}

func (g *generator) makeASLinks() {
	t1 := g.asesOfTier(Tier1)
	t2 := g.asesOfTier(Tier2)
	stubs := g.asesOfTier(Stub)
	cdns := g.asesOfTier(Content)

	// Tier-1 full mesh of settlement-free peering.
	for i := range t1 {
		for j := i + 1; j < len(t1); j++ {
			g.addASLink(t1[i].ASN, t1[j].ASN, PeerToPeer)
		}
	}

	// Tier-2: customer of the 2 tier-1s with the most presence overlap;
	// peer with other tier-2s in the same region.
	for _, a := range t2 {
		providers := rankByOverlap(a, t1)
		for i := 0; i < len(providers) && i < 2; i++ {
			g.addASLink(a.ASN, providers[i].ASN, CustomerToProvider)
		}
	}
	for i := range t2 {
		for j := i + 1; j < len(t2); j++ {
			if regionOfAS(t2[i]) == regionOfAS(t2[j]) {
				g.addASLink(t2[i].ASN, t2[j].ASN, PeerToPeer)
			} else if g.rng.Float64() < 0.15 { // occasional long-haul tier-2 peering
				g.addASLink(t2[i].ASN, t2[j].ASN, PeerToPeer)
			}
		}
	}
	// A transit-free AS without customers is not a tier-1; give any such
	// AS its best-overlapping tier-2 as a customer.
	hasCustomer := map[ASN]bool{}
	for _, l := range g.w.ASLinks {
		if l.Rel == CustomerToProvider {
			hasCustomer[l.B] = true
		}
	}
	for _, p := range t1 {
		if hasCustomer[p.ASN] || len(t2) == 0 {
			continue
		}
		best := rankByOverlap(p, t2)
		g.addASLink(best[0].ASN, p.ASN, CustomerToProvider)
	}

	// Stubs: customer of the tier-2s serving their country; multihome a
	// third of them; a few buy transit straight from a tier-1.
	for _, s := range stubs {
		var local []AS
		for _, p := range t2 {
			if hasPresence(p, s.Home) {
				local = append(local, p)
			}
		}
		if len(local) == 0 {
			// No regional provider in-country: attach to the regional
			// providers of the stub's region.
			for _, p := range t2 {
				if regionOfAS(p) == regionOfAS(s) {
					local = append(local, p)
				}
			}
		}
		if len(local) == 0 {
			local = t1 // degenerate tiny worlds
		}
		first := local[g.rng.IntN(len(local))]
		g.addASLink(s.ASN, first.ASN, CustomerToProvider)
		if len(local) > 1 && g.rng.Float64() < 0.34 {
			second := local[g.rng.IntN(len(local))]
			if second.ASN != first.ASN {
				g.addASLink(s.ASN, second.ASN, CustomerToProvider)
			}
		}
		if g.rng.Float64() < 0.10 {
			up := rankByOverlap(s, t1)
			if len(up) > 0 {
				g.addASLink(s.ASN, up[0].ASN, CustomerToProvider)
			}
		}
	}

	// Content networks: one tier-1 transit plus flat peering with the
	// tier-2s they overlap with.
	for _, c := range cdns {
		up := rankByOverlap(c, t1)
		if len(up) > 0 {
			g.addASLink(c.ASN, up[0].ASN, CustomerToProvider)
		}
		for _, p := range t2 {
			if presenceOverlap(c, p) > 0 && g.rng.Float64() < 0.5 {
				g.addASLink(c.ASN, p.ASN, PeerToPeer)
			}
		}
	}

	dedupeASLinks(g.w)
}

// rankByOverlap sorts candidate ASes by descending presence overlap with
// a, breaking ties by ASN for determinism.
func rankByOverlap(a AS, candidates []AS) []AS {
	out := make([]AS, len(candidates))
	copy(out, candidates)
	sort.Slice(out, func(i, j int) bool {
		oi, oj := presenceOverlap(a, out[i]), presenceOverlap(a, out[j])
		if oi != oj {
			return oi > oj
		}
		return out[i].ASN < out[j].ASN
	})
	return out
}

func dedupeASLinks(w *World) {
	type key struct{ a, b ASN }
	seen := make(map[key]bool)
	var out []ASLink
	for _, l := range w.ASLinks {
		a, b := l.A, l.B
		if l.Rel == PeerToPeer && a > b {
			a, b = b, a
		}
		k := key{a, b}
		rk := key{b, a}
		if seen[k] || seen[rk] {
			continue
		}
		seen[k] = true
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	w.ASLinks = out
}

// allocPrefix hands out the next /24 inside 10.0.0.0/8.
func (g *generator) allocPrefix(origin ASN, country string) netip.Prefix {
	hi := g.addrHi
	g.addrHi++
	addr := netip.AddrFrom4([4]byte{10, byte(hi >> 8), byte(hi), 0})
	p := netip.PrefixFrom(addr, 24)
	g.w.Prefixes = append(g.w.Prefixes, Prefix{CIDR: p, Origin: origin, Country: country})
	return p
}

func (g *generator) makeRouters() {
	var id RouterID
	for _, a := range g.w.ASes {
		for _, code := range a.Presence {
			c, _ := geo.CountryByCode(code)
			id++
			pfx := g.allocPrefix(a.ASN, code)
			jLat := (g.rng.Float64() - 0.5) * 0.4
			jLng := (g.rng.Float64() - 0.5) * 0.4
			g.w.Routers = append(g.w.Routers, Router{
				ID:      id,
				ASN:     a.ASN,
				Country: code,
				Loc:     geo.Coord{Lat: c.Hub.Lat + jLat, Lng: c.Hub.Lng + jLng},
				Addr:    hostAddr(pfx, 1),
			})
		}
	}
}

// hostAddr returns the n-th host address inside a /24.
func hostAddr(p netip.Prefix, n uint8) netip.Addr {
	b := p.Addr().As4()
	b[3] = n
	return netip.AddrFrom4(b)
}

// interfaceAlloc hands out per-prefix interface addresses (.10 upward so
// they never collide with router loopbacks at .1).
type interfaceAlloc map[netip.Prefix]uint8

func (ia interfaceAlloc) next(p netip.Prefix) netip.Addr {
	n, ok := ia[p]
	if !ok {
		n = 10
	}
	ia[p] = n + 1
	return hostAddr(p, n)
}

// asCountry keys a router or prefix by its AS and country.
type asCountry struct {
	asn     ASN
	country string
}

func (g *generator) makeIPLinks() {
	// Index routers by AS and by (AS, country).
	byAS := make(map[ASN][]Router)
	byASCountry := make(map[asCountry]Router)
	for _, r := range g.w.Routers {
		byAS[r.ASN] = append(byAS[r.ASN], r)
		byASCountry[asCountry{r.ASN, r.Country}] = r
	}
	prefixFor := make(map[asCountry]netip.Prefix)
	for _, p := range g.w.Prefixes {
		prefixFor[asCountry{p.Origin, p.Country}] = p.CIDR
	}
	ifaces := make(interfaceAlloc)

	var nextID LinkID
	addLink := func(a, b Router, intraAS bool) {
		ca, _ := geo.CountryByCode(a.Country)
		cb, _ := geo.CountryByCode(b.Country)
		gc := geo.DistanceKm(a.Loc, b.Loc)
		kind := classifyLink(ca, cb, gc)
		nextID++
		g.w.IPLinks = append(g.w.IPLinks, IPLink{
			ID: nextID, A: a.ID, B: b.ID,
			SrcAddr:  ifaces.next(prefixFor[asCountry{a.ASN, a.Country}]),
			DstAddr:  ifaces.next(prefixFor[asCountry{b.ASN, b.Country}]),
			Kind:     kind,
			DistKm:   gc * pathStretch(kind),
			IntraAS:  intraAS,
			ASLinkAB: [2]ASN{a.ASN, b.ASN},
		})
	}

	// Intra-AS backbone: star from the home router plus a ring over the
	// presence footprint, giving every multi-country AS redundancy.
	for _, a := range g.w.ASes {
		routers := byAS[a.ASN]
		if len(routers) < 2 {
			continue
		}
		sort.Slice(routers, func(i, j int) bool { return routers[i].Country < routers[j].Country })
		home := routers[0]
		for _, r := range routers {
			if r.Country == a.Home {
				home = r
				break
			}
		}
		for _, r := range routers {
			if r.ID != home.ID {
				addLink(home, r, true)
			}
		}
		if len(routers) >= 3 {
			for i := range routers {
				next := routers[(i+1)%len(routers)]
				if routers[i].ID == home.ID || next.ID == home.ID {
					continue // star already covers links at the hub
				}
				addLink(routers[i], next, true)
			}
		}
	}

	// Inter-AS links: in every common country (up to two) drop a local
	// interconnect; otherwise join the two geographically closest PoPs.
	for _, l := range g.w.ASLinks {
		ra, rb := byAS[l.A], byAS[l.B]
		var common []string
		for _, x := range ra {
			if _, ok := byASCountry[asCountry{l.B, x.Country}]; ok {
				common = append(common, x.Country)
			}
		}
		sort.Strings(common)
		if len(common) > 0 {
			n := len(common)
			if n > 2 {
				n = 2
			}
			for _, cc := range common[:n] {
				addLink(byASCountry[asCountry{l.A, cc}], byASCountry[asCountry{l.B, cc}], false)
			}
			continue
		}
		// No shared country: closest pair of PoPs.
		best := -1.0
		var ba, bb Router
		for _, x := range ra {
			for _, y := range rb {
				d := geo.DistanceKm(x.Loc, y.Loc)
				if best < 0 || d < best {
					best, ba, bb = d, x, y
				}
			}
		}
		if best >= 0 {
			addLink(ba, bb, false)
		}
	}
}
