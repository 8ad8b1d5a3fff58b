package geo

// The reference distance: DistanceKm as it was before the haversine was
// split into CosLat, Haversine and ArcKm, kept verbatim apart from its
// name.

import (
	"math"
	"math/rand/v2"
	"testing"
)

func refDistanceKm(a, b Coord) float64 {
	const degToRad = math.Pi / 180
	lat1 := a.Lat * degToRad
	lat2 := b.Lat * degToRad
	dLat := (b.Lat - a.Lat) * degToRad
	dLng := (b.Lng - a.Lng) * degToRad

	h := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLng/2)*math.Sin(dLng/2)
	return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
}

// TestDistanceMatchesReference requires DistanceKm, and ArcKm over a
// Haversine with the cosines computed apart, to equal the reference bit
// for bit between every pair of catalog hubs and random coordinates,
// antipodes included.
func TestDistanceMatchesReference(t *testing.T) {
	var pts []Coord
	for _, c := range Countries() {
		pts = append(pts, c.Hub)
	}
	rng := rand.New(rand.NewPCG(3, 4))
	for range 200 {
		c := Coord{Lat: rng.Float64()*180 - 90, Lng: rng.Float64()*360 - 180}
		pts = append(pts, c, Coord{Lat: -c.Lat, Lng: c.Lng + 180})
	}
	for _, a := range pts {
		cosA := CosLat(a)
		for _, b := range pts {
			want := refDistanceKm(a, b)
			if got := DistanceKm(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("DistanceKm(%v, %v) = %v, reference %v", a, b, got, want)
			}
			if got := ArcKm(Haversine(a, b, cosA, CosLat(b))); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("ArcKm(Haversine(%v, %v)) = %v, reference %v", a, b, got, want)
			}
		}
	}
}

// TestArcKmMonotone checks what a nearest-point search that compares
// haversines relies on: ArcKm never decreases as its haversine grows.
// It walks consecutive float64s around the points where math.Asin and
// its arctangent switch formulas, where rounding is likeliest to step
// back, and across random haversines.
func TestArcKmMonotone(t *testing.T) {
	walk := func(h float64, n int) {
		for range n {
			h = math.Nextafter(h, -1)
		}
		prev := ArcKm(h)
		for range 2 * n {
			h = math.Nextafter(h, 2)
			cur := ArcKm(h)
			if cur < prev {
				t.Fatalf("ArcKm(%v) = %v < ArcKm of the float64 below, %v", h, cur, prev)
			}
			prev = cur
		}
	}
	// math.Asin switches at x = 0.7, and its arctangent at ratios 0.66
	// and tan(3π/8), on either side of that switch.
	xs := []float64{0.7}
	for _, r := range []float64{0.66, 2.41421356237309504880} {
		xs = append(xs, r/math.Sqrt(1+r*r), 1/math.Sqrt(1+r*r))
	}
	for _, x := range xs {
		walk(x*x, 20000)
	}
	rng := rand.New(rand.NewPCG(5, 6))
	for range 200 {
		walk(rng.Float64(), 50)
	}
}

// TestHaversineBound requires h >= 0 && h <= HaversineBound(km) to
// agree with ArcKm(h) <= km on every haversine tried: both neighbors of
// each bound, zeros, negatives, NaN and haversines past 1, for radii
// from none to every arc, NaN and negative ones included.
func TestHaversineBound(t *testing.T) {
	radii := []float64{0, 1e-300, 0.5, 1, 350, 400, 450, 500, 600, 3000, 10007.5, 20015, ArcKm(1), math.Inf(1), -1, math.NaN()}
	rng := rand.New(rand.NewPCG(7, 8))
	for range 100 {
		radii = append(radii, rng.Float64()*21000)
	}
	hs := []float64{0, math.Copysign(0, -1), -1e-300, -0.5, 1e-320, 0.25, 1, 1 + 1e-15, 2, math.NaN(), math.Inf(1)}
	for range 200 {
		hs = append(hs, rng.Float64())
	}
	for _, km := range radii {
		bound := HaversineBound(km)
		around := []float64{bound, math.Nextafter(bound, -2), math.Nextafter(bound, 2)}
		for _, h := range append(around, hs...) {
			if got, want := h >= 0 && h <= bound, ArcKm(h) <= km; got != want {
				t.Fatalf("radius %v km, haversine %v: within the bound %v is %v, ArcKm %v <= radius is %v", km, h, bound, got, ArcKm(h), want)
			}
		}
	}
}
