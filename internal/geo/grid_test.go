package geo

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// The PHY treats carrier-sense range as inclusive (d² <= r²), so the grid
// must too: an item exactly on the query circle is a hit.
func TestGridWithinRangeInclusiveBoundary(t *testing.T) {
	g := NewGrid(Field(1000, 1000), 250)
	g.Update(1, Point{500, 500})
	g.Update(2, Point{750, 500}) // exactly radius away
	g.Update(3, Point{750.0001, 500})

	got := within(g, Point{500, 500}, 250)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("boundary item mishandled: %v", got)
	}
}

func TestGridRemoveAbsent(t *testing.T) {
	g := NewGrid(Field(100, 100), 10)
	g.Remove(42) // never inserted: must be a no-op, not a panic
	g.Update(1, Point{5, 5})
	g.Remove(42)
	if g.Len() != 1 {
		t.Fatalf("Len = %d after removing an absent id", g.Len())
	}
	if got := within(g, Point{5, 5}, 1); len(got) != 1 {
		t.Fatalf("present item lost: %v", got)
	}
}

// Items crossing a cell boundary in small steps must always be found at
// their current position and never at a stale one.
func TestGridCellBoundaryCrossing(t *testing.T) {
	g := NewGrid(Field(1000, 1000), 100)
	for x := 95.0; x <= 105; x += 1 { // walks across the x=100 cell edge
		g.Update(1, Point{x, 50})
		got := within(g, Point{x, 50}, 0.5)
		if len(got) != 1 || got[0] != 1 {
			t.Fatalf("item lost at x=%v: %v", x, got)
		}
		if prev := within(g, Point{x - 10, 50}, 0.5); len(prev) != 0 {
			t.Fatalf("stale position at x=%v: %v", x, prev)
		}
	}
}

// MarkWithinRange must not allocate: the PHY calls it on every
// transmission with a bitset it keeps.
func TestGridWithinRangeReusesBuffer(t *testing.T) {
	g := NewGrid(Field(1000, 1000), 250)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 64; i++ {
		g.Update(int32(i), Point{rng.Float64() * 1000, rng.Float64() * 1000})
	}
	marks := make([]uint64, 1)
	allocs := testing.AllocsPerRun(100, func() {
		marks[0] = 0
		g.MarkWithinRange(Point{500, 500}, 400, marks)
	})
	if allocs != 0 {
		t.Fatalf("MarkWithinRange allocates %.1f objects/op", allocs)
	}
	if marks[0] == 0 {
		t.Fatal("query marked nothing")
	}
}

// Property: the grid agrees with a brute-force scan even when items and
// query centres stray (far) outside the indexed bounds. Out-of-bounds items
// clamp into edge cells and the query block clamps monotonically, so
// correctness must not depend on the declared bounds at all.
func TestGridOutOfBoundsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		g := NewGrid(Field(500, 500), 100)
		pts := make(map[int32]Point)
		n := 3 + rng.Intn(60)
		for i := 0; i < n; i++ {
			// Positions in [-1000, 2000): most outside the 500x500 bounds.
			p := Point{rng.Float64()*3000 - 1000, rng.Float64()*3000 - 1000}
			pts[int32(i)] = p
			g.Update(int32(i), p)
		}
		for i := 0; i < 20; i++ { // moves, also out of bounds
			id := int32(rng.Intn(n))
			p := Point{rng.Float64()*3000 - 1000, rng.Float64()*3000 - 1000}
			pts[id] = p
			g.Update(id, p)
		}
		centre := Point{rng.Float64()*3000 - 1000, rng.Float64()*3000 - 1000}
		radius := rng.Float64() * 600
		got := within(g, centre, radius)
		var want []int32
		for id, p := range pts {
			if p.DistanceSqTo(centre) <= radius*radius {
				want = append(want, id)
			}
		}
		slices.Sort(want)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %v want %v (centre %v r %v)", trial, got, want, centre, radius)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got %v want %v", trial, got, want)
			}
		}
	}
}

func TestGridResetReusesStorage(t *testing.T) {
	b := Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	g := NewGrid(b, 100)
	for i := int32(0); i < 50; i++ {
		g.Update(i, Point{X: float64(i) * 17, Y: float64(i) * 13})
	}
	if !g.Reset(b, 100) {
		t.Fatal("same geometry must be reusable")
	}
	if g.Len() != 0 {
		t.Fatalf("reset grid holds %d items", g.Len())
	}
	if got := within(g, Point{X: 100, Y: 100}, 1000); len(got) != 0 {
		t.Fatalf("reset grid answered %v", got)
	}
	// Refilled, it behaves like a fresh grid.
	g.Update(7, Point{X: 500, Y: 500})
	if got := within(g, Point{X: 500, Y: 500}, 10); len(got) != 1 || got[0] != 7 {
		t.Fatalf("after reset+update: %v", got)
	}
	// Any geometry change refuses reuse and leaves the grid untouched.
	if g.Reset(Rect{MinX: 0, MinY: 0, MaxX: 2000, MaxY: 1000}, 100) {
		t.Fatal("wider bounds must not be reusable")
	}
	if g.Reset(b, 90) {
		t.Fatal("different cell size must not be reusable")
	}
	if g.Reset(Rect{MinX: 1, MinY: 0, MaxX: 1001, MaxY: 1000}, 100) {
		t.Fatal("shifted origin must not be reusable")
	}
	if got, ok := g.Position(7); !ok || got != (Point{X: 500, Y: 500}) {
		t.Fatal("refused reset must not disturb contents")
	}
}

// words is the bitset length that covers every id the grid has seen.
func words(g *Grid) int { return (len(g.where) + 63) / 64 }

// setBits lists the set bits of marks lowest first.
func setBits(marks []uint64) []int32 {
	var ids []int32
	for w, word := range marks {
		for word != 0 {
			ids = append(ids, int32(w<<6+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return ids
}

// within is the ascending id list of one MarkWithinRange answer.
func within(g *Grid, centre Point, radius float64) []int32 {
	marks := make([]uint64, words(g))
	g.MarkWithinRange(centre, radius, marks)
	return setBits(marks)
}

// checkHits asserts that one MarkWithinRange answer marks exactly the items
// a brute-force scan over pts finds within radius of centre, that Position
// returns each marked item's stored position, and that bits the query had
// no business with (a sentinel in an extra word) survive it.
func checkHits(t *testing.T, g *Grid, pts map[int32]Point, centre Point, radius float64) {
	t.Helper()
	n := words(g)
	marks := make([]uint64, n+1)
	const sentinel = 1 << 37
	marks[n] = sentinel
	g.MarkWithinRange(centre, radius, marks)
	if marks[n] != sentinel {
		t.Fatalf("centre %v r %v: bits outside the grid's ids changed: %#x", centre, radius, marks[n])
	}
	hits := setBits(marks[:n])
	var want []int32
	for id, p := range pts {
		if p.DistanceSqTo(centre) <= radius*radius {
			want = append(want, id)
		}
	}
	slices.Sort(want)
	if !slices.Equal(hits, want) {
		t.Fatalf("centre %v r %v: marked %v, want %v", centre, radius, hits, want)
	}
	for _, id := range hits {
		if p, ok := g.Position(id); !ok || p != pts[id] {
			t.Fatalf("centre %v r %v: Position(%d) = %v %v, want %v", centre, radius, id, p, ok, pts[id])
		}
	}
}

// Property: under random Update/Remove histories, the bitset MarkWithinRange
// fills, read lowest bit first, is the brute-force answer in ascending ID —
// the ordering contract the PHY relies on instead of sorting.
func TestGridHitsAscendingMatchBruteForce(t *testing.T) {
	// IDs straddling the 64-bit word boundaries of the bitset.
	boundary := []int32{0, 1, 62, 63, 64, 65, 126, 127, 128, 129, 191, 192}
	pick := func(rng *rand.Rand, maxID int) int32 {
		if rng.Intn(2) == 0 {
			return boundary[rng.Intn(len(boundary))]
		}
		return int32(rng.Intn(maxID))
	}
	// history applies n random updates and removes, mirroring them in pts,
	// and checks a query after every step.
	history := func(t *testing.T, rng *rand.Rand, g *Grid, pts map[int32]Point, n, maxID int, span, off float64) {
		for step := 0; step < n; step++ {
			id := pick(rng, maxID)
			if rng.Intn(4) == 0 {
				g.Remove(id)
				delete(pts, id)
			} else {
				p := Point{rng.Float64()*span - off, rng.Float64()*span - off}
				g.Update(id, p)
				pts[id] = p
			}
			if g.Len() != len(pts) {
				t.Fatalf("step %d: Len %d, want %d", step, g.Len(), len(pts))
			}
			centre := Point{rng.Float64()*span - off, rng.Float64()*span - off}
			checkHits(t, g, pts, centre, rng.Float64()*400)
		}
	}

	t.Run("word-boundaries", func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		for trial := 0; trial < 20; trial++ {
			g := NewGrid(Field(1000, 1000), 125)
			history(t, rng, g, map[int32]Point{}, 200, 200, 1000, 0)
		}
	})

	t.Run("reset-reuse-fewer-items", func(t *testing.T) {
		rng := rand.New(rand.NewSource(22))
		g := NewGrid(Field(1000, 1000), 250)
		// A large population first, then ever smaller ones on the same
		// storage: ids and bits from earlier runs must never resurface.
		for _, maxID := range []int{200, 130, 65, 10} {
			if !g.Reset(Field(1000, 1000), 250) {
				t.Fatal("same geometry must be reusable")
			}
			pts := map[int32]Point{}
			for id := int32(0); id < int32(maxID); id++ {
				p := Point{rng.Float64() * 1000, rng.Float64() * 1000}
				g.Update(id, p)
				pts[id] = p
			}
			checkHits(t, g, pts, Point{500, 500}, 2000) // everything
			history(t, rng, g, pts, 100, maxID, 1000, 0)
		}
	})

	t.Run("centres-outside-bounds", func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		for trial := 0; trial < 20; trial++ {
			g := NewGrid(Field(500, 500), 100)
			// Items and centres in [-1000, 2000): mostly off the field.
			history(t, rng, g, map[int32]Point{}, 150, 200, 3000, 1000)
		}
	})
}
