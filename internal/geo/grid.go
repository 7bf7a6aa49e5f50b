package geo

import "math"

// Grid is a uniform-grid spatial index mapping integer item IDs to points.
// Cell size should be on the order of the query radius; range queries then
// touch only the 3×3 (or slightly larger) block of cells around the centre
// instead of scanning every item.
//
// IDs are small non-negative integers — dense indices such as the PHY's
// radio indices — because per-item storage is indexed by ID: memory grows
// with the largest ID ever inserted, not with the number of live items.
//
// The simulator uses it to find the receivers of a radio transmission: all
// nodes within carrier-sense range of a transmitter.
type Grid struct {
	cell   float64
	origin Point
	cols   int
	rows   int
	cells  [][]int32 // cell index -> ids
	where  []int32   // id -> cell index, -1 when absent
	pos    []Point   // id -> position snapshot (valid while where[id] >= 0)
	n      int       // live items
}

// gridDims derives the cell-array geometry for the given bounds and cell
// size; NewGrid and Reset must agree on it, so it lives in one place.
func gridDims(bounds Rect, cellSize float64) (cols, rows int) {
	if cellSize <= 0 {
		panic("geo: non-positive cell size")
	}
	cols = max(int(math.Ceil(bounds.Width()/cellSize))+1, 1)
	rows = max(int(math.Ceil(bounds.Height()/cellSize))+1, 1)
	return cols, rows
}

// NewGrid creates an index over the given bounds with the given cell size.
// Items may lie outside the bounds (they are clamped to the edge cells), so
// bounds affect only query efficiency, never correctness; this tolerates
// floating-point drift at field borders and nodes wandering off-field.
func NewGrid(bounds Rect, cellSize float64) *Grid {
	cols, rows := gridDims(bounds, cellSize)
	return &Grid{
		cell:   cellSize,
		origin: Point{bounds.MinX, bounds.MinY},
		cols:   cols,
		rows:   rows,
		cells:  make([][]int32, cols*rows),
	}
}

func (g *Grid) cellIndex(p Point) int {
	cx := min(max(int((p.X-g.origin.X)/g.cell), 0), g.cols-1)
	cy := min(max(int((p.Y-g.origin.Y)/g.cell), 0), g.rows-1)
	return cy*g.cols + cx
}

// Update inserts the item or moves it to a new position. Negative IDs
// panic.
func (g *Grid) Update(id int32, p Point) {
	if id < 0 {
		panic("geo: negative grid item id")
	}
	for int(id) >= len(g.where) {
		g.where = append(g.where, -1)
		g.pos = append(g.pos, Point{})
	}
	newCell := int32(g.cellIndex(p))
	g.pos[id] = p
	switch old := g.where[id]; old {
	case newCell:
		return
	case -1:
		g.n++
	default:
		g.removeFromCell(id, old)
	}
	g.cells[newCell] = append(g.cells[newCell], id)
	g.where[id] = newCell
}

// Remove deletes the item; removing an absent item is a no-op.
func (g *Grid) Remove(id int32) {
	if id < 0 || int(id) >= len(g.where) || g.where[id] < 0 {
		return
	}
	g.removeFromCell(id, g.where[id])
	g.where[id] = -1
	g.n--
}

func (g *Grid) removeFromCell(id, cell int32) {
	items := g.cells[cell]
	for i := range items {
		if items[i] == id {
			items[i] = items[len(items)-1]
			g.cells[cell] = items[:len(items)-1]
			return
		}
	}
}

// Len returns the number of indexed items.
func (g *Grid) Len() int { return g.n }

// Reset empties the grid for reuse under the given geometry, keeping the
// per-cell item storage and the per-id arrays. It reports false — and
// changes nothing — when the geometry (cell size, origin, or grid
// dimensions) differs from the existing one, in which case the caller must
// allocate a fresh grid. Reusing the storage matters to batch executors
// (experiment sweeps) that rebuild the same field thousands of times.
func (g *Grid) Reset(bounds Rect, cellSize float64) bool {
	cols, rows := gridDims(bounds, cellSize)
	if cellSize != g.cell || cols != g.cols || rows != g.rows ||
		(Point{bounds.MinX, bounds.MinY}) != g.origin {
		return false
	}
	for i := range g.cells {
		g.cells[i] = g.cells[i][:0]
	}
	for i := range g.where {
		g.where[i] = -1
	}
	g.n = 0
	return true
}

// Position returns the stored position of an item.
func (g *Grid) Position(id int32) (Point, bool) {
	if id < 0 || int(id) >= len(g.where) || g.where[id] < 0 {
		return Point{}, false
	}
	return g.pos[id], true
}

// MarkWithinRange sets bit id of marks for every item within radius of
// centre (inclusive) and leaves the other bits as they are. marks must
// have a bit for every id in the grid. A caller that walks the set bits
// lowest first visits the items in ascending ID order, so the PHY's
// receiver batch needs no sort, and clearing the words as it reads them
// keeps the bitset reusable without allocation.
//
// Both block bounds are clamped into the grid, so a query centred beyond
// the indexed bounds still scans the edge cells where out-of-bounds items
// live: clamping is monotonic, so an item within radius always lands inside
// the scanned block no matter how far either point strays.
func (g *Grid) MarkWithinRange(centre Point, radius float64, marks []uint64) {
	r2 := radius * radius
	minCX := min(max(int((centre.X-radius-g.origin.X)/g.cell), 0), g.cols-1)
	maxCX := min(max(int((centre.X+radius-g.origin.X)/g.cell), 0), g.cols-1)
	minCY := min(max(int((centre.Y-radius-g.origin.Y)/g.cell), 0), g.rows-1)
	maxCY := min(max(int((centre.Y+radius-g.origin.Y)/g.cell), 0), g.rows-1)
	for cy := minCY; cy <= maxCY; cy++ {
		row := g.cells[cy*g.cols+minCX : cy*g.cols+maxCX+1]
		for _, ids := range row {
			for _, id := range ids {
				if g.pos[id].DistanceSqTo(centre) <= r2 {
					marks[id>>6] |= 1 << (id & 63)
				}
			}
		}
	}
}
