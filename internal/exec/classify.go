package exec

import "ppqtraj/internal/geo"

// Class is the once-per-cell margin classification — the rect filter
// pushed below the decode. It uses the same geometry and epsilon as the
// engine's per-tick candidate filter (query.Engine.STRQRect), so a range
// plan keeps exactly the cells a per-tick probe would.
type Class uint8

const (
	// Reject: no reconstruction inside the cell can pass the margin
	// filter; the cell is skipped before any posting decode.
	Reject Class = iota
	// Check: the cell straddles the margin boundary; every resident
	// needs the per-trajectory reconstruction-distance check.
	Check
	// Accept: the cell lies entirely within the margin of the query
	// rect, so every resident passes without a reconstruction lookup.
	Accept
)

// Classifier carries one query's rect and local-search margin.
type Classifier struct {
	Rect   geo.Rect
	Margin float64
}

// Area is the index-scan area: the query rect expanded by the margin
// (an over-approximation of the Euclidean margin at the corners; the
// corner cells it admits are cut back by Classify).
func (c Classifier) Area() geo.Rect { return c.Rect.Expand(c.Margin) }

// Classify triages one candidate cell against the margin.
func (c Classifier) Classify(cell geo.Rect) Class {
	switch {
	case cell.MinDist(c.Rect) > c.Margin+1e-12:
		return Reject
	case cell.MaxDist(c.Rect) <= c.Margin:
		return Accept
	default:
		return Check
	}
}
