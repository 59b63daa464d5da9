package cover

import (
	"encoding/json"
	"fmt"

	"github.com/cyclecover/cyclecover/internal/ring"
)

// coveringJSON is the stable interchange form used by the CLI tools:
// {"n": 7, "cycles": [[0,3,4], ...]}.
type coveringJSON struct {
	N      int     `json:"n"`
	Cycles [][]int `json:"cycles"`
}

// MarshalJSON encodes the covering as its ring size and cycle vertex
// sets.
func (cv *Covering) MarshalJSON() ([]byte, error) {
	out := coveringJSON{N: cv.Ring.N()}
	for _, c := range cv.Cycles {
		out.Cycles = append(out.Cycles, c.Vertices())
	}
	return json.Marshal(out)
}

// FromVertexSets builds a covering over r from raw cycle vertex sets,
// naming the first offending cycle on failure. It is the shared
// reconstruction path for every deserialized covering (JSON interchange,
// cache snapshots, the /verify endpoint), so validation stays in one
// place.
func FromVertexSets(r ring.Ring, sets [][]int) (*Covering, error) {
	// The cycles' vertices are carved from one backing array.
	total := 0
	for _, verts := range sets {
		total += len(verts)
	}
	backing := make([]int, total)
	cv := &Covering{Ring: r, Cycles: make([]Cycle, 0, len(sets))}
	for i, verts := range sets {
		k := len(verts)
		c, err := newCycleIn(r, backing[:k:k], verts)
		backing = backing[k:]
		if err != nil {
			return nil, fmt.Errorf("cycle %d: %w", i, err)
		}
		cv.Cycles = append(cv.Cycles, c)
	}
	return cv, nil
}

// UnmarshalJSON decodes and validates a covering: the ring size must be
// admissible and every cycle a valid DRC cycle (≥3 distinct vertices on
// the ring).
func (cv *Covering) UnmarshalJSON(data []byte) error {
	var in coveringJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("cover: decoding covering: %w", err)
	}
	r, err := ring.New(in.N)
	if err != nil {
		return fmt.Errorf("cover: decoding covering: %w", err)
	}
	decoded, err := FromVertexSets(r, in.Cycles)
	if err != nil {
		return fmt.Errorf("cover: decoding %w", err)
	}
	*cv = *decoded
	return nil
}
