package topo

import (
	"fmt"

	"sparsehamming/internal/gf"
)

// NewSlimNoC returns a SlimNoC-style diameter-2 topology for
// N = rows*cols = 2*q^2 tiles, q a prime power.
//
// Construction (the affine-plane core of the MMS graphs that SlimNoC
// is based on): vertices are (part, x, y) with part in {0,1} and
// x, y in GF(q). Part-0 vertex (x, y) is adjacent to part-1 vertex
// (m, c) iff y = m*x + c over GF(q); additionally, vertices within the
// same "column" of a part (same x, respectively same m) form a
// complete graph. This yields diameter exactly 2 and router radix
// 2q - 1 = Theta(sqrt(N)), matching SlimNoC's character. (The original
// MMS construction thins the intra-column cliques using quadratic-
// residue generator sets; that refinement changes the radix constant,
// not the diameter or the routability profile, and is documented as a
// substitution in docs/SUBSTITUTIONS.md.)
//
// Grid placement: part 0 occupies the left q columns with x as the
// column and y as the row; part 1 occupies the right q columns.
// The grid must therefore be q rows by 2q columns (or 2q x q, in
// which case the layout is transposed).
func NewSlimNoC(rows, cols int) (*Topology, error) {
	q, transposed, err := slimNoCShape(rows, cols)
	if err != nil {
		return nil, err
	}
	field, err := gf.New(q)
	if err != nil {
		return nil, fmt.Errorf("topo: slimnoc: %w", err)
	}
	t, err := New("slimnoc", rows, cols)
	if err != nil {
		return nil, err
	}
	place := func(part, x, y int) Coord {
		// Part 0: columns [0, q), part 1: columns [q, 2q); row = y.
		c := Coord{Row: y, Col: part*q + x}
		if transposed {
			c = Coord{Row: c.Col, Col: c.Row}
		}
		return c
	}
	// Intra-column cliques in both parts.
	for part := 0; part < 2; part++ {
		for x := 0; x < q; x++ {
			for y1 := 0; y1 < q; y1++ {
				for y2 := y1 + 1; y2 < q; y2++ {
					t.AddLink(place(part, x, y1), place(part, x, y2))
				}
			}
		}
	}
	// Cross links: (0, x, y) ~ (1, m, c) iff y = m*x + c.
	for x := 0; x < q; x++ {
		for m := 0; m < q; m++ {
			for c := 0; c < q; c++ {
				y := field.Add(field.Mul(m, x), c)
				t.AddLink(place(0, x, y), place(1, m, c))
			}
		}
	}
	return t, nil
}

// SlimNoCApplicable reports whether a SlimNoC can be built on the
// given grid, i.e. whether rows*cols = 2*q^2 for a prime power q with
// a q x 2q (or 2q x q) arrangement.
func SlimNoCApplicable(rows, cols int) bool {
	_, _, err := slimNoCShape(rows, cols)
	return err == nil
}

func slimNoCShape(rows, cols int) (q int, transposed bool, err error) {
	switch {
	case cols == 2*rows:
		q = rows
	case rows == 2*cols:
		q = cols
		transposed = true
	default:
		return 0, false, fmt.Errorf("topo: slimnoc requires a q x 2q grid, got %dx%d", rows, cols)
	}
	if _, _, ok := gf.IsPrimePower(q); !ok {
		return 0, false, fmt.Errorf("topo: slimnoc requires prime-power q, got q=%d", q)
	}
	return q, transposed, nil
}
