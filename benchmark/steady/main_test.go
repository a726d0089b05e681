package main

import "testing"

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.1, 1.2, 8.8, 4.4, 5.0}, 2.15, 4.4, 6.9},
		{[]float64{2, 9}, 0.25, 5.5, 10.75},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		for i, pair := range [][2]float64{{q1, c.q1}, {q2, c.q2}, {q3, c.q3}} {
			if d := pair[0] - pair[1]; d > 1e-9 || d < -1e-9 {
				t.Errorf("quartiles(%v)[%d] = %v, want %v", c.xs, i, pair[0], pair[1])
			}
		}
	}
}
