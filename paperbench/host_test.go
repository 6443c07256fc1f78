package main

import (
	"math"
	"testing"
)

// TestHostSlowdownScales checks the host slowdown is a finite positive
// ratio and that scaling divides each time by it.
func TestHostSlowdownScales(t *testing.T) {
	s := hostSlowdown()
	if !(s > 0) || math.IsInf(s, 0) {
		t.Fatalf("hostSlowdown() = %v, want a finite positive ratio", s)
	}
	got := scaled([]float64{3, 1.5, 0}, 1.5)
	want := []float64{2, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scaled = %v, want %v", got, want)
		}
	}
}
