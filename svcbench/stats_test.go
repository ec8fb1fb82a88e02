package main

import (
	"strings"
	"testing"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted input
	}
	got, err := percentile(xs, 90)
	if err != nil {
		t.Fatalf("p90 of 100 samples: %v", err)
	}
	if got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90 (nearest rank)", got)
	}
	if got, _ := percentile(xs, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %g, want 50", got)
	}
	// 99 samples leave only 9 above the p90 rank.
	if _, err := percentile(xs[:99], 90); err == nil || !strings.Contains(err.Error(), "beyond") {
		t.Errorf("p90 of 99 samples: err = %v, want a refusal", err)
	}
	// p99 needs 1000+ samples.
	if _, err := percentile(xs, 99); err == nil {
		t.Error("p99 of 100 samples accepted")
	}
	if _, err := percentile(make([]float64, 1000), 99); err != nil {
		t.Errorf("p99 of 1000 samples: %v", err)
	}
}

func TestMedianAndRatio(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
	if r := ratio(1, 0); r != 0 {
		t.Errorf("ratio(1, 0) = %g, want 0", r)
	}
}

func TestClassAt(t *testing.T) {
	sizes := []int{3, 2}
	for _, c := range []struct{ rank, class, margin int }{
		{0, 0, 0}, {1, 0, 1}, {2, 0, 0}, {3, 1, 0}, {4, 1, 0}, {5, -1, 0},
	} {
		class, margin := classAt(sizes, c.rank)
		if class != c.class || margin != c.margin {
			t.Errorf("classAt(%v, %d) = %d, %d; want %d, %d", sizes, c.rank, class, margin, c.class, c.margin)
		}
	}
}
