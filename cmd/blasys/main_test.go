package main

import "testing"

func TestChange(t *testing.T) {
	for _, tc := range []struct {
		accurate, approx float64
		want             string
	}{
		{100, 80, "-20.0%"},
		{100, 101.6, "+1.6%"},
		{100, 100, "+0.0%"},
		{0.25, 0.125, "-50.0%"},
		{0, 5, "n/a"},
	} {
		if got := change(tc.accurate, tc.approx); got != tc.want {
			t.Errorf("change(%g, %g) = %q, want %q", tc.accurate, tc.approx, got, tc.want)
		}
	}
}
