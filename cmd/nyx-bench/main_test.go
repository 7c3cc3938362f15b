package main

import "testing"

func TestCheckArgsRejectsUnknownAblationAndEmptyCells(t *testing.T) {
	for _, c := range []struct {
		ablation string
		reps     int
		ok       bool
	}{
		{"", 3, true},
		{"snappool", 1, true},
		{"all", 12, true},
		{"snapool", 3, false},
		{"Sched", 3, false},
		{"", 0, false},
		{"dirty", -1, false},
	} {
		if err := checkArgs(c.ablation, c.reps); (err == nil) != c.ok {
			t.Errorf("checkArgs(%q, %d) = %v, want ok %v", c.ablation, c.reps, err, c.ok)
		}
	}
}
