package main

import "testing"

// Every experiment reproduces its claim of the paper: each asserts what it
// prints, so a figure or theorem the code no longer meets fails here.
func TestExperiments(t *testing.T) {
	if len(experiments) != 20 {
		t.Fatalf("%d experiments, want the paper's E1–E20", len(experiments))
	}
	for _, e := range experiments {
		t.Run(e.id, func(t *testing.T) {
			if err := e.run(); err != nil {
				t.Fatalf("%s (%s): %v", e.id, e.title, err)
			}
		})
	}
}
