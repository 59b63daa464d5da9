package main

import (
	"context"
	"testing"

	cyclecover "github.com/cyclecover/cyclecover"
)

func TestParseDemand(t *testing.T) {
	cases := []struct {
		spec     string
		requests int
		ok       bool
	}{
		{"alltoall", 21, true},
		{"neighbors", 7, true},
		{"lambda:2", 42, true},
		{"hub:3", 6, true},
		{"random:1.0:5", 21, true},
		{"random:0.0:5", 0, true},
		{"lambda:0", 0, false},
		{"lambda:x", 0, false},
		{"lambda:1152921504606846976", 0, false}, // would overflow the edge count
		{"hub:9", 0, false},
		{"hub:-1", 0, false},
		{"random:0.5", 0, false},
		{"random:a:b", 0, false},
		{"bogus", 0, false},
	}
	for _, c := range cases {
		in, err := parseDemand(7, c.spec)
		if c.ok != (err == nil) {
			t.Errorf("parseDemand(%q): err = %v, want ok=%v", c.spec, err, c.ok)
			continue
		}
		if err == nil && in.Requests() != c.requests {
			t.Errorf("parseDemand(%q): %d requests, want %d", c.spec, in.Requests(), c.requests)
		}
	}
}

// TestReportKeysAllToAllOnDemand: the ρ(n) figure and the optimality
// claim follow the demand, not the spec string, so lambda:1 reports K_n
// exactly as alltoall does.
func TestReportKeysAllToAllOnDemand(t *testing.T) {
	cases := []struct {
		spec    string
		rho     int
		optimal bool
	}{
		{"alltoall", 10, true},
		{"lambda:1", 10, true},
		{"lambda:2", 0, false},
		{"hub:3", 0, false},
	}
	for _, c := range cases {
		in, err := parseDemand(9, c.spec)
		if err != nil {
			t.Fatal(err)
		}
		cv, err := cyclecover.CoverInstance(context.Background(), in)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		out, err := report(9, in, "", cv)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if out.Rho != c.rho || out.Optimal != c.optimal {
			t.Errorf("%s: rho %d optimal %v, want %d %v", c.spec, out.Rho, out.Optimal, c.rho, c.optimal)
		}
	}
}
