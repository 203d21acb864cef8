package main

import (
	"strings"
	"testing"
	"time"
)

// goodConfig is a baseline that must validate; each case mutates one flag.
func goodConfig() config {
	return config{
		dataset:   "CBF",
		series:    40,
		length:    96,
		seed:      1,
		technique: "uema",
		sigma:     0.6,
		queryIdx:  0,
		k:         10,
		mode:      "match",
		topk:      5,
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*config)
		wantErr string // substring of the expected error; empty = valid
	}{
		{"baseline", func(c *config) {}, ""},
		{"topk mode", func(c *config) { c.mode = "topk"; c.technique = "dtw" }, ""},
		{"probrange proud", func(c *config) { c.mode = "probrange"; c.technique = "proud"; c.tau = 0.05 }, ""},
		{"probrange munich tau 1", func(c *config) { c.mode = "probrange"; c.technique = "munich"; c.tau = 1 }, ""},
		{"probrange calibrated tau", func(c *config) { c.mode = "probrange"; c.technique = "munich" }, ""},
		{"match dtw", func(c *config) { c.technique = "dtw" }, ""},
		{"mixed case", func(c *config) { c.mode = "TopK"; c.technique = "DTW" }, ""},
		{"csv skips generation checks", func(c *config) { c.csvPath = "data.csv"; c.series = 0; c.length = 0 }, ""},

		{"unknown mode", func(c *config) { c.mode = "fuzzy" }, "unknown mode"},
		{"unknown technique", func(c *config) { c.technique = "cosine" }, "unknown technique"},
		{"topk with proud", func(c *config) { c.mode = "topk"; c.technique = "proud" }, "no top-k measure"},
		{"topk with munich", func(c *config) { c.mode = "topk"; c.technique = "munich" }, "no top-k measure"},
		{"probrange with dtw", func(c *config) { c.mode = "probrange"; c.technique = "dtw" }, "no probabilistic measure"},
		{"k zero", func(c *config) { c.k = 0 }, "-k = 0"},
		{"k negative", func(c *config) { c.k = -3 }, "-k = -3"},
		{"k not below series", func(c *config) { c.k = 40 }, "needs more than"},
		{"topk zero", func(c *config) { c.mode = "topk"; c.technique = "dtw"; c.topk = 0 }, "-topk = 0"},
		{"one series", func(c *config) { c.series = 1 }, "-series"},
		{"zero length", func(c *config) { c.length = 0 }, "-length"},
		{"negative query", func(c *config) { c.queryIdx = -1 }, "-query"},
		{"negative sigma", func(c *config) { c.sigma = -0.5 }, "-sigma"},
		{"negative eps", func(c *config) { c.eps = -2 }, "-eps"},
		{"negative tau", func(c *config) { c.tau = -0.1 }, "-tau"},
		{"tau one for proud", func(c *config) { c.mode = "probrange"; c.technique = "proud"; c.tau = 1 }, "-tau"},
		{"tau above one", func(c *config) { c.mode = "probrange"; c.technique = "munich"; c.tau = 1.5 }, "-tau"},
		{"negative timeout", func(c *config) { c.timeout = -time.Second }, "-timeout"},

		{"generated band", func(c *config) { c.mode = "topk"; c.technique = "dtw"; c.band = 4 }, ""},
		{"generated band unconstrained", func(c *config) { c.mode = "topk"; c.technique = "dtw"; c.band = -1 }, ""},
		{"data topk", func(c *config) { c.dataDir = "d"; c.mode = "topk"; c.technique = "dtw"; c.series = 0; c.length = 0 }, ""},
		{"data probrange explicit", func(c *config) {
			c.dataDir = "d"
			c.mode = "probrange"
			c.technique = "proud"
			c.eps = 3
			c.tau = 0.1
		}, ""},
		{"data with csv", func(c *config) { c.dataDir = "d"; c.csvPath = "x.csv"; c.mode = "topk"; c.technique = "dtw" }, "mutually exclusive"},
		{"data match mode", func(c *config) { c.dataDir = "d" }, "ground truth"},
		{"data probrange without eps", func(c *config) { c.dataDir = "d"; c.mode = "probrange"; c.technique = "proud"; c.tau = 0.1 }, "explicit -eps"},
		{"data probrange without tau", func(c *config) { c.dataDir = "d"; c.mode = "probrange"; c.technique = "proud"; c.eps = 3 }, "explicit -eps"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := goodConfig()
			tc.mutate(&cfg)
			err := validate(cfg)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate(%+v) = %v, want nil", cfg, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validate(%+v) = nil, want error containing %q", cfg, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validate error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestCheckBand: -band is the generated corpus' geometry; against a
// persisted corpus (-data) it may only agree with the band the corpus was
// built under, and the refusal names that band.
func TestCheckBand(t *testing.T) {
	for _, tc := range []struct {
		name            string
		band, persisted int
		wantErr         string
	}{
		{"unset", 0, 9, ""},
		{"agrees", 9, 9, ""},
		{"unconstrained agrees", -1, -1, ""},
		{"disagrees", 4, 9, "built with band 9"},
		{"constrains an unconstrained corpus", 4, -1, "built with band -1"},
		{"unconstrains a banded corpus", -1, 9, "built with band 9"},
	} {
		err := checkBand(tc.band, tc.persisted)
		if (err == nil) != (tc.wantErr == "") || (err != nil && !strings.Contains(err.Error(), tc.wantErr)) {
			t.Errorf("%s: checkBand(%d, %d) = %v, want error containing %q", tc.name, tc.band, tc.persisted, err, tc.wantErr)
		}
	}
}
