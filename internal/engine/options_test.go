package engine

import (
	"context"
	"errors"
	"math"
	"testing"

	"fastmatch/internal/histogram"
)

func validOptions() Options {
	return Options{Params: testParams(), Executor: FastMatch, Lookahead: 64, StartBlock: -1}
}

func TestOptionsValidateRejectsNonsense(t *testing.T) {
	cases := []struct {
		name  string
		mut   func(*Options)
		field string
	}{
		{"zero K", func(o *Options) { o.Params.K = 0 }, "K"},
		{"negative K", func(o *Options) { o.Params.K = -3 }, "K"},
		{"zero epsilon", func(o *Options) { o.Params.Epsilon = 0 }, "Epsilon"},
		{"negative epsilon", func(o *Options) { o.Params.Epsilon = -0.1 }, "Epsilon"},
		{"NaN epsilon", func(o *Options) { o.Params.Epsilon = math.NaN() }, "Epsilon"},
		{"huge epsilon", func(o *Options) { o.Params.Epsilon = 3 }, "Epsilon"},
		{"delta zero", func(o *Options) { o.Params.Delta = 0 }, "Delta"},
		{"delta one", func(o *Options) { o.Params.Delta = 1 }, "Delta"},
		{"delta NaN", func(o *Options) { o.Params.Delta = math.NaN() }, "Delta"},
		{"sigma negative", func(o *Options) { o.Params.Sigma = -0.01 }, "Sigma"},
		{"sigma one", func(o *Options) { o.Params.Sigma = 1 }, "Sigma"},
		{"negative stage1", func(o *Options) { o.Params.Stage1Samples = -1 }, "Stage1Samples"},
		{"bad krange", func(o *Options) { o.Params.KRange.KMin, o.Params.KRange.KMax = 5, 2 }, "KRange"},
		{"negative rounds", func(o *Options) { o.Params.MaxRounds = -1 }, "MaxRounds"},
		{"unknown metric", func(o *Options) { o.Params.Metric = histogram.Metric(99) }, "Metric"},
		{"unknown executor", func(o *Options) { o.Executor = Executor(42) }, "Executor"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := validOptions()
			tc.mut(&o)
			err := o.Validate()
			var ioe *InvalidOptionsError
			if !errors.As(err, &ioe) {
				t.Fatalf("want *InvalidOptionsError, got %v", err)
			}
			if ioe.Field != tc.field {
				t.Fatalf("want field %q, got %q (%v)", tc.field, ioe.Field, err)
			}
		})
	}
}

func TestOptionsValidateAcceptsDefaults(t *testing.T) {
	if err := validOptions().Validate(); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
}

func TestRunRejectsInvalidOptionsBeforeSampling(t *testing.T) {
	tbl := testDataset(t, 2_000, 8, 5, 1)
	eng := New(tbl)
	p, err := eng.Prepare(baseQuery())
	if err != nil {
		t.Fatal(err)
	}
	opts := validOptions()
	opts.Params.Epsilon = -1
	var ioe *InvalidOptionsError
	if _, err := p.RunContext(context.Background(), Target{Uniform: true}, opts); !errors.As(err, &ioe) {
		t.Fatalf("Plan.RunContext: want *InvalidOptionsError, got %v", err)
	}
	if _, err := eng.Run(baseQuery(), Target{Uniform: true}, opts); !errors.As(err, &ioe) {
		t.Fatalf("Engine.Run: want *InvalidOptionsError, got %v", err)
	}
	// The exact scan path must validate too.
	opts = validOptions()
	opts.Executor = Scan
	opts.Params.K = 0
	if _, err := p.RunContext(context.Background(), Target{Uniform: true}, opts); !errors.As(err, &ioe) {
		t.Fatalf("Scan path: want *InvalidOptionsError, got %v", err)
	}
}

func TestQueryFingerprint(t *testing.T) {
	a := Query{Z: "z", X: []string{"x1", "x2"}}
	b := Query{Z: "z", X: []string{"x1", "x2"}}
	fa, err := a.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fb, _ := b.Fingerprint()
	if fa != fb {
		t.Fatalf("identical queries fingerprint differently:\n%s\n%s", fa, fb)
	}
	// Field-boundary collisions must not happen: the same strings split
	// differently across Z/X are different queries.
	c := Query{Z: "z", X: []string{"x1x2"}}
	fc, _ := c.Fingerprint()
	if fc == fa {
		t.Fatal("distinct queries share a fingerprint")
	}
	d := Query{Z: "z", X: []string{"x1"}, KnownCandidates: []string{"x2"}}
	fd, _ := d.Fingerprint()
	if fd == fa {
		t.Fatal("known-candidates query collides with plain query")
	}
	if _, err := (Query{Z: "z", X: []string{"x"}, Filter: func(int) bool { return true }}).Fingerprint(); err == nil {
		t.Fatal("Filter query must not be fingerprintable")
	}
}

func TestOptionsFingerprintDistinguishesRuns(t *testing.T) {
	a := validOptions()
	b := validOptions()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical options fingerprint differently")
	}
	b.Seed = 7
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("seed change not reflected in fingerprint")
	}
	c := validOptions()
	c.Executor = Scan
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("executor change not reflected in fingerprint")
	}
}

func TestTargetFingerprint(t *testing.T) {
	u := (Target{Uniform: true}).Fingerprint()
	cand := (Target{Candidate: "greece"}).Fingerprint()
	counts := (Target{Counts: []float64{1, 2, 3}}).Fingerprint()
	if u == cand || u == counts || cand == counts {
		t.Fatal("distinct targets share fingerprints")
	}
	if (Target{Counts: []float64{1, 2, 3}}).Fingerprint() != counts {
		t.Fatal("identical counts targets fingerprint differently")
	}
	if (Target{Counts: []float64{1, 2, 4}}).Fingerprint() == counts {
		t.Fatal("different counts share a fingerprint")
	}
	// Fingerprint precedence must track ResolveTarget precedence: with
	// both candidate and uniform set, Uniform wins resolution, so the
	// fingerprint must match the uniform one — not the candidate one.
	both := (Target{Candidate: "greece", Uniform: true}).Fingerprint()
	if both != u {
		t.Fatal("candidate+uniform target must fingerprint as uniform (ResolveTarget precedence)")
	}
	if both == cand {
		t.Fatal("candidate+uniform target must not collide with candidate-only fingerprint")
	}
}
