package experiments

import (
	"reflect"
	"testing"

	"norman/internal/stats"
)

// TestDeterminism backs the reproduction's core methodological claim: the
// virtual-time simulation produces bit-identical results across runs, so
// every number in EXPERIMENTS.md is exactly reproducible.
func TestDeterminism(t *testing.T) {
	r1, _ := RunE1(0.1)
	r2, _ := RunE1(0.1)
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("E1 runs differ:\n%+v\n%+v", r1, r2)
	}

	p1, _ := RunE5(0.2)
	p2, _ := RunE5(0.2)
	if !reflect.DeepEqual(p1, p2) {
		t.Fatalf("E5 runs differ:\n%+v\n%+v", p1, p2)
	}

	rows1, _ := RunE7(0.1)
	rows2, _ := RunE7(0.1)
	if !reflect.DeepEqual(rows1, rows2) {
		t.Fatalf("E7 runs differ")
	}
}

// TestWorkerWidthDeterminism pins the E13–E16 tables at any worker-pool
// width: the tenant scheduler's grant rings, the DDIO partition, the flow
// cache's clock hands and partition quotas, the seeded fault schedule, the
// health monitor and the upgrade canary all advance in virtual time with
// sorted iteration everywhere, so both the typed rows and the rendered table
// are byte-identical between a 1-worker and an 8-worker run.
func TestWorkerWidthDeterminism(t *testing.T) {
	cases := []struct {
		name      string
		scale     Scale
		faultSeed string // NORMAN_FAULT_SEED; empty leaves the environment as is
		run       func(Scale) (any, *stats.Table)
	}{
		{"E13", 0.12, "", func(s Scale) (any, *stats.Table) { return RunE13(s) }},
		{"E14", 0.12, "", func(s Scale) (any, *stats.Table) { return RunE14(s) }},
		{"E15", 0.12, "7", func(s Scale) (any, *stats.Table) { return RunE15(s) }},
		{"E16", 0.12, "7", func(s Scale) (any, *stats.Table) { return RunE16(s) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.faultSeed != "" {
				t.Setenv("NORMAN_FAULT_SEED", c.faultSeed)
			}
			prev := SetWorkers(1)
			defer SetWorkers(prev)
			seq, seqTable := c.run(c.scale)

			SetWorkers(8)
			wide, wideTable := c.run(c.scale)
			if !reflect.DeepEqual(seq, wide) {
				t.Fatalf("%s rows differ between 1 and 8 workers:\n%+v\n%+v", c.name, seq, wide)
			}
			if seqTable.String() != wideTable.String() {
				t.Fatalf("%s tables differ between 1 and 8 workers:\n%s\n%s",
					c.name, seqTable.String(), wideTable.String())
			}
		})
	}
}
