package conform

import (
	"testing"
)

// testOptions scales the exploration budget: the full budget proves each
// conformant reference over hundreds of interleavings; -short keeps CI smoke
// runs fast while exercising the same machinery.
func testOptions() Options {
	if testing.Short() {
		return Options{MaxSchedules: 60, Parallelism: 2}
	}
	return Options{MaxSchedules: 300, Parallelism: 4}
}

// TestReferenceVerdicts locks every reference workload's verdict: conformant
// handlers must prove observational equivalence over the whole explored
// space, non-conformant ones must yield a witness whose replay diverges
// identically — twice, so the witness is deterministic, not a flake.
func TestReferenceVerdicts(t *testing.T) {
	for _, ref := range References() {
		t.Run(ref.Workload.Name, func(t *testing.T) {
			t.Parallel()
			rep, err := Explore(ref.Workload, testOptions())
			if err != nil {
				t.Fatalf("Explore: %v", err)
			}
			if rep.Explored == 0 {
				t.Fatal("explored no schedules")
			}
			if rep.Conformant != ref.WantConformant {
				t.Fatalf("conformant = %v, want %v (%s); witness: %+v",
					rep.Conformant, ref.WantConformant, ref.Why, rep.Witness)
			}
			if ref.WantConformant {
				if rep.Witness != nil {
					t.Errorf("conformant workload carries a witness: %+v", rep.Witness)
				}
				if !rep.BillingOK {
					t.Error("billing diverged from schedule predictions on a conformant workload")
				}
				if !testing.Short() && rep.Explored < 200 {
					t.Errorf("explored %d interleavings, want >= 200", rep.Explored)
				}
				return
			}
			// Non-conformant: the witness must be present, divergent, and
			// replay to the identical divergent digest.
			w := rep.Witness
			if w == nil {
				t.Fatal("non-conformant verdict without a witness")
			}
			if w.Digest == w.BaselineDigest && w.Diff == "" {
				t.Fatalf("witness does not describe a divergence: %+v", w)
			}
			if w.Diff == "" {
				t.Error("witness has no diff")
			}
			r1 := runSchedule(ref.Workload.withDefaults(), w.Schedule)
			if r1.runErr != nil {
				t.Fatalf("witness replay: %v", r1.runErr)
			}
			r2 := runSchedule(ref.Workload.withDefaults(), w.Schedule)
			if r2.runErr != nil {
				t.Fatalf("witness replay (2nd): %v", r2.runErr)
			}
			if r1.Digest != w.Digest || r2.Digest != w.Digest {
				t.Errorf("witness replays diverged from recorded digest: got %x then %x, witness %x",
					r1.Digest, r2.Digest, w.Digest)
			}
			if r1.DigestText != r2.DigestText {
				t.Error("two witness replays produced different state digests")
			}
		})
	}
}

// TestExplorerDeterminism: two full explorations of the same workload are
// byte-identical — same schedules, same outcomes, same digest over the whole
// run.
func TestExplorerDeterminism(t *testing.T) {
	for _, name := range []string{"put-constant", "counter-increment", "publish-sink"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ref := reference(t, name)
			opts := Options{MaxSchedules: 40, Parallelism: 2}
			r1, err := Explore(ref.Workload, opts)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := Explore(ref.Workload, opts)
			if err != nil {
				t.Fatal(err)
			}
			if r1.ExploreDigest != r2.ExploreDigest {
				t.Errorf("exploration digests differ across runs: %x vs %x", r1.ExploreDigest, r2.ExploreDigest)
			}
			if r1.BaselineDigest != r2.BaselineDigest {
				t.Errorf("baseline digests differ: %x vs %x", r1.BaselineDigest, r2.BaselineDigest)
			}
			if r1.Explored != r2.Explored || r1.Conformant != r2.Conformant {
				t.Errorf("run shape differs: explored %d/%d conformant %v/%v",
					r1.Explored, r2.Explored, r1.Conformant, r2.Conformant)
			}
		})
	}
}

// TestScheduleEnumerationShape pins the enumerator's contract: weight order,
// no baseline, cap respected, and enough coverage depth for single-effect
// handlers to clear the 200-interleaving bar.
func TestScheduleEnumerationShape(t *testing.T) {
	opts := Options{}.withDefaults()
	scheds := enumerate(1, 1, false, false, opts)
	if len(scheds) != opts.MaxSchedules {
		t.Errorf("E=1 I=1: %d schedules, want the full cap %d", len(scheds), opts.MaxSchedules)
	}
	last := 0
	seen := map[string]bool{}
	for _, s := range scheds {
		if w := s.weight(); w < last {
			t.Fatalf("weight order violated: %d after %d (%s)", w, last, s)
		} else {
			last = w
		}
		if s.weight() == 0 {
			t.Fatalf("baseline leaked into the enumeration: %s", s)
		}
		if key := s.String(); seen[key] {
			t.Fatalf("duplicate schedule: %s", key)
		} else {
			seen[key] = true
		}
	}
	// Dup-only at I=3: every (d0,d1,d2) in 0..5 except the baseline.
	dups := enumerate(3, 0, false, true, opts)
	if len(dups) != 6*6*6-1 {
		t.Errorf("dup-only I=3: %d schedules, want %d", len(dups), 6*6*6-1)
	}
}

// reference returns the named reference workload.
func reference(t *testing.T, name string) Ref {
	t.Helper()
	for _, r := range References() {
		if r.Workload.Name == name {
			return r
		}
	}
	t.Fatalf("unknown reference workload %q", name)
	return Ref{}
}

// weight is the schedule's total fault count — the explorer's search depth.
func (s Schedule) weight() int {
	w := len(s.DropAcks)
	for _, p := range s.Invs {
		w += len(p.Faults) + p.Dups
	}
	return w
}
