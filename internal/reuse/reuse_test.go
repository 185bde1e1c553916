package reuse

import "testing"

func TestNilTrackerIsDisabled(t *testing.T) {
	var tr *Tracker
	if tr.Enabled() {
		t.Fatal("nil tracker reports enabled")
	}
	if !tr.ShouldComputeOp(0, 1, 0, 2, 1, None, None) {
		t.Fatal("nil tracker must admit every op")
	}
	if !tr.ShouldComputeMatrix(0, 0, 0.1) {
		t.Fatal("nil tracker must admit every matrix")
	}
	tr.InvalidatePartials(0)
	tr.InvalidateMatrix(0)
	tr.InvalidateScale(0)
	tr.InvalidateModel()
	if s := tr.Stats(); s.Enabled {
		t.Fatal("nil tracker stats report enabled")
	}
}

func TestOpSkipAndCascade(t *testing.T) {
	tr := New(8, 8, 2)
	// First submission: everything computes.
	if !tr.ShouldComputeOp(4, 0, 0, 1, 1, None, None) {
		t.Fatal("cold op must compute")
	}
	if !tr.ShouldComputeOp(5, 4, 2, 2, 3, None, None) {
		t.Fatal("cold dependent op must compute")
	}
	// Identical resubmission: everything skips.
	if tr.ShouldComputeOp(4, 0, 0, 1, 1, None, None) {
		t.Fatal("unchanged op must skip")
	}
	if tr.ShouldComputeOp(5, 4, 2, 2, 3, None, None) {
		t.Fatal("unchanged dependent op must skip")
	}
	// Dirtying a leaf input recomputes the path, and only the path.
	tr.InvalidatePartials(0)
	if !tr.ShouldComputeOp(4, 0, 0, 1, 1, None, None) {
		t.Fatal("op over dirtied input must recompute")
	}
	if !tr.ShouldComputeOp(5, 4, 2, 2, 3, None, None) {
		t.Fatal("op over recomputed child must recompute")
	}
	s := tr.Stats()
	if s.OpHits != 2 || s.OpMisses != 4 {
		t.Fatalf("op hits/misses = %d/%d, want 2/4", s.OpHits, s.OpMisses)
	}
}

func TestOpSignatureMismatchRecomputes(t *testing.T) {
	tr := New(8, 8, 2)
	tr.ShouldComputeOp(4, 0, 0, 1, 1, None, None)
	// Same destination, different matrix: a changed operation shape.
	if !tr.ShouldComputeOp(4, 0, 0, 1, 2, None, None) {
		t.Fatal("changed signature must recompute")
	}
	// And back again: the stored signature is the *last* one, so the
	// original shape now misses too (the buffer holds different contents).
	if !tr.ShouldComputeOp(4, 0, 0, 1, 1, None, None) {
		t.Fatal("reverted signature must recompute (contents were overwritten)")
	}
}

func TestMatrixContentAddressing(t *testing.T) {
	tr := New(4, 4, 1)
	if !tr.ShouldComputeMatrix(0, 0, 0.25) {
		t.Fatal("cold matrix must compute")
	}
	if tr.ShouldComputeMatrix(0, 0, 0.25) {
		t.Fatal("unchanged matrix must skip")
	}
	if !tr.ShouldComputeMatrix(0, 0, 0.35) {
		t.Fatal("changed edge length must recompute")
	}
	// A matrix recompute bumps its version, cascading into op signatures.
	tr.ShouldComputeOp(2, 0, 0, 1, 1, None, None)
	if tr.ShouldComputeOp(2, 0, 0, 1, 1, None, None) {
		t.Fatal("unchanged op must skip")
	}
	tr.ShouldComputeMatrix(0, 0, 0.45)
	if !tr.ShouldComputeOp(2, 0, 0, 1, 1, None, None) {
		t.Fatal("op over recomputed matrix must recompute")
	}
	// Model invalidation dirties every matrix entry.
	tr.InvalidateModel()
	if !tr.ShouldComputeMatrix(0, 0, 0.45) {
		t.Fatal("matrix must recompute after model invalidation")
	}
	// Explicit matrix replacement clears the entry.
	tr.ShouldComputeMatrix(1, 0, 0.5)
	tr.InvalidateMatrix(1)
	if !tr.ShouldComputeMatrix(1, 0, 0.5) {
		t.Fatal("matrix must recompute after SetTransitionMatrix")
	}
}

func TestScaleSemantics(t *testing.T) {
	tr := New(8, 8, 4)
	// An op writing scale buffer 1 bumps its version.
	tr.ShouldComputeOp(4, 0, 0, 1, 1, 1, None)
	// A reader of that buffer captures the version...
	tr.ShouldComputeOp(5, 4, 2, 2, 3, None, 1)
	if tr.ShouldComputeOp(5, 4, 2, 2, 3, None, 1) {
		t.Fatal("unchanged scale-reading op must skip")
	}
	// The writer itself skips on resubmission without bumping the scale
	// version (its stored contents are unchanged), so downstream readers
	// stay clean.
	if tr.ShouldComputeOp(4, 0, 0, 1, 1, 1, None) {
		t.Fatal("unchanged scale-writing op must skip")
	}
	if tr.ShouldComputeOp(5, 4, 2, 2, 3, None, 1) {
		t.Fatal("reader must stay clean after writer skip")
	}
	// When the scale buffer is externally rewritten (ResetScaleFactors),
	// the reader recomputes, and so does the writer: skipping it would
	// leave the rewritten factors where its own belong.
	tr.InvalidateScale(1)
	if !tr.ShouldComputeOp(5, 4, 2, 2, 3, None, 1) {
		t.Fatal("scale-reading op must recompute after scale invalidation")
	}
	if !tr.ShouldComputeOp(4, 0, 0, 1, 1, 1, None) {
		t.Fatal("scale-writing op must recompute after its scale buffer is rewritten")
	}
	if tr.ShouldComputeOp(4, 0, 0, 1, 1, 1, None) {
		t.Fatal("rewritten scale-writing op must skip on its next resubmission")
	}
	// Another operation writing the same scale buffer dirties it too.
	tr.ShouldComputeOp(6, 2, 2, 3, 3, 1, None)
	if !tr.ShouldComputeOp(4, 0, 0, 1, 1, 1, None) {
		t.Fatal("scale-writing op must recompute after another op wrote its scale buffer")
	}
}

func TestTipInvalidation(t *testing.T) {
	tr := New(8, 8, 0)
	tr.ShouldComputeOp(4, 0, 0, 1, 1, None, None)
	tr.InvalidatePartials(1) // SetTipStates on tip 1
	if !tr.ShouldComputeOp(4, 0, 0, 1, 1, None, None) {
		t.Fatal("op must recompute after tip replacement")
	}
	if s := tr.Stats(); s.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", s.Invalidations)
	}
}

func TestHitRates(t *testing.T) {
	var s Stats
	if s.OpHitRate() != 0 || s.MatrixHitRate() != 0 {
		t.Fatal("zero stats must report zero hit rates")
	}
	s = Stats{OpHits: 3, OpMisses: 1, MatrixHits: 1, MatrixMisses: 3}
	if got := s.OpHitRate(); got != 0.75 {
		t.Fatalf("OpHitRate = %v, want 0.75", got)
	}
	if got := s.MatrixHitRate(); got != 0.25 {
		t.Fatalf("MatrixHitRate = %v, want 0.25", got)
	}
}

// The decision path runs once per submitted operation of every batch — it
// must not allocate, in either the hit or the miss direction.
func TestDecisionPathDoesNotAllocate(t *testing.T) {
	tr := New(16, 16, 4)
	var sink bool
	if avg := testing.AllocsPerRun(200, func() {
		sink = tr.ShouldComputeOp(8, 0, 0, 1, 1, 1, None)
		sink = tr.ShouldComputeOp(8, 0, 0, 1, 1, 1, None) || sink
		sink = tr.ShouldComputeMatrix(3, 0, 0.5) || sink
		sink = tr.ShouldComputeMatrix(3, 0, 0.5) || sink
		tr.InvalidatePartials(0)
	}); avg != 0 {
		t.Fatalf("decision path allocates %v per run", avg)
	}
	_ = sink
}
