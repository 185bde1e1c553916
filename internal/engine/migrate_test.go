package engine

import (
	"math/rand"
	"testing"

	"gobeagle/internal/kernels"
)

func migrateConfig(patterns int) Config {
	return Config{
		TipCount:        3,
		PartialsBuffers: 5,
		MatrixBuffers:   4,
		EigenBuffers:    1,
		ScaleBuffers:    3,
		Dims:            kernels.Dims{StateCount: 4, PatternCount: patterns, CategoryCount: 2},
	}
}

// populatedStorage builds a storage with every kind of per-pattern state set:
// compact tip states, expanded tip partials, an internal partials buffer,
// non-uniform pattern weights and two written scale buffers (one left nil).
func populatedStorage(t *testing.T, rng *rand.Rand, patterns int) *Storage[float64] {
	t.Helper()
	cfg := migrateConfig(patterns)
	s := NewStorage[float64](cfg)
	d := cfg.Dims

	states := make([]int, patterns)
	for i := range states {
		states[i] = rng.Intn(d.StateCount + 1)
	}
	if err := s.SetTipStates(0, states); err != nil {
		t.Fatalf("SetTipStates: %v", err)
	}
	tip := make([]float64, patterns*d.StateCount)
	for i := range tip {
		tip[i] = rng.Float64()
	}
	if err := s.SetTipPartials(1, tip); err != nil {
		t.Fatalf("SetTipPartials: %v", err)
	}
	full := make([]float64, d.PartialsLen())
	for i := range full {
		full[i] = rng.Float64()
	}
	if err := s.SetPartials(3, full); err != nil {
		t.Fatalf("SetPartials: %v", err)
	}
	wts := make([]float64, patterns)
	for i := range wts {
		wts[i] = float64(1 + rng.Intn(5))
	}
	if err := s.SetPatternWeights(wts); err != nil {
		t.Fatalf("SetPatternWeights: %v", err)
	}
	for _, b := range []int{0, 2} {
		sc, err := s.ScaleWriteTarget(b)
		if err != nil {
			t.Fatalf("ScaleWriteTarget(%d): %v", b, err)
		}
		for i := range sc {
			sc[i] = rng.NormFloat64()
		}
	}
	return s
}

// snapshot captures the per-pattern state of a storage for later comparison.
type storageSnapshot struct {
	patterns  int
	tipStates [][]int32
	partials  [][]float64
	patWts    []float64
	scale     [][]float64
}

func snapshotStorage(s *Storage[float64]) storageSnapshot {
	snap := storageSnapshot{
		patterns:  s.Cfg.Dims.PatternCount,
		tipStates: make([][]int32, len(s.TipStates)),
		partials:  make([][]float64, len(s.Partials)),
		patWts:    append([]float64(nil), s.PatWts...),
		scale:     make([][]float64, len(s.Scale)),
	}
	for i, v := range s.TipStates {
		if v != nil {
			snap.tipStates[i] = append([]int32(nil), v...)
		}
	}
	for i, v := range s.Partials {
		if v != nil {
			snap.partials[i] = append([]float64(nil), v...)
		}
	}
	for i, v := range s.Scale {
		if v != nil {
			snap.scale[i] = append([]float64(nil), v...)
		}
	}
	return snap
}

func checkSnapshot(t *testing.T, s *Storage[float64], want storageSnapshot) {
	t.Helper()
	if got := s.Cfg.Dims.PatternCount; got != want.patterns {
		t.Fatalf("pattern count %d, want %d", got, want.patterns)
	}
	for i, v := range want.tipStates {
		if (v == nil) != (s.TipStates[i] == nil) {
			t.Fatalf("tip-state buffer %d occupancy changed", i)
		}
		for j, x := range v {
			if s.TipStates[i][j] != x {
				t.Fatalf("tip-state buffer %d pattern %d = %d, want %d", i, j, s.TipStates[i][j], x)
			}
		}
	}
	for i, v := range want.partials {
		if (v == nil) != (s.Partials[i] == nil) {
			t.Fatalf("partials buffer %d occupancy changed", i)
		}
		for j, x := range v {
			if s.Partials[i][j] != x {
				t.Fatalf("partials buffer %d element %d = %v, want %v", i, j, s.Partials[i][j], x)
			}
		}
	}
	for j, x := range want.patWts {
		if s.PatWts[j] != x {
			t.Fatalf("pattern weight %d = %v, want %v", j, s.PatWts[j], x)
		}
	}
	for i, v := range want.scale {
		if (v == nil) != (s.Scale[i] == nil) {
			t.Fatalf("scale buffer %d occupancy changed", i)
		}
		for j, x := range v {
			if s.Scale[i][j] != x {
				t.Fatalf("scale buffer %d pattern %d = %v, want %v", i, j, s.Scale[i][j], x)
			}
		}
	}
}

// TestStorageMigrateRoundTrip detaches a span from each end and re-attaches
// it: the storage must be bit-identical to where it started.
func TestStorageMigrateRoundTrip(t *testing.T) {
	for _, fromHigh := range []bool{true, false} {
		rng := rand.New(rand.NewSource(11))
		s := populatedStorage(t, rng, 9)
		want := snapshotStorage(s)

		blk, err := s.DetachPatterns(fromHigh, 4)
		if err != nil {
			t.Fatalf("DetachPatterns(fromHigh=%v): %v", fromHigh, err)
		}
		if blk.Patterns != 4 {
			t.Fatalf("block spans %d patterns, want 4", blk.Patterns)
		}
		if got := s.Cfg.Dims.PatternCount; got != 5 {
			t.Fatalf("after detach pattern count %d, want 5", got)
		}
		if err := s.AttachPatterns(fromHigh, blk); err != nil {
			t.Fatalf("AttachPatterns(atHigh=%v): %v", fromHigh, err)
		}
		checkSnapshot(t, s, want)
	}
}

// TestStorageMigrateBetweenStorages moves a boundary span from one storage to
// a neighbor, the way the multi-device rebalancer does, and checks both sides
// hold exactly the state of a reference storage split at the new boundary.
func TestStorageMigrateBetweenStorages(t *testing.T) {
	const p, move = 12, 3
	rng := rand.New(rand.NewSource(23))
	ref := populatedStorage(t, rng, p)

	// left takes patterns [0,7), right takes [7,12); build them by
	// detaching from a clone of ref.
	rng = rand.New(rand.NewSource(23))
	left := populatedStorage(t, rng, p)
	rightBlk, err := left.DetachPatterns(true, 5)
	if err != nil {
		t.Fatalf("initial split: %v", err)
	}
	rng = rand.New(rand.NewSource(23))
	right := populatedStorage(t, rng, p)
	if _, err := right.DetachPatterns(false, 7); err != nil {
		t.Fatalf("initial split: %v", err)
	}
	_ = rightBlk

	// Move the boundary left by `move` patterns: detach from left's high
	// end, attach at right's low end.
	blk, err := left.DetachPatterns(true, move)
	if err != nil {
		t.Fatalf("DetachPatterns: %v", err)
	}
	if err := right.AttachPatterns(false, blk); err != nil {
		t.Fatalf("AttachPatterns: %v", err)
	}

	if got := left.Cfg.Dims.PatternCount; got != 4 {
		t.Fatalf("left has %d patterns, want 4", got)
	}
	if got := right.Cfg.Dims.PatternCount; got != 8 {
		t.Fatalf("right has %d patterns, want 8", got)
	}

	// Every per-pattern value must match ref at the shifted offsets.
	d := ref.Cfg.Dims
	for i := 0; i < 4; i++ {
		if left.TipStates[0][i] != ref.TipStates[0][i] {
			t.Fatalf("left tip state %d diverged", i)
		}
	}
	for i := 0; i < 8; i++ {
		if right.TipStates[0][i] != ref.TipStates[0][i+4] {
			t.Fatalf("right tip state %d diverged", i)
		}
	}
	for c := 0; c < d.CategoryCount; c++ {
		for i := 0; i < 4*d.StateCount; i++ {
			if left.Partials[3][c*4*d.StateCount+i] != ref.Partials[3][(c*p)*d.StateCount+i] {
				t.Fatalf("left partials diverged at category %d element %d", c, i)
			}
		}
		for i := 0; i < 8*d.StateCount; i++ {
			if right.Partials[3][c*8*d.StateCount+i] != ref.Partials[3][(c*p+4)*d.StateCount+i] {
				t.Fatalf("right partials diverged at category %d element %d", c, i)
			}
		}
	}
	for i := 0; i < 4; i++ {
		if left.PatWts[i] != ref.PatWts[i] || left.Scale[0][i] != ref.Scale[0][i] {
			t.Fatalf("left weight/scale %d diverged", i)
		}
	}
	for i := 0; i < 8; i++ {
		if right.PatWts[i] != ref.PatWts[i+4] || right.Scale[2][i] != ref.Scale[2][i+4] {
			t.Fatalf("right weight/scale %d diverged", i)
		}
	}
}

func TestStorageMigrateErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := populatedStorage(t, rng, 6)

	if _, err := s.DetachPatterns(true, 0); err == nil {
		t.Fatal("DetachPatterns accepted n=0")
	}
	if _, err := s.DetachPatterns(true, 6); err == nil {
		t.Fatal("DetachPatterns drained the storage")
	}
	if err := s.AttachPatterns(true, nil); err == nil {
		t.Fatal("AttachPatterns accepted a nil block")
	}
	blk, err := s.DetachPatterns(true, 2)
	if err != nil {
		t.Fatalf("DetachPatterns: %v", err)
	}
	blk.Weights = blk.Weights[:1]
	if err := s.AttachPatterns(true, blk); err == nil {
		t.Fatal("AttachPatterns accepted mismatched weights")
	}
	blk.Weights = append(blk.Weights, 1)
	// Occupancy mismatch: block carries tip states the target lacks.
	other := NewStorage[float64](migrateConfig(4))
	if err := other.AttachPatterns(true, blk); err == nil {
		t.Fatal("AttachPatterns accepted occupancy mismatch")
	}
	// Geometry mismatch: different buffer counts.
	cfg := migrateConfig(4)
	cfg.ScaleBuffers = 1
	narrow := NewStorage[float64](cfg)
	if err := narrow.AttachPatterns(true, blk); err == nil {
		t.Fatal("AttachPatterns accepted geometry mismatch")
	}
	// Entries of the wrong length or out-of-range states (a block off the
	// wire) are refused before anything is spliced.
	want := snapshotStorage(s)
	for name, spoil := range map[string]func(*PatternBlock){
		"short tip states":    func(b *PatternBlock) { b.TipStates[0] = b.TipStates[0][:1] },
		"negative tip state":  func(b *PatternBlock) { b.TipStates[0][0] = -1 },
		"tip state past gap":  func(b *PatternBlock) { b.TipStates[0][1] = 5 },
		"long partials":       func(b *PatternBlock) { b.Partials[3] = append(b.Partials[3], 0) },
		"short scale factors": func(b *PatternBlock) { b.Scale[0] = b.Scale[0][:1] },
	} {
		bad := &PatternBlock{Patterns: blk.Patterns, Weights: blk.Weights,
			TipStates: append([][]int32(nil), blk.TipStates...),
			Partials:  append([][]float64(nil), blk.Partials...),
			Scale:     append([][]float64(nil), blk.Scale...)}
		bad.TipStates[0] = append([]int32(nil), blk.TipStates[0]...)
		spoil(bad)
		if err := s.AttachPatterns(true, bad); err == nil {
			t.Fatalf("AttachPatterns accepted a block with %s", name)
		}
		checkSnapshot(t, s, want)
	}
}
