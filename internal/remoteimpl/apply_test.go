package remoteimpl

import (
	"math"
	"testing"

	"gobeagle/internal/cpuimpl"
	"gobeagle/internal/engine"
)

// fuzzValues are the floats a fuzzed slice draws from: ordinary values and
// every kind a setter must refuse or survive.
var fuzzValues = [...]float64{0, 1, 0.25, 0.5, -1, 2, 1e-300, 1e300, math.Inf(1), math.Inf(-1), math.NaN(), -0.0}

// fuzzRequest decodes bytes into a request: the op code and buffer indices
// are taken as given (small and possibly negative), slice lengths (zero is
// nil) and contents and the operations from the remaining bytes. The
// pattern block is a copy of a real detached block, which the bytes left
// over then edit — its span, an entry's length or value, one at a time — so
// that the fuzzer reaches past the block's shape checks.
func fuzzRequest(op uint8, bufs [6]int8, n int8, fromHigh bool, data []byte, template *engine.PatternBlock) *request {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(int8(b))
	}
	length := func() int { return int(uint8(next())) % 65 }
	ints := func() []int {
		var v []int
		for k := length(); k > 0; k-- {
			v = append(v, next())
		}
		return v
	}
	floats := func() []float64 {
		var v []float64
		for k := length(); k > 0; k-- {
			v = append(v, fuzzValues[uint8(next())%uint8(len(fuzzValues))])
		}
		return v
	}
	req := &request{Op: opCode(op), Buf: int(bufs[0]), Buf2: int(bufs[1]), Buf3: int(bufs[2]),
		Buf4: int(bufs[3]), Buf5: int(bufs[4]), Buf6: int(bufs[5]), FromHigh: fromHigh, N: int(n),
		Ints: ints(), Ints2: ints(), Floats: floats(), Floats2: floats(), Floats3: floats()}
	for k := length() % 8; k > 0; k-- {
		req.Ops = append(req.Ops, engine.Operation{Dest: next(), DestScaleWrite: next(), DestScaleRead: next(),
			Child1: next(), Child1Mat: next(), Child2: next(), Child2Mat: next()})
	}
	blk := cloneRequest(&request{Block: template}).Block
	for len(data) > 0 {
		kind, i, v := uint8(next())%7, uint8(next()), next()
		switch kind {
		case 0:
			blk.Patterns = v
		case 1:
			if k := int(i) % len(blk.TipStates); len(blk.TipStates[k]) > 0 {
				blk.TipStates[k][int(uint8(v))%len(blk.TipStates[k])] = int32(next())
			}
		case 2:
			k := int(i) % len(blk.TipStates)
			blk.TipStates[k] = make([]int32, int(uint8(v))%8)
		case 3:
			if k := int(i) % len(blk.Partials); len(blk.Partials[k]) > 0 {
				blk.Partials[k][int(uint8(v))%len(blk.Partials[k])] = fuzzValues[uint8(next())%uint8(len(fuzzValues))]
			}
		case 4:
			k := int(i) % len(blk.Partials)
			blk.Partials[k] = make([]float64, int(uint8(v))%64)
		case 5:
			k := int(i) % len(blk.Scale)
			blk.Scale[k] = make([]float64, int(uint8(v))%8)
		case 6:
			blk.Weights = make([]float64, int(uint8(v))%8)
		}
	}
	req.Block = blk
	return req
}

// FuzzApplyRequest sends arbitrary requests — op codes, buffer indices,
// slice lengths and contents, operations and pattern blocks — through the
// protocol's dispatch table into a small serial engine, as a worker would
// receive them off the wire. No request may panic, and afterwards the engine
// must still evaluate a valid tree to the bits of a fresh engine (a
// migration the request performed is undone first, so the geometry is the
// original one).
func FuzzApplyRequest(f *testing.F) {
	f.Add(uint8(opSetTipStates), int8(0), int8(0), int8(0), int8(0), int8(0), int8(0), int8(0), false,
		[]byte{6, 0, 1, 2, 3, 4, 5})
	f.Add(uint8(opUpdatePartials), int8(0), int8(0), int8(0), int8(0), int8(0), int8(0), int8(0), false,
		[]byte{0, 0, 0, 0, 0, 1, 6, 1, 2, 3, 0, 0, 1, 1})
	f.Add(uint8(opAttach), int8(0), int8(0), int8(0), int8(0), int8(0), int8(0), int8(0), true,
		[]byte{0, 0, 0, 0, 0, 0, 1, 2, 2, 1, 1, 1, 2, 2, 0, 0, 0})
	f.Add(uint8(opDetach), int8(0), int8(0), int8(0), int8(0), int8(0), int8(0), int8(3), false, []byte{})
	f.Add(uint8(opEdgeDerivs), int8(4), int8(0), int8(0), int8(1), int8(2), int8(-1), int8(0), false, []byte{})
	f.Add(uint8(opSetEigen), int8(0), int8(0), int8(0), int8(0), int8(0), int8(0), int8(0), false,
		[]byte{4, 1, 1, 1, 1, 16, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 3, 10, 10, 10})

	tr, m, rates, ps := problem(f, 5, 5, 5) // lengths a fuzzed slice can match
	cfg := testConfig(tr, ps.PatternCount())
	ref, err := cpuimpl.New(cfg, cpuimpl.Serial)
	if err != nil {
		f.Fatal(err)
	}
	want := evaluate(f, ref, tr, m, rates, ps)
	template, err := ref.(engine.PatternMigrator).DetachPatterns(true, 2)
	if err != nil {
		f.Fatal(err)
	}
	ref.Close()

	f.Fuzz(func(t *testing.T, op uint8, b1, b2, b3, b4, b5, b6, n int8, fromHigh bool, data []byte) {
		e, err := cpuimpl.New(cfg, cpuimpl.Serial)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		evaluate(t, e, tr, m, rates, ps) // every buffer holds data before the request
		req := fuzzRequest(op, [6]int8{b1, b2, b3, b4, b5, b6}, n, fromHigh, data, template)
		resp := applyRequest(e, req)
		if resp.Err == "" {
			mig := e.(engine.PatternMigrator)
			switch req.Op {
			case opDetach:
				err = mig.AttachPatterns(req.FromHigh, resp.Block)
			case opAttach:
				_, err = mig.DetachPatterns(req.FromHigh, req.Block.Patterns)
			}
			if err != nil {
				t.Fatalf("undoing %v: %v", req.Op, err)
			}
		}
		if got := evaluate(t, e, tr, m, rates, ps); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("after %v (err %q) the engine evaluates %v, a fresh one %v", req.Op, resp.Err, got, want)
		}
	})
}
