package trace

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestTraceCloneIndependent(t *testing.T) {
	a := Trace{1, 2, 3}
	b := a.Clone()
	b[0] = 9
	if a[0] != 1 {
		t.Error("clone aliases the original")
	}
}

func TestTraceResize(t *testing.T) {
	a := Trace{1, 2, 3}
	if got := a.Resize(2); len(got) != 2 || got[1] != 2 {
		t.Errorf("truncate = %v", got)
	}
	if got := a.Resize(5); len(got) != 5 || got[4] != 0 || got[2] != 3 {
		t.Errorf("pad = %v", got)
	}
	if got := a.Resize(3); &got[0] != &a[0] {
		t.Error("same-size resize must be a no-op")
	}
}

func TestTraceShift(t *testing.T) {
	a := Trace{1, 2, 3, 4}
	if got := a.Shift(1); got[0] != 0 || got[1] != 1 || got[3] != 3 {
		t.Errorf("delay = %v", got)
	}
	if got := a.Shift(-1); got[0] != 2 || got[3] != 0 {
		t.Errorf("advance = %v", got)
	}
	if got := a.Shift(0); got[0] != 1 || got[3] != 4 {
		t.Errorf("zero shift = %v", got)
	}
}

func TestTraceAddScaleMeanStd(t *testing.T) {
	a := Trace{1, 2, 3}
	if err := a.AddInPlace(Trace{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if a[0] != 2 || a[2] != 4 {
		t.Errorf("add = %v", a)
	}
	a.Scale(0.5)
	if a[0] != 1 || a[2] != 2 {
		t.Errorf("scale = %v", a)
	}
	if !almostEq(a.Mean(), 1.5) {
		t.Errorf("mean = %v", a.Mean())
	}
	if a.Std() <= 0 {
		t.Errorf("std = %v", a.Std())
	}
	if err := a.AddInPlace(Trace{1}); err == nil {
		t.Error("length mismatch must error")
	}
}

func TestAverage(t *testing.T) {
	avg, err := Average([]Trace{{0, 2}, {2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if avg[0] != 1 || avg[1] != 3 {
		t.Errorf("average = %v", avg)
	}
	if _, err := Average(nil); err == nil {
		t.Error("empty average must error")
	}
	if _, err := Average([]Trace{{1}, {1, 2}}); err == nil {
		t.Error("ragged average must error")
	}
}

// Property: averaging N copies of a trace returns the trace.
func TestAverageIdempotent(t *testing.T) {
	f := func(vals []float64, n uint8) bool {
		if len(vals) == 0 {
			return true
		}
		for i := range vals {
			if math.IsNaN(vals[i]) || math.IsInf(vals[i], 0) {
				return true // skip degenerate inputs
			}
			vals[i] = math.Mod(vals[i], 1e12) // keep sums finite
		}
		k := int(n%7) + 1
		ts := make([]Trace, k)
		for i := range ts {
			ts[i] = Trace(vals).Clone()
		}
		avg, err := Average(ts)
		if err != nil {
			return false
		}
		for i := range avg {
			tol := 1e-9 * math.Max(1, math.Abs(vals[i]))
			if math.Abs(avg[i]-vals[i]) > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetBasics(t *testing.T) {
	s := NewSet(4)
	s.Add(Trace{1, 2, 3, 4}, []byte{0xAA})
	s.Add(Trace{5, 6}, []byte{0xBB}) // short: zero-padded
	if s.Len() != 2 || s.Samples() != 4 {
		t.Fatalf("set = %d traces x %d", s.Len(), s.Samples())
	}
	if got := s.Trace(1); got[2] != 0 {
		t.Errorf("padding = %v", got)
	}
	if got := s.Aux(0); len(got) != 1 || got[0] != 0xAA {
		t.Errorf("aux = %v", got)
	}
}

func TestSetAuxCopied(t *testing.T) {
	s := NewSet(1)
	aux := []byte{1}
	s.Add(Trace{0}, aux)
	aux[0] = 2
	if s.Aux(0)[0] != 1 {
		t.Error("aux must be copied on Add")
	}
}

func TestSetSerializationRoundTrip(t *testing.T) {
	s := NewSet(3)
	s.Add(Trace{1.5, -2.25, 3}, []byte{1, 2, 3, 4})
	s.Add(Trace{0, 0.125, -1}, nil)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.Samples() != 3 {
		t.Fatalf("round trip = %d x %d", got.Len(), got.Samples())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if got.Trace(i)[j] != s.Trace(i)[j] {
				t.Errorf("trace %d sample %d: %v vs %v", i, j, got.Trace(i)[j], s.Trace(i)[j])
			}
		}
	}
	if string(got.Aux(0)) != string(s.Aux(0)) {
		t.Error("aux mismatch")
	}
}

func TestReadSetRejectsBadMagic(t *testing.T) {
	if _, err := ReadSet(bytes.NewReader([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})); err == nil {
		t.Error("bad magic must fail")
	}
}

func TestReadSetTruncated(t *testing.T) {
	s := NewSet(2)
	s.Add(Trace{1, 2}, []byte{9})
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := ReadSet(bytes.NewReader(raw[:len(raw)-4])); err == nil {
		t.Error("truncated set must fail")
	}
}
