package infer

import (
	"encoding/json"
	"slices"
	"testing"
)

// FuzzStateWire fuzzes the trust boundary a ladder state crosses when
// it arrives over /cache/entry: arbitrary bytes → WireState → State()
// → ImportState → Step. Every stage must either reject the payload
// with an error or leave an engine that walks: never a panic, never an
// out-of-range index in a later Step. A payload that decodes to the
// pristine state must still climb to the cold walk's logits bitwise.
// Seeds live in testdata/fuzz/FuzzStateWire (the wrong-shaped ones
// crashed Step before ImportState validated shapes); wired into the
// ci.sh fuzz smoke.
func FuzzStateWire(f *testing.F) {
	m := intraGridModel(171, 1, 8, 1.0)
	x := gridInput(m, 1, 271)
	e := NewEngine(m.Net)
	e.Reset(x)
	e.MustStep(1)
	e.MustStep(2)
	pristine, err := e.ExportState(0)
	if err != nil {
		f.Fatal(err)
	}
	out, _ := e.MustStep(3)
	top := append([]float64(nil), out.Data()...)
	w, err := pristine.Wire()
	if err != nil {
		f.Fatal(err)
	}
	good, err := json.Marshal(w)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)

	f.Fuzz(func(t *testing.T, data []byte) {
		var w WireState
		if json.Unmarshal(data, &w) != nil {
			return
		}
		st, err := w.State()
		if err != nil {
			return
		}
		if err := e.ImportState(x, st); err != nil {
			return
		}
		same := st.Subnet == pristine.Subnet
		for i := range st.Layers {
			same = same && slices.Equal(st.Layers[i].Data(), pristine.Layers[i].Data())
		}
		for s := e.Current(); s <= 3; s++ {
			out, _, err := e.Step(s)
			if err != nil {
				t.Fatalf("step %d after an accepted import: %v", s, err)
			}
			if s == 3 && same && !slices.Equal(out.Data(), top) {
				t.Fatal("pristine state over the wire climbed to different logits than the cold walk")
			}
		}
	})
}
