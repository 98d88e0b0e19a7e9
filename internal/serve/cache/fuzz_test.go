package cache

import (
	"encoding/binary"
	"math"
	"sync"
	"testing"

	"steppingnet/internal/infer"
	"steppingnet/internal/models"
	"steppingnet/internal/nn"
	"steppingnet/internal/tensor"
)

// fuzzModel lazily builds the one tiny model every fuzz iteration
// shares: a 3-subnet LeNet3C1L plus a cold reference walk (logits at
// the top rung) and a pristine exported state at rung 2, from which
// iterations derive corrupted variants.
var fuzzModel struct {
	once  sync.Once
	m     *models.Model
	x     *tensor.Tensor
	top   []float64
	state *infer.LadderState
}

// fuzzSetup performs the one-time model build behind fuzzModel.once.
func fuzzSetup() {
	fuzzModel.m = models.LeNet3C1L(models.Options{
		Classes: 4, InC: 1, InH: 8, InW: 8, Expansion: 1.0,
		Subnets: 3, Rule: nn.RuleIncremental, Seed: 11,
	})
	fuzzModel.x = tensor.New(1, 1, 8, 8)
	fuzzModel.x.FillNormal(tensor.NewRNG(12), 0, 1)
	e := infer.NewEngine(fuzzModel.m.Net)
	e.Workers = 1
	e.Reset(fuzzModel.x)
	e.MustStep(1)
	e.MustStep(2)
	st, err := e.ExportState(0)
	if err != nil {
		panic(err)
	}
	fuzzModel.state = st
	out, _ := e.MustStep(3)
	fuzzModel.top = append([]float64(nil), out.Data()...)
}

// FuzzCacheResume fuzzes the three hardened surfaces of the semantic
// cache as one target: (1) hash stability — equal inputs must hash
// equal, and the key must be a pure function of the bit pattern; (2)
// eviction under churn — a small bounded cache driven by an arbitrary
// Put/Lookup/Touch op stream must hold both bounds and its counter identity
// after every op; (3) the resume path — ImportState must reject every
// structurally corrupted ladder state with an error (never a panic),
// and an intact import must still climb to logits bitwise equal to
// the cold walk. Wired into the ci.sh fuzz-smoke stage.
func FuzzCacheResume(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x10, 0x20, 0x40, 0x80, 0xff})
	f.Add([]byte("\x05\x00\x00\x00\x00\x00\x00\xf0\x3f steppingnet"))
	f.Add([]byte{0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff, 0x01, 0x02, 0x03, 0x04,
		0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e})
	f.Fuzz(func(t *testing.T, data []byte) {
		// (1) Hash stability over the fuzzed float vector.
		floats := make([]float64, 0, len(data)/8)
		for i := 0; i+8 <= len(data); i += 8 {
			floats = append(floats, math.Float64frombits(binary.LittleEndian.Uint64(data[i:])))
		}
		if KeyOf(floats) != KeyOf(append([]float64(nil), floats...)) {
			t.Fatal("equal inputs hash differently")
		}

		// (2) Eviction under churn: drive a tightly bounded cache
		// with the byte stream as ops; every op must preserve the
		// bounds and, on ONE coherent Stats snapshot, the
		// Len == Inserts − Evictions identity.
		const maxEntries, maxBytes = 4, 8192
		c := New(Config{MaxEntries: maxEntries, MaxBytes: maxBytes})
		ops := data
		if len(ops) > 256 {
			ops = ops[:256]
		}
		for _, b := range ops {
			k := KeyOf([]float64{float64(b % 16)})
			switch b % 5 {
			case 0, 1:
				stored := c.Put(k, entry(1+int(b>>4)%3, 8*(1+int(b%29))))
				if stored {
					if e, ok := c.Lookup(k); !ok || e.Subnet < 1+int(b>>4)%3 {
						t.Fatalf("op %#x: stored entry not retrievable at its rung", b)
					}
				}
			case 2, 4:
				c.Get(k)
			case 3:
				c.Lookup(k)
				c.Touch(k)
			}
			st := c.Stats()
			if st.Len > maxEntries || st.Bytes > maxBytes {
				t.Fatalf("bounds violated: len %d bytes %d", st.Len, st.Bytes)
			}
			if int64(st.Len) != st.Counters.Inserts-st.Counters.Evictions {
				t.Fatalf("counter identity broken: len %d, inserts %d, evictions %d",
					st.Len, st.Counters.Inserts, st.Counters.Evictions)
			}
		}

		// (3) Resume-path rejection: corrupt the pristine state per
		// the first op byte; only the intact variant may import, and
		// it must still reproduce the cold walk bitwise.
		fuzzModel.once.Do(fuzzSetup)
		st := *fuzzModel.state
		st.Layers = append([]*tensor.Tensor(nil), fuzzModel.state.Layers...)
		x := fuzzModel.x
		mode := byte(0)
		if len(data) > 0 {
			mode = data[0] % 6
		}
		switch mode {
		case 1:
			st.Subnet = -int(mode)
		case 2:
			st.Layers = st.Layers[:len(st.Layers)-1]
		case 3:
			st.Layers[int(mode)%len(st.Layers)] = nil
		case 4:
			orig := st.Layers[0]
			st.Layers[0] = tensor.New(2, orig.Len())
		case 5:
			x = tensor.New(1, 1, 8, 9)
		}
		eng := infer.NewEngine(fuzzModel.m.Net)
		eng.Workers = 1
		err := eng.ImportState(x, &st)
		if mode == 0 {
			if err != nil {
				t.Fatalf("intact state rejected: %v", err)
			}
			out, _ := eng.MustStep(3)
			for i, v := range out.Data() {
				if v != fuzzModel.top[i] {
					t.Fatalf("resumed logit[%d]=%v, cold %v", i, v, fuzzModel.top[i])
				}
			}
		} else if err == nil {
			t.Fatalf("corrupted state (mode %d) imported without error", mode)
		}
	})
}
