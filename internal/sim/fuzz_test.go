package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/verilog/parser"
)

// byteSource is a rand.Source that replays fuzz input bytes, one byte per
// draw (replicated across the word so every bit range rand reads depends on
// it), and yields 0 once the input is exhausted. Driving richExprGen from
// it turns every byte string into a valid design from the random
// differential's grammar, so the fuzzer mutates design shape rather than
// syntax, and widths stay bounded by construction.
type byteSource struct{ data []byte }

func (s *byteSource) Int63() int64 {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return int64(uint64(b) * 0x0101010101010101 >> 1)
}

func (s *byteSource) Seed(int64) {}

// fuzzDiffTemplate holds a combinational output y and a clocked register q,
// so one design covers both Settle and Tick.
const fuzzDiffTemplate = `
module top_module (
    input clk,
    input [7:0] a,
    input [7:0] b,
    output [7:0] y,
    output reg [7:0] q
);
    assign y = %s;
    always @(posedge clk)
        q <= %s;
endmodule
`

// fuzzMaxSteps bounds one input's stimulus so a single execution stays fast.
const fuzzMaxSteps = 16

// fuzzStimulus renders n steps of four-state stimulus in the byte layout
// FuzzSimDifferential decodes: per step a mode byte (odd: clock tick, even:
// settle), then value and X/Z-mask bytes for a and for b.
func fuzzStimulus(rng *rand.Rand, n int, pUnknown float64) []byte {
	var out []byte
	for i := 0; i < n; i++ {
		out = append(out, byte(rng.Intn(256)))
		for k := 0; k < 2; k++ {
			var mask byte
			for bit := 0; bit < 8; bit++ {
				if rng.Float64() < pUnknown {
					mask |= 1 << bit
				}
			}
			out = append(out, byte(rng.Intn(256)), mask)
		}
	}
	return out
}

// FuzzSimDifferential holds the compiled engine to the interpreter on
// fuzzed designs under fuzzed four-state stimulus: after every step, every
// output must agree bit-exactly (0/1/x/z), and both engines must agree on
// whether the step failed. shape drives richExprGen (the random
// differential's generator) through byteSource; stim is decoded as in
// fuzzStimulus. Some shapes add a construct the compiler refuses (a
// replication past maxRegCap, a dynamic [a:b] select); those designs must
// fail with ErrNotCompilable and are skipped, since the testbench runs them
// on the interpreter itself.
//
// Every design that compiles also runs as a two-lane SoA gang with dedup
// off, so both lanes run on their own engines over neighboring blocks of the
// shared planes. Lane 0 sees the stimulus as decoded and lane 1 sees a and
// b swapped, each against its own interpreter: a lane that reads or writes
// the other lane's words diverges. Each lane's outputs and step errors must
// match its interpreter exactly.
func FuzzSimDifferential(f *testing.F) {
	rng := rand.New(rand.NewSource(4242))
	for i := 0; i < 16; i++ {
		shape := make([]byte, 48)
		rng.Read(shape)
		p := 0.0
		if i%2 == 1 {
			p = 0.3
		}
		f.Add(shape, fuzzStimulus(rng, 8, p))
	}
	// A leading byte b draws refusal = Intn(16) = b>>1 & 15.
	f.Add([]byte{1 << 1}, fuzzStimulus(rng, 4, 0.2)) // wide replication
	f.Add([]byte{2 << 1}, fuzzStimulus(rng, 4, 0.2)) // dynamic [a:b] select
	f.Fuzz(func(t *testing.T, shape, stim []byte) {
		g := &richExprGen{rng: rand.New(&byteSource{data: shape}), vars: []string{"a", "b", "q"}}
		refusal := g.rng.Intn(16)
		yExpr, qExpr := g.gen(3), g.gen(2)
		switch refusal {
		case 1:
			yExpr = fmt.Sprintf("(%s) ^ {7'd0, ^{16384{%s}}}", yExpr, g.gen(1))
		case 2:
			yExpr = fmt.Sprintf("(%s) ^ {7'd0, ^(a[%s[2:0]:0])}", yExpr, g.vars[g.rng.Intn(len(g.vars))])
		}
		src := fmt.Sprintf(fuzzDiffTemplate, yExpr, qExpr)
		parsed, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("generated design does not parse: %v\n%s", err, src)
		}
		interp, err := New(parsed, "top_module")
		if err != nil {
			t.Fatalf("interpreter elaborate: %v\n%s", err, src)
		}
		d, err := Compile(parsed, "top_module")
		if refusal == 1 || refusal == 2 {
			if !errors.Is(err, ErrNotCompilable) {
				t.Fatalf("Compile: got %v, want ErrNotCompilable\n%s", err, src)
			}
			t.Skip("refused by the compiler:", err)
		}
		if err != nil {
			t.Fatalf("Compile: %v\n%s", err, src)
		}
		en := d.NewEngine()
		swapped, err := New(parsed, "top_module")
		if err != nil {
			t.Fatalf("interpreter elaborate: %v\n%s", err, src)
		}
		gang := NewSoAGang(2)
		defer gang.Close()
		gang.dedup = false
		gang.AddLane(d, true, -1, nil, nil)
		gang.AddLane(d, true, -1, nil, nil)
		gang.BeginCase() // seals the shared planes and resets both lanes
		lanes := []Instance{gang.engines[0], gang.engines[1]}
		refs := []*Simulator{interp, swapped}

		compareTo := func(label, kind string, ref *Simulator, got Instance) {
			for _, out := range ref.Outputs() {
				want, err := ref.Output(out.Name)
				if err != nil {
					t.Fatalf("interpreter Output(%s): %v", out.Name, err)
				}
				have, err := got.Output(out.Name)
				if err != nil {
					t.Fatalf("%s Output(%s): %v", kind, out.Name, err)
				}
				if have.String() != want.String() {
					t.Fatalf("%s: output %s diverges: interpreter=%s %s=%s\n%s",
						label, out.Name, want, kind, have, src)
				}
			}
		}
		compare := func(label string) {
			compareTo(label, "compiled", interp, en)
			for l := range lanes {
				compareTo(label, fmt.Sprintf("gang lane %d", l), refs[l], lanes[l])
			}
		}
		compare("initial")
		for step := 0; step < fuzzMaxSteps && len(stim) >= 5; step++ {
			mode := stim[0]
			a := NewFromPlanes(8, []uint64{uint64(stim[1])}, []uint64{uint64(stim[2])})
			b := NewFromPlanes(8, []uint64{uint64(stim[3])}, []uint64{uint64(stim[4])})
			stim = stim[5:]
			for _, ins := range []Instance{interp, en, lanes[0]} {
				fuzzDrive(t, ins, a, b)
			}
			for _, ins := range []Instance{swapped, lanes[1]} {
				fuzzDrive(t, ins, b, a)
			}
			var errI, errC, errS error
			if mode&1 == 1 {
				errI, errC, errS = interp.Tick("clk"), en.Tick("clk"), swapped.Tick("clk")
				for _, ln := range lanes {
					fuzzClock(t, ln, 1)
				}
				gang.settleAll()
				for l, ln := range lanes {
					if gang.laneErr[l] == nil {
						fuzzClock(t, ln, 0)
					}
				}
				gang.settleAll()
			} else {
				errI, errC, errS = interp.Settle(), en.Settle(), swapped.Settle()
				gang.settleAll()
			}
			if (errI == nil) != (errC == nil) {
				t.Fatalf("step %d: error divergence: interpreter=%v compiled=%v\n%s", step, errI, errC, src)
			}
			for l, want := range []error{errI, errS} {
				got := gang.laneErr[l]
				if (want == nil) != (got == nil) || (want != nil && want.Error() != got.Error()) {
					t.Fatalf("step %d: gang lane %d error divergence: interpreter=%v gang=%v\n%s", step, l, want, got, src)
				}
			}
			if errI != nil || errS != nil {
				return // failed alike; state after an error is unspecified
			}
			compare(fmt.Sprintf("step %d", step))
		}
	})
}

// fuzzDrive sets the fuzz design's two data inputs on one instance.
func fuzzDrive(t *testing.T, ins Instance, a, b Value) {
	t.Helper()
	if err := ins.SetInput("a", a); err != nil {
		t.Fatal(err)
	}
	if err := ins.SetInput("b", b); err != nil {
		t.Fatal(err)
	}
}

// fuzzClock drives the fuzz design's clock on one gang lane.
func fuzzClock(t *testing.T, ins Instance, v uint64) {
	t.Helper()
	if err := ins.SetInput("clk", NewKnown(1, v)); err != nil {
		t.Fatal(err)
	}
}
