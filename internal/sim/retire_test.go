package sim

import (
	"errors"
	"fmt"
	"testing"
)

// retireSeq is the sequential template the retirement tests gang up; op
// varies the accumulator so lanes disagree.
func retireSeq(op string) string {
	return fmt.Sprintf(`
module top_module (
    input clk,
    input reset,
    input [4:0] d,
    output reg [4:0] q
);
    always @(posedge clk) begin
        if (reset) q <= 5'd0;
        else q <= %s;
    end
endmodule
`, op)
}

var errRetired = errors.New("retired by test")

// walkRetire drives every lane of g through cases of a fixed pseudo-random
// stimulus (reset on each case's first step) and returns each lane's
// per-case fingerprints. After case ci, every lane listed in retire[ci] is
// retired.
func walkRetire(t *testing.T, g *SoAGang, ds []*Design, cases int, retire map[int][]int) [][]uint64 {
	t.Helper()
	for _, d := range ds {
		clk, err1 := d.InputHandle("clk")
		rst, err2 := d.InputHandle("reset")
		in, err3 := d.InputHandle("d")
		q, err4 := d.OutputHandle("q")
		if err := errors.Join(err1, err2, err3, err4); err != nil {
			t.Fatal(err)
		}
		g.AddLane(d, true, clk, []int{rst, in}, []int{q})
	}
	fps := make([][]uint64, len(ds))
	x := uint64(0x9E3779B97F4A7C15)
	for ci := 0; ci < cases; ci++ {
		g.BeginCase()
		for si := 0; si < 12; si++ {
			x = x*6364136223846793005 + 1442695040888963407
			g.Drive(0, NewKnown(1, b2u(si == 0)))
			g.Drive(1, NewKnown(5, x>>59))
			g.Advance()
			g.HashOutput(0, 5)
		}
		for k := range ds {
			if g.Err(k) == nil {
				fps[k] = append(fps[k], g.Hash(k))
			}
		}
		for _, k := range retire[ci] {
			g.Retire(k, errRetired)
		}
	}
	return fps
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func equalFPs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestGangRetireLeavesSurvivorsBitIdentical retires one lane at a case
// boundary, among distinct lanes and among identical lanes with dedup off
// (so the retired lane is a running engine whose plane block neighbors the
// survivors', not a mirror): the lane leaves LiveLanes with its terminal
// error, its trace stops at the retiring case, and every survivor's
// per-case fingerprints equal those of a gang built without the retired
// lane.
func TestGangRetireLeavesSurvivorsBitIdentical(t *testing.T) {
	acc := compileMust(t, retireSeq("q + d"), "top_module")
	sub := compileMust(t, retireSeq("q - d"), "top_module")
	xor := compileMust(t, retireSeq("q ^ d"), "top_module")
	const cases, at = 5, 1
	for _, tc := range []struct {
		name  string
		ds    []*Design
		dedup bool
	}{
		{"soa", []*Design{acc, sub, xor}, true},
		{"soa-dedup-off", []*Design{acc, acc, acc}, false},
	} {
		newG := func(n int) *SoAGang {
			g := NewSoAGang(n)
			g.dedup = tc.dedup
			return g
		}
		g := newG(3)
		got := walkRetire(t, g, tc.ds, cases, map[int][]int{at: {1}})
		if g.LiveLanes() != 2 {
			t.Fatalf("%s: LiveLanes = %d after retiring one of 3 lanes", tc.name, g.LiveLanes())
		}
		if !errors.Is(g.Err(1), errRetired) || g.Err(0) != nil || g.Err(2) != nil {
			t.Fatalf("%s: lane errors = %v, %v, %v", tc.name, g.Err(0), g.Err(1), g.Err(2))
		}
		g.Close()
		if len(got[1]) != at+1 {
			t.Fatalf("%s: retired lane recorded %d cases, want %d", tc.name, len(got[1]), at+1)
		}

		ref := newG(2)
		want := walkRetire(t, ref, []*Design{tc.ds[0], tc.ds[2]}, cases, nil)
		ref.Close()
		for k, w := range map[int][]uint64{0: want[0], 2: want[1]} {
			if !equalFPs(got[k], w) {
				t.Fatalf("%s: survivor lane %d diverges from the gang without the retired lane\ngot  %x\nwant %x", tc.name, k, got[k], w)
			}
		}
	}
}

// TestSoARetireMirrorResolvesToLeader: a mirror lane is the same machine as
// its leader, so retiring either one retires both, and an unrelated lane
// runs on untouched.
func TestSoARetireMirrorResolvesToLeader(t *testing.T) {
	acc := compileMust(t, retireSeq("q + d"), "top_module")
	sub := compileMust(t, retireSeq("q - d"), "top_module")
	ds := []*Design{acc, acc, sub} // lane 1 mirrors lane 0
	const cases = 4

	ref := NewSoAGang(1)
	want := walkRetire(t, ref, []*Design{sub}, cases, nil)[0]
	ref.Close()

	for _, victim := range []int{0, 1} {
		g := NewSoAGang(len(ds))
		got := walkRetire(t, g, ds, cases, map[int][]int{0: {victim}})
		if g.LiveLanes() != 1 {
			t.Fatalf("retire %d: LiveLanes = %d, want 1 (leader and mirror both out)", victim, g.LiveLanes())
		}
		for _, k := range []int{0, 1} {
			if !errors.Is(g.Err(k), errRetired) {
				t.Fatalf("retire %d: lane %d error = %v, want the retire error", victim, k, g.Err(k))
			}
			if len(got[k]) != 1 {
				t.Fatalf("retire %d: lane %d recorded %d cases, want 1", victim, k, len(got[k]))
			}
		}
		if g.Err(2) != nil || !equalFPs(got[2], want) {
			t.Fatalf("retire %d: unrelated lane disturbed (err %v)\ngot  %x\nwant %x", victim, g.Err(2), got[2], want)
		}
		g.Close()
	}
}
