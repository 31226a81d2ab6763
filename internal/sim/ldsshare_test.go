package sim

import (
	"testing"

	"ctxback/internal/isa"
)

// shareBlock builds one block of n warps over a 256-byte LDS, with the
// launch wiring coverOrphanLDSShares traverses.
func shareBlock(t *testing.T, states []WarpState) []*Warp {
	t.Helper()
	prog := &isa.Program{LDSBytes: 256}
	n := len(states)
	share := prog.LDSBytes / n
	bi := &blockInfo{id: 0, lds: &LDSBlock{Data: make([]uint32, prog.LDSBytes/4)}}
	l := &Launch{blocks: []*blockInfo{bi}}
	for wi, st := range states {
		w := newWarp(wi, 0, wi, prog, bi.lds, nil)
		w.LDSShareLo, w.LDSShareHi = wi*share, (wi+1)*share
		w.State = st
		w.launch = l
		bi.warps = append(bi.warps, w)
	}
	return bi.warps
}

func victims(warps []*Warp) []*Warp {
	var vs []*Warp
	for _, w := range warps {
		if w.State != WarpDone && w.State != WarpPreempted {
			vs = append(vs, w)
		}
	}
	return vs
}

// TestCoverOrphanLDSShares pins the save-coverage re-partition: the
// union of the victims' shares must span the whole block LDS even when
// peers retired before the signal, or the all-saved poison destroys
// shared data (a broadcast vector, a staged tile) that no context would
// ever restore. Regression for MV corruption under frequent preemption.
func TestCoverOrphanLDSShares(t *testing.T) {
	cases := []struct {
		name   string
		states []WarpState
		want   [][2]int // expected (lo, hi) per warp; Done warps keep theirs
	}{
		{"all-victims", []WarpState{WarpReady, WarpReady},
			[][2]int{{0, 128}, {128, 256}}},
		{"peer-done-high", []WarpState{WarpReady, WarpDone},
			[][2]int{{0, 256}, {128, 256}}},
		{"peer-done-low", []WarpState{WarpDone, WarpReady},
			[][2]int{{0, 128}, {0, 256}}},
		{"interleaved", []WarpState{WarpDone, WarpReady, WarpDone, WarpReady},
			[][2]int{{0, 64}, {0, 192}, {128, 192}, {192, 256}}},
		{"tail-orphans", []WarpState{WarpReady, WarpDone, WarpDone, WarpDone},
			[][2]int{{0, 256}, {64, 128}, {128, 192}, {192, 256}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			warps := shareBlock(t, tc.states)
			coverOrphanLDSShares(victims(warps))
			for i, w := range warps {
				if w.LDSShareLo != tc.want[i][0] || w.LDSShareHi != tc.want[i][1] {
					t.Errorf("warp %d: share [%d,%d), want [%d,%d)",
						i, w.LDSShareLo, w.LDSShareHi, tc.want[i][0], tc.want[i][1])
				}
			}
			// The victims must jointly cover every byte exactly once.
			covered := make([]int, 256)
			for _, w := range victims(warps) {
				for b := w.LDSShareLo; b < w.LDSShareHi; b++ {
					covered[b]++
				}
			}
			for b, c := range covered {
				if c != 1 {
					t.Fatalf("byte %d covered %d times", b, c)
				}
			}
		})
	}
}

// TestCoverOrphanLDSSharesParked pins that a block holding a parked
// (WarpPreempted) peer is left untouched: that peer restores its own
// share from its own episode, and widening a victim over it would both
// double-restore the range and break the parked context's size check.
func TestCoverOrphanLDSSharesParked(t *testing.T) {
	warps := shareBlock(t, []WarpState{WarpReady, WarpPreempted})
	coverOrphanLDSShares(victims(warps))
	for i, w := range warps {
		lo, hi := i*128, (i+1)*128
		if w.LDSShareLo != lo || w.LDSShareHi != hi {
			t.Errorf("warp %d: share [%d,%d) changed, want launch split [%d,%d)",
				i, w.LDSShareLo, w.LDSShareHi, lo, hi)
		}
	}
}
