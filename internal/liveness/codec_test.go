package liveness

import (
	"bytes"
	"strings"
	"testing"

	"ctxback/internal/artifact"
	"ctxback/internal/isa"
)

const codecSrc = `
.kernel codec
.vregs 4
.sregs 4
  v_laneid v0
  s_mov s0, 3
loop:
  v_add v1, v0, s0
  v_add v0, v1, 1
  s_sub s0, s0, 1
  s_cmp_gt s0, 0
  s_cbranch_scc1 loop
  v_gstore v2, v0, 0
  s_endpgm
`

// TestInfoCodecRoundTrip: encode∘decode∘encode is byte-identical, and
// the decoded Info answers LastDefIn like the analyzed one.
func TestInfoCodecRoundTrip(t *testing.T) {
	p, info := analyze(t, codecSrc)
	w := artifact.NewWriter()
	EncodeInfo(info, w)
	got, err := DecodeInfo(info.Graph, artifact.NewReader(w.Data()))
	if err != nil {
		t.Fatal(err)
	}
	w2 := artifact.NewWriter()
	EncodeInfo(got, w2)
	if !bytes.Equal(w.Data(), w2.Data()) {
		t.Fatal("re-encoded Info differs")
	}
	for pc := 0; pc < p.Len(); pc++ {
		for _, r := range []isa.Reg{isa.V(0), isa.V(1), isa.S(0), isa.SCC} {
			d1, ok1 := info.LastDefIn(pc, r)
			d2, ok2 := got.LastDefIn(pc, r)
			if d1 != d2 || ok1 != ok2 {
				t.Fatalf("pc %d %v: LastDefIn %d,%v after decode, %d,%v before", pc, r, d2, ok2, d1, ok1)
			}
		}
	}
}

// TestDecodeRejectsRegisterBeyondCapacity: a register that cannot be a
// RegSet member is a decode error, never a panic.
func TestDecodeRejectsRegisterBeyondCapacity(t *testing.T) {
	for _, bad := range []isa.Reg{isa.V(isa.MaxVRegs), isa.S(isa.MaxSRegs), {Class: isa.RegSpecial, Index: isa.MaxSpecials}, {}, {Class: 9}} {
		w := artifact.NewWriter()
		w.Int(1)
		EncodeReg(w, bad)
		r := artifact.NewReader(w.Data())
		DecodeRegSet(r)
		if r.Err() == nil || !strings.Contains(r.Err().Error(), "capacity") {
			t.Errorf("DecodeRegSet(%v): err = %v", bad, r.Err())
		}

		_, info := analyze(t, codecSrc)
		w = artifact.NewWriter()
		w.Int(len(info.LiveIn))
		w.Int(1) // LiveIn[0] holds the bad register
		EncodeReg(w, bad)
		if _, err := DecodeInfo(info.Graph, artifact.NewReader(w.Data())); err == nil {
			t.Errorf("DecodeInfo accepted %v", bad)
		}
	}
}

// TestDecodeInfoRejectsForeignDefChains: the def chains are checked
// against the program they are decoded for.
func TestDecodeInfoRejectsForeignDefChains(t *testing.T) {
	_, info := analyze(t, codecSrc)
	w := artifact.NewWriter()
	EncodeInfo(info, w)
	_, other := analyze(t, strings.Replace(codecSrc, "v_add v0, v1, 1", "v_add v3, v1, 1", 1))
	if _, err := DecodeInfo(other.Graph, artifact.NewReader(w.Data())); err == nil {
		t.Fatal("DecodeInfo accepted def chains of another program")
	}
}

// TestEncodedDefChainsAreLastDefs: the def chain encoded for each PC
// lists exactly the registers written earlier in its block, each with
// the PC LastDefIn reports.
func TestEncodedDefChainsAreLastDefs(t *testing.T) {
	p, info := analyze(t, codecSrc)
	w := artifact.NewWriter()
	EncodeInfo(info, w)
	r := artifact.NewReader(w.Data())
	all := []isa.Reg{isa.V(0), isa.V(1), isa.V(2), isa.V(3), isa.S(0), isa.S(1), isa.Exec, isa.VCC, isa.SCC}
	for pc, n := 0, r.Len(pcBytes); pc < n; pc++ {
		DecodeRegSet(r)
		DecodeRegSet(r)
		r.Bool()
		DecodeRegSet(r)
		got := map[isa.Reg]int{}
		for i, nd := 0, r.Len(chainBytes); i < nd; i++ {
			reg := DecodeReg(r)
			got[reg] = r.Int()
		}
		for _, reg := range all {
			def, ok := info.LastDefIn(pc, reg)
			if g, in := got[reg]; in != ok || (ok && g != def) {
				t.Errorf("%s pc %d %v: encoded %d,%v; LastDefIn %d,%v", p.Name, pc, reg, g, in, def, ok)
			}
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}
