package cfg

import (
	"fmt"
	"sort"

	"ctxback/internal/artifact"
	"ctxback/internal/isa"
)

// Binary codec for Graph, used by the artifact store. The encoding is
// canonical: fields in fixed order, successor lists in build order, so
// encode∘decode∘encode is byte-identical.
//
// Only Blocks (starts + successor lists) and regionStart are written.
// blockOf and Preds are derived views and are rebuilt on decode; the
// program itself travels separately (it is the artifact's key).

// EncodeGraph appends g's canonical encoding to w.
func EncodeGraph(g *Graph, w *artifact.Writer) {
	w.Int(len(g.Blocks))
	for i := range g.Blocks {
		b := &g.Blocks[i]
		w.Int(b.Start)
		w.Int(b.End)
		w.Int(len(b.Succs))
		for _, s := range b.Succs {
			w.Int(s)
		}
	}
	w.Int(len(g.regionStart))
	for _, q := range g.regionStart {
		w.Int(q)
	}
}

// DecodeGraph reads a Graph for prog from r, rebuilding the derived
// blockOf and Preds views and validating block structure against the
// program's length.
func DecodeGraph(prog *isa.Program, r *artifact.Reader) (*Graph, error) {
	n := prog.Len()
	g := &Graph{Prog: prog}
	nb := r.Len(3 * 8) // start, end, successor count
	if nb == 0 {
		return nil, fmt.Errorf("cfg: decode: empty block list")
	}
	g.Blocks = make([]Block, nb)
	for i := 0; i < nb; i++ {
		b := &g.Blocks[i]
		b.ID = i
		b.Start = r.Int()
		b.End = r.Int()
		ns := r.Len(8)
		b.Succs = make([]int, ns)
		for j := range b.Succs {
			b.Succs[j] = r.Int()
		}
	}
	nr := r.Len(8)
	g.regionStart = make([]int, nr)
	for i := range g.regionStart {
		g.regionStart[i] = r.Int()
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	// Structural validation: blocks must tile [0, n) in order, edges and
	// region starts must be in range.
	want := 0
	for i := range g.Blocks {
		b := &g.Blocks[i]
		if b.Start != want || b.End <= b.Start || b.End > n {
			return nil, fmt.Errorf("cfg: decode: block %d spans [%d,%d) (want start %d, len %d)", i, b.Start, b.End, want, n)
		}
		want = b.End
		for _, s := range b.Succs {
			if s < 0 || s >= nb {
				return nil, fmt.Errorf("cfg: decode: block %d successor %d out of range", i, s)
			}
		}
	}
	if want != n {
		return nil, fmt.Errorf("cfg: decode: blocks cover %d of %d instructions", want, n)
	}
	if len(g.regionStart) != n+1 {
		return nil, fmt.Errorf("cfg: decode: %d region starts for %d instructions", len(g.regionStart), n)
	}
	for pc, q := range g.regionStart {
		if q < 0 || q > n || (pc < n && q > pc) {
			return nil, fmt.Errorf("cfg: decode: regionStart[%d] = %d out of range", pc, q)
		}
	}
	g.blockOf = make([]int, n)
	for i := range g.Blocks {
		for pc := g.Blocks[i].Start; pc < g.Blocks[i].End; pc++ {
			g.blockOf[pc] = i
		}
	}
	for i := range g.Blocks {
		for _, s := range g.Blocks[i].Succs {
			g.Blocks[s].Preds = append(g.Blocks[s].Preds, i)
		}
	}
	for i := range g.Blocks {
		sort.Ints(g.Blocks[i].Preds)
	}
	return g, nil
}
