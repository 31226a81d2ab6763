package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"ctxback/internal/cfg"
	"ctxback/internal/gen"
	"ctxback/internal/isa"
	"ctxback/internal/liveness"
)

// TestCompileConcurrent: compiles share no mutable state. Eight
// goroutines compile distinct programs, fresh content-equal clones, and
// the same program against one shared CFG and liveness (as the
// technique memo does); every result must match the serial encoding.
// make check runs it under the race detector.
func TestCompileConcurrent(t *testing.T) {
	const workers = 8
	var progs []*isa.Program
	for seed := uint64(0); seed < 4; seed++ {
		progs = append(progs, gen.Generate(seed).Prog)
	}
	want := make([][]byte, len(progs))
	graphs := make([]*cfg.Graph, len(progs))
	lives := make([]*liveness.Info, len(progs))
	for i, p := range progs {
		c, err := Compile(p, FeatAll)
		if err != nil {
			t.Fatal(err)
		}
		want[i], graphs[i], lives[i] = EncodeCompiled(c), c.Graph, c.Live
	}
	errs := make(chan error, workers*len(progs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range progs {
				i := (w + k) % len(progs)
				var c *Compiled
				var err error
				if (w+k)%2 == 0 {
					c, err = Compile(progs[i].Clone(), FeatAll)
				} else {
					c, err = CompileWith(progs[i], graphs[i], lives[i], FeatAll, DefaultMaxWindow)
				}
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(EncodeCompiled(c), want[i]) {
					errs <- fmt.Errorf("worker %d: program %d compiled differently from the serial run", w, i)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
