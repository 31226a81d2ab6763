package main

import "time"

// Host speed on a shared VM drifts: the same op ran up to 2x slower a
// minute later, with set-up time following it, while the host showed no
// steal. Every op and every set-up is therefore timed next to a fixed
// reference loop, and reported at the speed the loop has at calNominal.
// The loop is an interpreter, fetching, decoding and dispatching
// instructions over a register file and a memory array as the simulator
// does, so it slows down with the host much as the simulator does. It
// does not allocate, so the program's heap does not change its time.
//
// Do not change the loop or calNominal: either rescales every op_ms and
// setup_s, so comparing across the change would be meaningless.

// calNominal is calibrate's typical time on the 2-core Intel Xeon VM
// (Go 1.24) the bounds in BENCHMARK.json were measured on.
const calNominal = 9.3e6 // ns

type calInstr struct{ op, a, b, c int32 }

// calProg walks r1 from 0 to r4 and, at each step, rewrites the memory
// word at r1*3 mod 64 Ki with its own value xor r1.
var calProg = [...]calInstr{
	{0, 1, 1, 1}, // r1 += 1
	{1, 2, 1, 3}, // r2 = r1*3 & 0xffff
	{2, 3, 2, 0}, // r3 = mem[r2]
	{3, 3, 0, 1}, // r3 ^= r1
	{4, 2, 3, 0}, // mem[r2] = r3
	{5, 1, 4, 0}, // if r1 < r4 goto 0
}

var (
	calMem  [1 << 16]int32
	calSink int32
)

// calibrate runs calProg twelve times and returns the time it took, in
// ns: about 9 ms, long enough to average over the scheduler's time
// slices as an op does. Callers finish any GC cycle first, so that it
// does not slow the loop.
func calibrate() int64 {
	t0 := time.Now()
	prog := calProg[:]
	var reg [8]int32
	for rep := 0; rep < 12; rep++ {
		reg[1], reg[4] = 0, 60000
		for pc := 0; pc < len(prog); {
			in := prog[pc]
			pc++
			switch in.op {
			case 0:
				reg[in.a] += in.c
			case 1:
				reg[in.a] = reg[in.b] * in.c & 0xffff
			case 2:
				reg[in.a] = calMem[reg[in.b]]
			case 3:
				reg[in.a] ^= reg[in.c]
			case 4:
				calMem[reg[in.a]] = reg[in.b]
			case 5:
				if reg[in.a] < reg[in.b] {
					pc = int(in.c)
				}
			}
		}
	}
	calSink += calMem[7]
	return int64(time.Since(t0))
}
