package artifact

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"
)

// fnvOracle is hash/fnv's 64-bit FNV-1a, the reference Checksum must equal.
func fnvOracle(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// checkChecksum compares every form of Checksum with hash/fnv on b: the
// byte form, Zeros after it for two run lengths derived from b, and, on
// b's whole little-endian words, the word form and PutWords, whose output
// must also equal those bytes.
func checkChecksum(b []byte) error {
	want := fnvOracle(b)
	if got := uint64(NewChecksum().Bytes(b)); got != want {
		return fmt.Errorf("Bytes = %016x, hash/fnv = %016x", got, want)
	}
	for _, n := range []int{len(b), len(b) * 37 % 4099} {
		if err := checkZeros(b, n); err != nil {
			return err
		}
	}
	whole := b[:len(b)&^3]
	words := make([]uint32, len(whole)/4)
	for i := range words {
		words[i] = binary.LittleEndian.Uint32(whole[4*i:])
	}
	want = fnvOracle(whole)
	if got := uint64(NewChecksum().Words(words)); got != want {
		return fmt.Errorf("Words = %016x, hash/fnv = %016x", got, want)
	}
	dst := make([]byte, len(whole))
	if got := uint64(NewChecksum().PutWords(dst, words)); got != want {
		return fmt.Errorf("PutWords = %016x, hash/fnv = %016x", got, want)
	}
	if !bytes.Equal(dst, whole) {
		return fmt.Errorf("PutWords wrote different bytes")
	}
	// A continued checksum must equal the checksum of the concatenation.
	if len(whole) >= 4 {
		if got := uint64(NewChecksum().Bytes(whole[:4]).Words(words[1:])); got != want {
			return fmt.Errorf("Bytes then Words = %016x, hash/fnv = %016x", got, want)
		}
	}
	return nil
}

// checkZeros compares Bytes(b).Zeros(n) with hash/fnv over b followed by
// n zero bytes.
func checkZeros(b []byte, n int) error {
	want := fnvOracle(append(slices.Clip(b), make([]byte, n)...))
	if got := uint64(NewChecksum().Bytes(b).Zeros(n)); got != want {
		return fmt.Errorf("Zeros(%d) after %d bytes = %016x, hash/fnv = %016x", n, len(b), got, want)
	}
	return nil
}

// mixed returns n bytes of alternating zero and random runs, so every
// block and word size of zero run appears somewhere.
func mixed(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := 0; i < n; {
		run := 1 + rng.Intn(150)
		if rng.Intn(2) == 0 {
			for j := i; j < i+run && j < n; j++ {
				b[j] = byte(1 + rng.Intn(255))
			}
		}
		i += run
	}
	return b
}

func TestChecksumMatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(1))

	t.Run("lengths-and-offsets", func(t *testing.T) {
		for _, buf := range [][]byte{make([]byte, 64+300), mixed(rng, 64+300)} {
			for off := 0; off < 64; off++ {
				for n := 0; n <= 300; n++ {
					if err := checkChecksum(buf[off : off+n]); err != nil {
						t.Fatalf("offset %d, length %d: %v", off, n, err)
					}
				}
			}
		}
	})

	t.Run("zero-runs", func(t *testing.T) {
		const n = 200
		dense := make([]byte, n)
		for i := range dense {
			dense[i] = byte(1 + rng.Intn(255))
		}
		b := make([]byte, n)
		for lo := 0; lo <= n; lo++ {
			for hi := lo; hi <= n; hi++ {
				copy(b, dense)
				clear(b[lo:hi])
				if err := checkChecksum(b); err != nil {
					t.Fatalf("zeros [%d, %d): %v", lo, hi, err)
				}
			}
		}
	})

	t.Run("one-byte-in-zero-block", func(t *testing.T) {
		b := make([]byte, 256)
		zero := NewChecksum().Bytes(b)
		for i := range b {
			for _, v := range []byte{0x01, 0x80, 0xff} {
				b[i] = v
				if err := checkChecksum(b); err != nil {
					t.Fatalf("byte %d = %#x: %v", i, v, err)
				}
				if NewChecksum().Bytes(b) == zero {
					t.Fatalf("byte %d = %#x hashes like the zero block", i, v)
				}
				b[i] = 0
			}
		}
	})

	t.Run("zeros", func(t *testing.T) {
		prefix := mixed(rng, 100)
		for n := 0; n <= 1000; n++ {
			if err := checkZeros(prefix[:n%101], n); err != nil {
				t.Fatal(err)
			}
		}
		for _, n := range []int{64 << 10, 1<<20 + 3, 16 << 20} {
			if err := checkZeros(prefix, n); err != nil {
				t.Fatal(err)
			}
		}
	})

	t.Run("16MiB-image", func(t *testing.T) {
		if err := checkChecksum(sparseImage(16 << 20)); err != nil {
			t.Fatal(err)
		}
	})
}

// sparseImage is a device-memory image with checkpoint-like sparsity:
// about 3% of its 8-byte words non-zero, most in clusters (a kernel's
// arrays) near the bottom of memory, a few scattered above.
func sparseImage(n int) []byte {
	rng := rand.New(rand.NewSource(7))
	b := make([]byte, n)
	for _, c := range []struct{ at, len int }{{0, n / 64}, {n / 16, n / 128}, {n / 8, n / 256}} {
		rng.Read(b[c.at : c.at+c.len])
	}
	for i := 0; i < n/4096; i++ {
		b[rng.Intn(n)] = byte(1 + rng.Intn(255))
	}
	return b
}

// denseImage has no zero 8-byte word, so folding never fires.
func denseImage(n int) []byte {
	rng := rand.New(rand.NewSource(7))
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(1 + rng.Intn(255))
	}
	return b
}

func FuzzChecksum(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add(make([]byte, 64))
	f.Add(make([]byte, 129))
	f.Add(mixed(rand.New(rand.NewSource(2)), 1000))
	one := make([]byte, 256)
	one[200] = 0x10
	f.Add(one)
	f.Fuzz(func(t *testing.T, b []byte) {
		if err := checkChecksum(b); err != nil {
			t.Fatal(err)
		}
	})
}

var sinkChecksum Checksum

// BenchmarkChecksum hashes a 16 MiB image with Checksum and, as the
// reference, with hash/fnv: sparse is checkpoint-like, dense has no zero
// 8-byte word, so there folding cannot help.
func BenchmarkChecksum(b *testing.B) {
	for _, in := range []struct {
		name string
		data []byte
	}{{"sparse", sparseImage(16 << 20)}, {"dense", denseImage(16 << 20)}} {
		b.Run(in.name, func(b *testing.B) {
			b.SetBytes(int64(len(in.data)))
			for i := 0; i < b.N; i++ {
				sinkChecksum = NewChecksum().Bytes(in.data)
			}
		})
		b.Run(in.name+"-hash-fnv", func(b *testing.B) {
			b.SetBytes(int64(len(in.data)))
			for i := 0; i < b.N; i++ {
				sinkChecksum = Checksum(fnvOracle(in.data))
			}
		})
	}
}
