package gsa_test

import (
	"math"
	"testing"

	"darkarts/internal/gsa"
	"darkarts/internal/isa"
)

// decodeFuzzProgram turns an arbitrary byte string into a structurally
// valid program: four bytes per instruction, opcodes mapped into the
// defined range, registers masked, and branch and call targets folded
// into the program. Loops, recursion and unreachable code are all legal.
func decodeFuzzProgram(data []byte) *isa.Program {
	n := min(len(data)/4, 400)
	if n == 0 {
		return nil
	}
	ops := isa.AllOps()
	code := make([]isa.Inst, 0, n+1)
	for i := 0; i < n; i++ {
		b := data[i*4 : i*4+4]
		in := isa.Inst{
			Op:  ops[int(b[0])%len(ops)],
			Rd:  isa.Reg(b[1] % isa.NumRegs),
			Rs1: isa.Reg(b[2] % isa.NumRegs),
			Rs2: isa.Reg(b[3] % isa.NumRegs),
			Imm: int64(b[1])<<8 | int64(b[2]),
		}
		if in.Op.IsBranch() && in.Op != isa.RET {
			in.Imm = int64(int(b[3]) % (n + 1)) // in-range target
		}
		code = append(code, in)
	}
	code = append(code, isa.Inst{Op: isa.HALT})
	p := &isa.Program{Name: "fuzz", Code: code, DataSize: 4096}
	if p.Validate() != nil {
		return nil
	}
	return p
}

// FuzzAnalyze feeds arbitrary well-formed guest programs to the static
// analyzer: it must never panic, and every score it reports must be a
// finite number, since the kernel turns RiskScore into a detection prior.
func FuzzAnalyze(f *testing.F) {
	f.Add([]byte("seed-one-0123456789abcdef0123456789"))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(make([]byte, 256))
	f.Fuzz(func(t *testing.T, data []byte) {
		prog := decodeFuzzProgram(data)
		if prog == nil {
			t.Skip()
		}
		prof := gsa.Analyze(prog)
		finite := func(name string, v float64) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s = %v, want a finite number", name, v)
			}
		}
		finite("RiskScore", prof.RiskScore)
		finite("RSXDensity", prof.RSXDensity)
		finite("LoopRSXDensity", prof.LoopRSXDensity)
		for _, h := range prof.HotLoops {
			finite("HotLoop.Score", h.Score)
		}
	})
}
