package isa_test

import (
	"slices"
	"testing"

	"darkarts/internal/isa"
	"darkarts/internal/workload"
)

// assembleDocExample is the syntax sample from Assemble's doc comment.
const assembleDocExample = `
; comments run to end of line
.name  keccak            ; optional program name
.data  4096              ; zero-initialised data bytes
start:
    MOVI r1, 42
    XOR  r2, r1, r1
    LD   r3, [r28+16]
    ST   [r28+24], r3
    CMPI r1, 0
    JNE  start
    HALT
`

// FuzzAssemble feeds arbitrary text to the assembler. It must never panic,
// and any program it accepts must survive a disassemble/assemble round
// trip with the same code, entry point and data size. The corpus is seeded
// with the disassembly of every registry program.
func FuzzAssemble(f *testing.F) {
	f.Add(assembleDocExample)
	for _, e := range workload.ProgramRegistry() {
		f.Add(isa.Disassemble(e.Build()))
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := isa.Assemble(src)
		if err != nil {
			return
		}
		text := isa.Disassemble(p)
		q, err := isa.Assemble(text)
		if err != nil {
			t.Fatalf("reassembling an accepted program: %v\n%s", err, text)
		}
		if !slices.Equal(p.Code, q.Code) {
			t.Fatalf("code changed across the round trip\n%s", text)
		}
		if p.Entry != q.Entry || p.DataSize != q.DataSize {
			t.Fatalf("entry/data size %d/%d became %d/%d", p.Entry, p.DataSize, q.Entry, q.DataSize)
		}
	})
}
