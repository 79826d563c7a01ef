package cpu

import (
	"fmt"
	"math/rand"
	"testing"

	"darkarts/internal/isa"
	"darkarts/internal/microcode"
)

// bbOutcome is the full observable state compared by the block-cache
// differential tests: architecture (registers, flags, PC, halt/fault) plus
// every counter the defense reads.
type bbOutcome struct {
	regs    [isa.NumRegs]uint64
	flags   Flags
	pc      int
	halted  bool
	fault   string
	retired uint64
	rsx     uint64
	cycles  uint64
	hist    [isa.NumOps]uint64
	mem     []byte
}

// runBB executes prog to completion (or exhaustion) in fast mode with the
// block cache on or off, chopped into slices of the given size, applying
// step(core, machine, totalRetired) before each slice.
func runBB(t *testing.T, prog *isa.Program, noCache bool, slice uint64,
	step func(*CPU, uint64)) bbOutcome {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Cores = 1
	cfg.Characterize = true
	cfg.NoBlockCache = noCache
	machine, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(prog, machine.Memory(), 0x100_0000)
	if err != nil {
		t.Fatal(err)
	}
	core := machine.Core(0)
	core.LoadContext(ctx)
	var total uint64
	for !ctx.Halted {
		if step != nil {
			step(machine, total)
		}
		n := core.Run(slice)
		total += n
		if n == 0 && !ctx.Halted {
			t.Fatal("no progress")
		}
	}
	bank := core.Counters()
	out := bbOutcome{
		regs:    ctx.Regs,
		flags:   ctx.Flags,
		pc:      ctx.PC,
		halted:  ctx.Halted,
		retired: bank.Retired(),
		rsx:     bank.RSX(),
		cycles:  bank.Cycles(),
		hist:    bank.Histogram(),
		mem:     machine.Memory().ReadBytes(0x100_0000, 512),
	}
	if ctx.Fault != nil {
		out.fault = ctx.Fault.Error()
	}
	return out
}

func requireSameOutcome(t *testing.T, label string, a, b bbOutcome) {
	t.Helper()
	if a.regs != b.regs {
		t.Fatalf("%s: register state diverges", label)
	}
	if a.flags != b.flags {
		t.Fatalf("%s: flags diverge: %+v vs %+v", label, a.flags, b.flags)
	}
	if a.pc != b.pc {
		t.Fatalf("%s: PC %d vs %d", label, a.pc, b.pc)
	}
	if a.halted != b.halted || a.fault != b.fault {
		t.Fatalf("%s: halt/fault (%v,%q) vs (%v,%q)", label, a.halted, a.fault, b.halted, b.fault)
	}
	if a.retired != b.retired {
		t.Fatalf("%s: retired %d vs %d", label, a.retired, b.retired)
	}
	if a.rsx != b.rsx {
		t.Fatalf("%s: RSX %d vs %d", label, a.rsx, b.rsx)
	}
	if a.cycles != b.cycles {
		t.Fatalf("%s: cycles %d vs %d", label, a.cycles, b.cycles)
	}
	if a.hist != b.hist {
		t.Fatalf("%s: per-op histogram diverges", label)
	}
	for i := range a.mem {
		if a.mem[i] != b.mem[i] {
			t.Fatalf("%s: memory diverges at +%d", label, i)
		}
	}
}

// TestDifferentialBlockCacheVsStep is the block-cache equivalence property
// test: over the fuzz corpus, the cached engine must be bit-identical to the
// per-instruction reference loop — registers, flags, memory and all counter
// values — both for whole-program runs and for tiny slices that split
// blocks at arbitrary points.
func TestDifferentialBlockCacheVsStep(t *testing.T) {
	rng := rand.New(rand.NewSource(771))
	for trial := 0; trial < 40; trial++ {
		prog := randomProgram(rng)
		for _, slice := range []uint64{1 << 30, 7} {
			cached := runBB(t, prog, false, slice, nil)
			plain := runBB(t, prog, true, slice, nil)
			requireSameOutcome(t, prog.Name, cached, plain)
		}
	}
}

// TestBlockCacheFaultIdentity pins down the engines' agreement on the slow
// exits: a data-dependent divide fault mid-block and an out-of-range branch
// target must leave identical fault state, PC, and counters.
func TestBlockCacheFaultIdentity(t *testing.T) {
	divFault := func() *isa.Program {
		b := isa.NewBuilder("divfault")
		b.Movi(isa.R1, 100)
		b.Movi(isa.R2, 0)
		b.OpI(isa.XORI, isa.R3, isa.R1, 0x55) // tagged work before the fault
		b.Op3(isa.DIV, isa.R4, isa.R1, isa.R2)
		b.Halt()
		return b.MustBuild()
	}()
	retWild := func() *isa.Program {
		// RET with a bogus saved address: the only branch Validate cannot
		// range-check, so the PC bounds fault happens at run time.
		b := isa.NewBuilder("retwild")
		b.Movi(isa.R1, 1<<20)
		b.Push(isa.R1)
		b.Ret()
		b.Halt()
		return b.MustBuild()
	}()
	for _, prog := range []*isa.Program{divFault, retWild} {
		cached := runBB(t, prog, false, 1<<30, nil)
		plain := runBB(t, prog, true, 1<<30, nil)
		if cached.fault == "" {
			t.Fatalf("%s: expected a fault", prog.Name)
		}
		requireSameOutcome(t, prog.Name, cached, plain)
	}
}

// TestBlockCacheTagSwapInvalidation is the firmware-update property: a
// mid-run atomic tag-table swap must invalidate the cached pre-counts, and
// the cached engine must count RSX identically to the reference loop across
// the swap boundary.
func TestBlockCacheTagSwapInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(908))
	tables := []*microcode.TagTable{
		microcode.RSX(), microcode.RSXO(), microcode.RotateOnly(),
	}
	for trial := 0; trial < 10; trial++ {
		prog := randomProgram(rng)
		// Swap the table at fixed retired-instruction boundaries. Slices of
		// 13 instructions land the swaps inside blocks, so the invalidation
		// must take effect at the next Run call in both engines.
		swap := func(m *CPU, total uint64) {
			m.InstallTagTable(tables[(total/13)%uint64(len(tables))])
		}
		cached := runBB(t, prog, false, 13, swap)
		plain := runBB(t, prog, true, 13, swap)
		requireSameOutcome(t, prog.Name, cached, plain)
	}

	// And the invalidation itself must be observable: one swap, one
	// invalidation tick, and the pre-counts recomputed (different RSX totals
	// under the two tables for a rotate+shift loop).
	b := isa.NewBuilder("rot")
	b.Movi(isa.R12, 1_000_000)
	b.Label("loop")
	b.OpI(isa.ROLI, isa.R1, isa.R1, 1)
	b.OpI(isa.SHRI, isa.R2, isa.R1, 3)
	b.OpI(isa.SUBI, isa.R12, isa.R12, 1)
	b.Cmpi(isa.R12, 0)
	b.Jcc(isa.JNE, "loop")
	b.Halt()
	prog := b.MustBuild()

	cfg := DefaultConfig()
	cfg.Cores = 1
	machine, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(prog, machine.Memory(), 0x100_0000)
	if err != nil {
		t.Fatal(err)
	}
	core := machine.Core(0)
	core.LoadContext(ctx)

	// Prologue MOVI + 60 five-instruction iterations.
	core.Run(301)
	rsxBefore := core.Counters().RSX()
	if rsxBefore != 120 { // ROLI + SHRI both tagged under RSX
		t.Fatalf("RSX before swap = %d, want 120", rsxBefore)
	}
	if inv := core.BlockCacheStats().Invalidations; inv != 0 {
		t.Fatalf("invalidations before swap = %d", inv)
	}
	machine.InstallTagTable(microcode.RotateOnly())
	core.Run(300) // 60 more iterations under the rotate-only table
	st := core.BlockCacheStats()
	if st.Invalidations != 1 {
		t.Fatalf("invalidations after swap = %d, want 1", st.Invalidations)
	}
	if got := core.Counters().RSX() - rsxBefore; got != 60 { // only ROLI now
		t.Fatalf("RSX delta after swap = %d, want 60", got)
	}
}

// TestBlockCacheStats checks the cache's own accounting: a straight rerun of
// one loop is all hits after the first pass, and the length histogram's sum
// equals the instructions retired through the cache.
func TestBlockCacheStats(t *testing.T) {
	b := isa.NewBuilder("spin")
	b.Movi(isa.R12, 1000)
	b.Label("loop")
	b.OpI(isa.XORI, isa.R1, isa.R1, 0x9E)
	b.OpI(isa.ROLI, isa.R1, isa.R1, 7)
	b.OpI(isa.SUBI, isa.R12, isa.R12, 1)
	b.Cmpi(isa.R12, 0)
	b.Jcc(isa.JNE, "loop")
	b.Halt()
	prog := b.MustBuild()

	cfg := DefaultConfig()
	cfg.Cores = 1
	machine, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(prog, machine.Memory(), 0x100_0000)
	if err != nil {
		t.Fatal(err)
	}
	core := machine.Core(0)
	core.LoadContext(ctx)
	for !ctx.Halted {
		core.Run(1 << 30)
	}
	st := core.BlockCacheStats()
	if st.Misses == 0 || st.Hits == 0 {
		t.Fatalf("stats = %+v, want both hits and misses", st)
	}
	if st.Hits < st.Misses*100 {
		t.Fatalf("loop should be hit-dominated: %+v", st)
	}
	if st.LenSum != core.Counters().Retired() {
		t.Fatalf("LenSum %d != retired %d", st.LenSum, core.Counters().Retired())
	}
	var bucketTotal uint64
	for _, n := range st.LenCounts {
		bucketTotal += n
	}
	if bucketTotal != st.Hits+st.Misses {
		t.Fatalf("length histogram count %d != block executions %d", bucketTotal, st.Hits+st.Misses)
	}
}

// TestBlockCacheBranchIntoBlockMiddle pins the overlapping-block case: a
// branch targeting the interior of an already-cached block decodes a second
// (suffix) block and both execute correctly.
func TestBlockCacheBranchIntoBlockMiddle(t *testing.T) {
	// First pass runs A;B;C as one block; the back-edge then re-enters at B.
	b := isa.NewBuilder("midblock")
	b.Movi(isa.R12, 50)
	b.OpI(isa.ADDI, isa.R1, isa.R1, 1) // A
	b.Label("mid")
	b.OpI(isa.ADDI, isa.R2, isa.R2, 1) // B
	b.OpI(isa.XORI, isa.R3, isa.R2, 5) // C
	b.OpI(isa.SUBI, isa.R12, isa.R12, 1)
	b.Cmpi(isa.R12, 0)
	b.Jcc(isa.JNE, "mid")
	b.Halt()
	prog := b.MustBuild()

	cached := runBB(t, prog, false, 1<<30, nil)
	plain := runBB(t, prog, true, 1<<30, nil)
	requireSameOutcome(t, prog.Name, cached, plain)
	if cached.regs[1] != 1 || cached.regs[2] != 50 {
		t.Fatalf("unexpected results r1=%d r2=%d", cached.regs[1], cached.regs[2])
	}
}

// TestBlockEngineLoopShapes runs fixed hot-loop shapes through the block
// engine at every slice size from 1 to 40, so slice boundaries land at each
// offset of each block: a branch whose direction alternates by loop-counter
// parity, and a data-dependent divide fault moved through a loop body cut
// into short blocks.
func TestBlockEngineLoopShapes(t *testing.T) {
	parity := isa.NewBuilder("parity")
	parity.Movi(isa.R12, 600)
	parity.Label("loop")
	for i := 0; i < 10; i++ {
		parity.OpI(isa.XORI, isa.R1, isa.R1, 0x9E)
		parity.OpI(isa.ROLI, isa.R1, isa.R1, 7)
	}
	parity.OpI(isa.ANDI, isa.R13, isa.R12, 1)
	parity.Cmpi(isa.R13, 0)
	parity.Jcc(isa.JE, "even")
	parity.OpI(isa.ADDI, isa.R2, isa.R2, 3)
	parity.Label("even")
	parity.OpI(isa.ADDI, isa.R3, isa.R3, 1)
	parity.OpI(isa.SUBI, isa.R12, isa.R12, 1)
	parity.Cmpi(isa.R12, 0)
	parity.Jcc(isa.JNE, "loop")
	parity.Halt()
	progs := []*isa.Program{parity.MustBuild()}

	const body = 32
	for pos := 0; pos < body; pos += 5 {
		b := isa.NewBuilder(fmt.Sprintf("divpos%d", pos))
		b.Movi(isa.R12, 50)
		b.Label("loop")
		for i := 0; i < body; i++ {
			if i == pos {
				// R13 = R12-1 is zero on the last iteration only.
				b.OpI(isa.SUBI, isa.R13, isa.R12, 1)
				b.Op3(isa.DIV, isa.R4, isa.R1, isa.R13)
			} else {
				b.OpI(isa.XORI, isa.R1, isa.R1, int64(0x40+i))
			}
			if i%7 == 6 {
				// Always-taken jump to the fall-through ends the block.
				b.Cmpi(isa.R14, 0)
				b.Jcc(isa.JE, fmt.Sprintf("blk%d", i))
				b.Label(fmt.Sprintf("blk%d", i))
			}
		}
		b.OpI(isa.SUBI, isa.R12, isa.R12, 1)
		b.Cmpi(isa.R12, 0)
		b.Jcc(isa.JNE, "loop")
		b.Halt()
		progs = append(progs, b.MustBuild())
	}

	for i, prog := range progs {
		plain := runBB(t, prog, true, 1<<30, nil)
		if i > 0 && plain.fault == "" {
			t.Fatalf("%s: reference run did not fault", prog.Name)
		}
		for slice := uint64(1); slice <= 40; slice++ {
			cached := runBB(t, prog, false, slice, nil)
			requireSameOutcome(t, fmt.Sprintf("%s/slice=%d", prog.Name, slice), cached, plain)
		}
	}
	// 300 odd iterations take the fall-through (+3 each); every iteration
	// bumps R3.
	if out := runBB(t, progs[0], false, 1<<30, nil); out.regs[2] != 900 || out.regs[3] != 600 {
		t.Fatalf("parity branch accounting off: r2=%d r3=%d", out.regs[2], out.regs[3])
	}
}

// observerLog records exact retirement order, for the bypass test.
type observerLog struct {
	ops []isa.Op
}

func (o *observerLog) Retired(core int, in isa.Inst) { o.ops = append(o.ops, in.Op) }

// TestBlockCacheObserverBypass: a core with a retirement observer attached
// must bypass the cache (exact per-instruction order) and leave the cache
// stats untouched.
func TestBlockCacheObserverBypass(t *testing.T) {
	b := isa.NewBuilder("observe")
	b.OpI(isa.ADDI, isa.R1, isa.R1, 1)
	b.OpI(isa.XORI, isa.R2, isa.R1, 3)
	b.Halt()
	prog := b.MustBuild()

	cfg := DefaultConfig()
	cfg.Cores = 1
	machine, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(prog, machine.Memory(), 0x100_0000)
	if err != nil {
		t.Fatal(err)
	}
	core := machine.Core(0)
	log := &observerLog{}
	core.SetObserver(log)
	core.LoadContext(ctx)
	core.Run(1 << 20)
	want := []isa.Op{isa.ADDI, isa.XORI, isa.HALT}
	if len(log.ops) != len(want) {
		t.Fatalf("observed %d retirements, want %d", len(log.ops), len(want))
	}
	for i, op := range want {
		if log.ops[i] != op {
			t.Fatalf("retirement %d = %v, want %v", i, log.ops[i], op)
		}
	}
	if st := core.BlockCacheStats(); st != (BBStats{}) {
		t.Fatalf("observer run touched the block cache: %+v", st)
	}
}

// TestTagTableGen checks the generation contract the cache keys on: nil is
// generation 0 and every constructed table gets a fresh non-zero value.
func TestTagTableGen(t *testing.T) {
	if g := (*microcode.TagTable)(nil).Gen(); g != 0 {
		t.Fatalf("nil table gen = %d", g)
	}
	seen := map[uint64]bool{0: true}
	for i := 0; i < 5; i++ {
		g := microcode.RSX().Gen()
		if seen[g] {
			t.Fatalf("duplicate generation %d", g)
		}
		seen[g] = true
	}
}

// TestBlockCacheRetagGranularity is the per-program invalidation property:
// a tag-table swap must re-tag only the programs that actually run under
// the new generation — one invalidation tick each, with the decoded blocks
// kept (no rebuild, so Misses stays flat) and the recomputed pre-counts
// correct under the new table.
func TestBlockCacheRetagGranularity(t *testing.T) {
	mkLoop := func(name string, iters int64) *isa.Program {
		b := isa.NewBuilder(name)
		b.Movi(isa.R12, iters)
		b.Label("loop")
		b.OpI(isa.ROLI, isa.R1, isa.R1, 1)
		b.OpI(isa.SHRI, isa.R2, isa.R1, 3)
		b.OpI(isa.SUBI, isa.R12, isa.R12, 1)
		b.Cmpi(isa.R12, 0)
		b.Jcc(isa.JNE, "loop")
		b.Halt()
		return b.MustBuild()
	}
	progA := mkLoop("rotA", 20)
	progB := mkLoop("rotB", 20)

	cfg := DefaultConfig()
	cfg.Cores = 1
	machine, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	core := machine.Core(0)
	runToHalt := func(prog *isa.Program, base uint64) {
		t.Helper()
		ctx, err := NewContext(prog, machine.Memory(), base)
		if err != nil {
			t.Fatal(err)
		}
		core.LoadContext(ctx)
		core.Run(1 << 20)
		if !ctx.Halted {
			t.Fatalf("%s did not halt", prog.Name)
		}
	}

	// Warm both programs under the initial table.
	runToHalt(progA, 0x100_0000)
	runToHalt(progB, 0x200_0000)
	warm := core.BlockCacheStats()
	if warm.Misses == 0 || warm.Invalidations != 0 {
		t.Fatalf("warm-up stats off: %+v", warm)
	}
	rsxWarm := core.Counters().RSX()
	// Prologue MOVI + 20 iterations of (ROLI+SHRI tagged) per program.
	if rsxWarm != 2*2*20 {
		t.Fatalf("warm RSX = %d, want 80", rsxWarm)
	}

	// Swap firmware. Nothing is invalidated until a stale program runs.
	machine.InstallTagTable(microcode.RotateOnly())
	if inv := core.BlockCacheStats().Invalidations; inv != 0 {
		t.Fatalf("invalidations before any post-swap run = %d, want 0", inv)
	}

	// Running A re-tags A alone: one tick, no block rebuilds.
	runToHalt(progA, 0x100_0000)
	afterA := core.BlockCacheStats()
	if afterA.Invalidations != 1 {
		t.Fatalf("invalidations after re-running A = %d, want 1", afterA.Invalidations)
	}
	if afterA.Misses != warm.Misses {
		t.Fatalf("misses grew %d -> %d: retag rebuilt blocks", warm.Misses, afterA.Misses)
	}
	if got := core.Counters().RSX() - rsxWarm; got != 20 { // only ROLI tagged now
		t.Fatalf("post-swap RSX delta for A = %d, want 20", got)
	}

	// B was left stale; its own next run pays its own single tick.
	runToHalt(progB, 0x200_0000)
	afterB := core.BlockCacheStats()
	if afterB.Invalidations != 2 {
		t.Fatalf("invalidations after re-running B = %d, want 2", afterB.Invalidations)
	}
	if afterB.Misses != warm.Misses {
		t.Fatalf("misses grew %d -> %d: retag rebuilt blocks", warm.Misses, afterB.Misses)
	}

	// Steady state: the new generation is recorded, so further runs under
	// the same table re-tag nothing.
	runToHalt(progA, 0x100_0000)
	runToHalt(progB, 0x200_0000)
	if inv := core.BlockCacheStats().Invalidations; inv != 2 {
		t.Fatalf("steady-state invalidations = %d, want 2", inv)
	}
}
