package cpu

import (
	"math/bits"

	"darkarts/internal/isa"
	"darkarts/internal/microcode"
)

// Basic-block translation cache.
//
// The fast engine's per-instruction loop pays a PC bounds check, a decoder
// tag-table lookup, a HALT compare, and a context PC/flags writeback for
// every retired instruction. None of that work depends on run-time data
// within a straight-line region, so the block cache decodes each program
// once into basic blocks — maximal straight-line instruction runs ending at
// a control transfer, HALT, or faultable op — and pre-computes, per block,
// the RSX count under the current tag table. Executing a cached block then
// hoists PC and flag bookkeeping out of the instruction loop and retires the
// whole block with one batched counter update.
//
// The cache is core-private and is the only level of decoded-block caching:
// each core decodes its own blocks, and machines share nothing but the
// immutable program images themselves.
//
// Pre-counts are only valid for the tag table they were computed under, so
// they are keyed by the table's generation number (microcode.TagTable.Gen):
// a firmware update installs a table with a new generation and the next Run
// call drops every cached block. Observer-attached cores and the detailed
// engine bypass the cache entirely — they need exact per-instruction
// retirement order, which block-batched accounting does not provide.

// maxBlockLen caps a cached block's instruction count. The per-block tag
// set is a single uint64 bitmask (bit i = instruction i is tagged), which
// both bounds the decode cost of a partial retire and keeps blocks small
// enough that a mid-quantum slice boundary rarely splits one.
const maxBlockLen = 64

// maxCachedProgs bounds the per-core program map. The whole cache is
// dropped when a core has seen more distinct programs than this (a
// capacity invalidation); steady-state schedulers run far fewer programs
// per core.
const maxCachedProgs = 32

// BBLenBounds are the inclusive upper bounds of the insts-per-block
// histogram buckets reported in BBStats.LenCounts (the last bucket is
// unbounded, covering 33..maxBlockLen). Exposed so the kernel's
// observability layer registers its histogram with matching boundaries.
//
//cryptojack:immutable
var BBLenBounds = []uint64{1, 2, 4, 8, 16, 32}

// bbLenBuckets is len(BBLenBounds)+1: six bounded buckets plus overflow
// (33..maxBlockLen).
const bbLenBuckets = 7

// BBStats is a snapshot of one core's block-cache counters. The counters
// are written by the core's own execution goroutine; callers must observe
// the scheduler's quantum barrier (as the kernel's merge phase does) before
// reading them for another core.
//
//cryptojack:derived
type BBStats struct {
	// Hits and Misses count block lookups: a miss decodes and caches a new
	// block, a hit reuses one.
	Hits   uint64
	Misses uint64
	// Invalidations counts whole-cache drops: tag-table generation changes
	// plus capacity evictions (more than maxCachedProgs distinct programs).
	Invalidations uint64
	// LenCounts histograms the retired-instructions-per-block-execution
	// distribution over the BBLenBounds buckets; LenSum is the total
	// instructions retired through the cache (the histogram's sum).
	LenCounts [bbLenBuckets]uint64
	LenSum    uint64
}

// bbBlock is one decoded basic block with its pre-computed retire effects.
//
//cryptojack:derived
type bbBlock struct {
	// ops aliases Prog.Code[pc : pc+len] (programs are immutable once
	// running, so no copy is needed).
	ops []isa.Inst
	// pc is the index of ops[0] in Prog.Code.
	pc int
	// rsx is the number of tagged instructions in the block and tagMask
	// marks which (bit i ⇔ ops[i]); partial retires recover the prefix
	// count with one popcount instead of re-walking the tag table.
	rsx     uint64
	tagMask uint64
}

// blockCache is a core's private translation cache. All state is owned by
// the core's execution goroutine; the kernel reads stats at quantum merge.
//
//cryptojack:derived
type blockCache struct {
	progs map[*isa.Program]*progBlocks
	stats BBStats
}

// progBlocks holds one program's decoded blocks, densely indexed by entry
// pc (nil = not yet decoded). Entering the middle of a cached block (a
// branch target, or a slice boundary that split a block) simply decodes a
// new block starting there; both stay cached.
//
// gen is the tag-table generation this program's pre-counts were computed
// under. Generation is tracked per program so a firmware swap only touches
// programs as they next run — a stale program is re-tagged in place
// (pre-counts recomputed; decode and schedules are tag-independent) rather
// than the whole cache being dropped.
//
//cryptojack:derived
type progBlocks struct {
	blocks []*bbBlock
	gen    uint64
}

// retag recomputes every cached block's RSX count and tag mask of one
// program under a new tag table.
//
//cryptojack:coldpath
func (pb *progBlocks) retag(tags *microcode.TagTable) {
	for _, blk := range pb.blocks {
		if blk == nil {
			continue
		}
		blk.rsx = 0
		blk.tagMask = 0
		for i, in := range blk.ops {
			if tags.Tagged(in.Op) {
				blk.rsx++
				blk.tagMask |= 1 << uint(i)
			}
		}
	}
	pb.gen = tags.Gen()
}

// BlockCacheStats returns a snapshot of the core's block-cache counters
// (all zero when the cache is disabled or bypassed).
func (c *Core) BlockCacheStats() BBStats { return c.bb.stats }

// TraceStats is the counter set of the deleted superblock trace engine,
// kept only so the frozen end-to-end benchmark still compiles.
//
// Compatibility pin: read by perfbench/bench.go (cpu.trace_inst_frac and
// cpu.trace_side_exit_frac, both always 0). Delete it with TraceCacheStats
// at the next benchmark change.
type TraceStats struct {
	Hits, SideExits, LenSum uint64
}

// TraceCacheStats always returns zero counters: the fast engine has no
// trace tier. Compatibility pin for perfbench/bench.go; delete it at the
// next benchmark change.
func (c *Core) TraceCacheStats() TraceStats { return TraceStats{} }

// SharedBlocksStats is the counter set of the deleted fleet-scope shared
// block cache. Compatibility pin: read by perfbench/fleetwl.go
// (fleet.shared_bb_hit_frac, always 0); delete at the next benchmark change.
type SharedBlocksStats struct {
	Hits, Misses uint64
}

// SharedBlocks is the empty remnant of the deleted fleet-scope shared block
// cache: every core decodes its own blocks. Compatibility pin for
// perfbench/fleetwl.go; delete at the next benchmark change.
type SharedBlocks struct{}

// Stats always returns zero counters, also on a nil receiver. Compatibility
// pin for perfbench/fleetwl.go; delete at the next benchmark change.
func (*SharedBlocks) Stats() SharedBlocksStats { return SharedBlocksStats{} }

// invalidate drops every cached block (capacity eviction). The
// drop is counted only if there was something to drop, so cold starts do
// not report an invalidation.
//
//cryptojack:coldpath
func (bc *blockCache) invalidate() {
	if len(bc.progs) > 0 {
		bc.stats.Invalidations++
	}
	bc.progs = nil
}

// lookup returns the cached block table for prog, creating it on first
// sight (keyed to the current tag-table generation) and applying the
// capacity bound.
//
//cryptojack:coldpath
func (bc *blockCache) lookup(prog *isa.Program, gen uint64) *progBlocks {
	if len(bc.progs) >= maxCachedProgs {
		bc.invalidate()
	}
	if bc.progs == nil {
		bc.progs = make(map[*isa.Program]*progBlocks, 4)
	}
	pb := &progBlocks{blocks: make([]*bbBlock, len(prog.Code)), gen: gen}
	bc.progs[prog] = pb
	return pb
}

// buildBlock decodes the basic block starting at pc: a maximal straight-line
// run that includes its terminator (branch/CALL/RET, HALT, DIV/MOD, or an
// invalid opcode) and never exceeds maxBlockLen instructions or the end of
// the code image. Faultable ops terminate blocks so that a block has at most
// one data-dependent exit, at its last instruction.
//
//cryptojack:coldpath
func buildBlock(code []isa.Inst, pc int, tags *microcode.TagTable) *bbBlock {
	end := pc
	for end < len(code) && end-pc < maxBlockLen {
		op := code[end].Op
		end++
		if op.IsBranch() || op == isa.HALT || op == isa.DIV || op == isa.MOD || !op.Valid() {
			break
		}
	}
	blk := &bbBlock{ops: code[pc:end:end], pc: pc}
	for i, in := range blk.ops {
		if tags.Tagged(in.Op) {
			blk.rsx++
			blk.tagMask |= 1 << uint(i)
		}
	}
	return blk
}

// runFastBlocks is the block-cached fast engine. Architectural results are
// bit-identical to the plain per-instruction loop (runFastStep); only the
// bookkeeping schedule differs. The tag table is sampled once per Run call,
// exactly as the plain loop hoists it, so a concurrent firmware swap
// becomes visible at the same Run-call boundary in both engines.
//
//cryptojack:hotpath
func (c *Core) runFastBlocks(maxInsts uint64) uint64 {
	ctx := c.ctx
	code := ctx.Prog.Code
	tags := c.tagTable()
	characterizing := c.bank.Characterizing()

	gen := tags.Gen()
	pb := c.bb.progs[ctx.Prog]
	if pb == nil {
		pb = c.bb.lookup(ctx.Prog, gen)
	} else if pb.gen != gen {
		// Firmware swap: re-tag this program's pre-counts in place. Other
		// cached programs are re-tagged when they next run.
		c.bb.stats.Invalidations++
		pb.retag(tags)
	}
	blocks := pb.blocks

	var n, rsx uint64
	for n < maxInsts {
		pc := ctx.PC
		if uint(pc) >= uint(len(code)) {
			c.fault(ErrPCOutOfRange)
			break
		}
		blk := blocks[pc]
		if blk == nil {
			c.bb.stats.Misses++
			blk = buildBlock(code, pc, tags)
			blocks[pc] = blk
		} else {
			c.bb.stats.Hits++
		}
		retired, ok := c.execBlock(blk, maxInsts-n)
		n += retired
		if ok && retired == uint64(len(blk.ops)) {
			// Full block: batched pre-counted retire.
			rsx += blk.rsx
			if characterizing {
				for _, in := range blk.ops {
					c.bank.CountOp(in.Op)
				}
			}
		} else {
			// Partial retire (slice boundary or fault): the prefix RSX
			// count is one popcount over the pre-computed tag mask.
			rsx += uint64(bits.OnesCount64(blk.tagMask & (uint64(1)<<retired - 1)))
			if characterizing {
				for _, in := range blk.ops[:retired] {
					c.bank.CountOp(in.Op)
				}
			}
		}
		if retired > 0 {
			c.bb.stats.LenCounts[bits.Len64(retired-1)]++
			c.bb.stats.LenSum += retired
		}
		if !ok || ctx.Halted {
			break
		}
	}
	c.bank.AddRSX(rsx)
	c.bank.AddRetired(n)
	c.bank.AddCycles(n) // nominal IPC=1 in fast mode
	return n
}

// execBlock executes up to limit instructions of blk and returns the number
// retired plus ok=false on a fault (the faulting instruction is not
// retired, matching the plain engine). Flags live in a local until an exit
// point, and the context PC is written once — blocks end at control
// transfers, so every instruction before the last is straight-line and its
// PC successor is implied by its index.
//
//cryptojack:hotpath
func (c *Core) execBlock(blk *bbBlock, limit uint64) (uint64, bool) {
	ctx := c.ctx
	r := &ctx.Regs
	f := ctx.Flags
	ops := blk.ops
	n := uint64(len(ops))
	if limit < n {
		n = limit
	}
	for i := uint64(0); i < n; i++ {
		in := ops[i]
		switch in.Op {
		case isa.NOP:
		case isa.MOV:
			r[in.Rd] = r[in.Rs1]
		case isa.MOVI:
			r[in.Rd] = uint64(in.Imm)
		case isa.LEA:
			r[in.Rd] = r[in.Rs1] + uint64(in.Imm)

		case isa.LD:
			r[in.Rd] = c.load(r[in.Rs1]+uint64(in.Imm), 8)
		case isa.LD32:
			r[in.Rd] = c.load(r[in.Rs1]+uint64(in.Imm), 4)
		case isa.LD16:
			r[in.Rd] = c.load(r[in.Rs1]+uint64(in.Imm), 2)
		case isa.LD8:
			r[in.Rd] = c.load(r[in.Rs1]+uint64(in.Imm), 1)
		case isa.ST:
			c.store(r[in.Rs1]+uint64(in.Imm), r[in.Rs2], 8)
		case isa.ST32:
			c.store(r[in.Rs1]+uint64(in.Imm), r[in.Rs2], 4)
		case isa.ST16:
			c.store(r[in.Rs1]+uint64(in.Imm), r[in.Rs2], 2)
		case isa.ST8:
			c.store(r[in.Rs1]+uint64(in.Imm), r[in.Rs2], 1)
		case isa.PUSH:
			r[isa.SP] -= 8
			c.store(r[isa.SP], r[in.Rs1], 8)
		case isa.POP:
			r[in.Rd] = c.load(r[isa.SP], 8)
			r[isa.SP] += 8

		case isa.ADD:
			a, b := r[in.Rs1], r[in.Rs2]
			res := a + b
			f = addFlags(a, b, res)
			r[in.Rd] = res
		case isa.ADDI:
			a, b := r[in.Rs1], uint64(in.Imm)
			res := a + b
			f = addFlags(a, b, res)
			r[in.Rd] = res
		case isa.SUB:
			a, b := r[in.Rs1], r[in.Rs2]
			res := a - b
			f = subFlags(a, b, res)
			r[in.Rd] = res
		case isa.SUBI:
			a, b := r[in.Rs1], uint64(in.Imm)
			res := a - b
			f = subFlags(a, b, res)
			r[in.Rd] = res
		case isa.MUL:
			r[in.Rd] = r[in.Rs1] * r[in.Rs2]
			f = logicFlags(r[in.Rd])
		case isa.IMUL:
			r[in.Rd] = uint64(int64(r[in.Rs1]) * int64(r[in.Rs2]))
			f = logicFlags(r[in.Rd])
		case isa.DIV:
			if r[in.Rs2] == 0 {
				ctx.Flags = f
				ctx.PC = blk.pc + int(i)
				c.fault(ErrDivideByZero)
				return i, false
			}
			r[in.Rd] = r[in.Rs1] / r[in.Rs2]
			f = logicFlags(r[in.Rd])
		case isa.MOD:
			if r[in.Rs2] == 0 {
				ctx.Flags = f
				ctx.PC = blk.pc + int(i)
				c.fault(ErrDivideByZero)
				return i, false
			}
			r[in.Rd] = r[in.Rs1] % r[in.Rs2]
			f = logicFlags(r[in.Rd])
		case isa.NEG:
			r[in.Rd] = -r[in.Rs1]
			f = logicFlags(r[in.Rd])
		case isa.INC:
			r[in.Rd]++
			f = logicFlags(r[in.Rd])
		case isa.DEC:
			r[in.Rd]--
			f = logicFlags(r[in.Rd])

		case isa.AND:
			r[in.Rd] = r[in.Rs1] & r[in.Rs2]
			f = logicFlags(r[in.Rd])
		case isa.ANDI:
			r[in.Rd] = r[in.Rs1] & uint64(in.Imm)
			f = logicFlags(r[in.Rd])
		case isa.OR:
			r[in.Rd] = r[in.Rs1] | r[in.Rs2]
			f = logicFlags(r[in.Rd])
		case isa.ORI:
			r[in.Rd] = r[in.Rs1] | uint64(in.Imm)
			f = logicFlags(r[in.Rd])
		case isa.XOR:
			r[in.Rd] = r[in.Rs1] ^ r[in.Rs2]
			f = logicFlags(r[in.Rd])
		case isa.XORI:
			r[in.Rd] = r[in.Rs1] ^ uint64(in.Imm)
			f = logicFlags(r[in.Rd])
		case isa.NOT:
			r[in.Rd] = ^r[in.Rs1]
			f = logicFlags(r[in.Rd])

		case isa.SHL:
			r[in.Rd] = r[in.Rs1] << (r[in.Rs2] & 63)
			f = logicFlags(r[in.Rd])
		case isa.SHLI:
			r[in.Rd] = r[in.Rs1] << (uint64(in.Imm) & 63)
			f = logicFlags(r[in.Rd])
		case isa.SHR:
			r[in.Rd] = r[in.Rs1] >> (r[in.Rs2] & 63)
			f = logicFlags(r[in.Rd])
		case isa.SHRI:
			r[in.Rd] = r[in.Rs1] >> (uint64(in.Imm) & 63)
			f = logicFlags(r[in.Rd])
		case isa.SAR:
			r[in.Rd] = uint64(int64(r[in.Rs1]) >> (r[in.Rs2] & 63))
			f = logicFlags(r[in.Rd])
		case isa.SARI:
			r[in.Rd] = uint64(int64(r[in.Rs1]) >> (uint64(in.Imm) & 63))
			f = logicFlags(r[in.Rd])
		case isa.ROL:
			r[in.Rd] = bits.RotateLeft64(r[in.Rs1], int(r[in.Rs2]&63))
			f = logicFlags(r[in.Rd])
		case isa.ROLI:
			r[in.Rd] = bits.RotateLeft64(r[in.Rs1], int(uint64(in.Imm)&63))
			f = logicFlags(r[in.Rd])
		case isa.ROR:
			r[in.Rd] = bits.RotateLeft64(r[in.Rs1], -int(r[in.Rs2]&63))
			f = logicFlags(r[in.Rd])
		case isa.RORI:
			r[in.Rd] = bits.RotateLeft64(r[in.Rs1], -int(uint64(in.Imm)&63))
			f = logicFlags(r[in.Rd])
		case isa.ROL32I:
			r[in.Rd] = uint64(bits.RotateLeft32(uint32(r[in.Rs1]), int(uint64(in.Imm)&31)))
			f = logicFlags(r[in.Rd])
		case isa.ROR32I:
			r[in.Rd] = uint64(bits.RotateLeft32(uint32(r[in.Rs1]), -int(uint64(in.Imm)&31)))
			f = logicFlags(r[in.Rd])

		case isa.CMP:
			a, b := r[in.Rs1], r[in.Rs2]
			f = subFlags(a, b, a-b)
		case isa.CMPI:
			a, b := r[in.Rs1], uint64(in.Imm)
			f = subFlags(a, b, a-b)
		case isa.TEST:
			f = logicFlags(r[in.Rs1] & r[in.Rs2])

		// Control transfers and HALT only appear as a block's final
		// instruction; each writes flags and PC back and returns.
		case isa.JMP:
			ctx.Flags = f
			ctx.PC = int(in.Imm)
			return i + 1, true
		case isa.CALL:
			r[isa.SP] -= 8
			c.store(r[isa.SP], uint64(blk.pc)+i+1, 8)
			ctx.Flags = f
			ctx.PC = int(in.Imm)
			return i + 1, true
		case isa.RET:
			ctx.PC = int(c.load(r[isa.SP], 8))
			r[isa.SP] += 8
			ctx.Flags = f
			return i + 1, true
		case isa.JE, isa.JNE, isa.JL, isa.JLE, isa.JG, isa.JGE,
			isa.JB, isa.JBE, isa.JA, isa.JAE:
			if condTaken(in.Op, f) {
				ctx.Flags = f
				ctx.PC = int(in.Imm)
				return i + 1, true
			}
			// Not taken: fall through past the block's last instruction.
		case isa.HALT:
			ctx.Halted = true
			ctx.Flags = f
			ctx.PC = blk.pc + int(i) + 1
			return i + 1, true

		default:
			ctx.Flags = f
			ctx.PC = blk.pc + int(i)
			c.fault(ErrInvalidOp)
			return i, false
		}
	}
	ctx.Flags = f
	ctx.PC = blk.pc + int(n)
	return n, true
}
