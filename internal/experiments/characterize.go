package experiments

import (
	"fmt"
	"sort"
	"sync"

	"darkarts/internal/cpu"
	"darkarts/internal/cryptoalg"
	"darkarts/internal/isa"
	"darkarts/internal/mem"
	"darkarts/internal/workload"
)

// DefaultWindow is the sampled instruction window for per-1B-instruction
// characterizations. The paper ran 1e9 instructions per workload; we run a
// window and scale (the workloads are steady-state loops, so scaling is
// exact up to sampling noise). Increase for tighter numbers.
const DefaultWindow = 4_000_000

// Characterization runs every workload of Figures 5-11 (the SPEC suite plus
// AES, SHA-2, SHA-3) through the functional simulator with per-opcode
// counters and returns per-1e9-instruction results in figure order.
func Characterization(window uint64) ([]workload.CharacterizationResult, error) {
	if window == 0 {
		window = DefaultWindow
	}
	type job struct {
		name string
		prog *isa.Program
	}
	var jobs []job
	for _, p := range workload.SPEC2K6() {
		jobs = append(jobs, job{p.Name, p.Program()})
	}
	jobs = append(jobs,
		job{"aes", workload.AESProgram()},
		job{"sha2", workload.SHA2Program()},
		job{"sha3", workload.SHA3Program()},
	)

	results := make([]workload.CharacterizationResult, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 4)
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i], errs[i] = workload.CharacterizeProgram(j.name, j.prog, window)
		}(i, j)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// characterizationTable renders one per-op figure from shared results.
func characterizationTable(id, title, unit string, res []workload.CharacterizationResult, pick func(workload.CharacterizationResult) uint64) Table {
	t := Table{
		ID:      id,
		Title:   title,
		Columns: []string{"workload", unit},
		Notes: []string{
			"SPEC mixes are calibrated to the paper (DESIGN.md); AES/SHA-2/SHA-3 are measured from real kernels executing on the simulated pipeline",
		},
	}
	for _, r := range res {
		t.Rows = append(t.Rows, []string{r.Name, fmtM(pick(r))})
	}
	return t
}

// Figure5 reports shift-right counts per 1B instructions.
func Figure5(res []workload.CharacterizationResult) Table {
	return characterizationTable("fig5", "Shift Right (SR) instructions per 1B", "SR",
		res, func(r workload.CharacterizationResult) uint64 { return r.SR })
}

// Figure6 reports shift-left counts per 1B instructions.
func Figure6(res []workload.CharacterizationResult) Table {
	return characterizationTable("fig6", "Shift Left (SL) instructions per 1B", "SL",
		res, func(r workload.CharacterizationResult) uint64 { return r.SL })
}

// Figure7 reports XOR counts per 1B instructions.
func Figure7(res []workload.CharacterizationResult) Table {
	return characterizationTable("fig7", "Exclusive OR (XOR) instructions per 1B", "XOR",
		res, func(r workload.CharacterizationResult) uint64 { return r.XOR })
}

// Figure8 reports rotate-right counts per 1B instructions.
func Figure8(res []workload.CharacterizationResult) Table {
	return characterizationTable("fig8", "Rotate Right (RR) instructions per 1B", "RR",
		res, func(r workload.CharacterizationResult) uint64 { return r.RR })
}

// Figure9 reports rotate-left counts per 1B instructions.
func Figure9(res []workload.CharacterizationResult) Table {
	return characterizationTable("fig9", "Rotate Left (RL) instructions per 1B", "RL",
		res, func(r workload.CharacterizationResult) uint64 { return r.RL })
}

// Figure10 reports total RSX counts per 1B instructions.
func Figure10(res []workload.CharacterizationResult) Table {
	t := characterizationTable("fig10", "Total RSX (rotate+shift+xor) per 1B", "RSX",
		res, func(r workload.CharacterizationResult) uint64 { return r.RSX() })
	t.Notes = append(t.Notes, ratioNote(res, func(r workload.CharacterizationResult) uint64 { return r.RSX() }, "RSX"))
	return t
}

// Figure11 reports total RSXO counts per 1B instructions.
func Figure11(res []workload.CharacterizationResult) Table {
	t := characterizationTable("fig11", "Total RSXO (rotate+shift+xor+or) per 1B", "RSXO",
		res, func(r workload.CharacterizationResult) uint64 { return r.RSXO() })
	t.Notes = append(t.Notes, ratioNote(res, func(r workload.CharacterizationResult) uint64 { return r.RSXO() }, "RSXO"))
	return t
}

// ratioNote states the SHA-2/SHA-3 to libquantum ratios the paper headlines
// (3x / 3.5x for RSX; 7x / 9x for RSXO).
func ratioNote(res []workload.CharacterizationResult, pick func(workload.CharacterizationResult) uint64, what string) string {
	var libq, sha2, sha3 uint64
	for _, r := range res {
		switch r.Name {
		case "libquantum":
			libq = pick(r)
		case "sha2":
			sha2 = pick(r)
		case "sha3":
			sha3 = pick(r)
		}
	}
	if libq == 0 {
		return "libquantum missing"
	}
	return fmt.Sprintf("%s ratio vs libquantum: SHA-2 %.1fx, SHA-3 %.1fx",
		what, float64(sha2)/float64(libq), float64(sha3)/float64(libq))
}

// Figure1 reports the static opcode distribution of the compiled Keccak
// subroutine (the paper's objdump analysis of Monero's keccakf()).
func Figure1() Table {
	prog, _ := cryptoalg.BuildKeccakFProgram()
	hist := prog.StaticHistogram()

	groups := map[string]int{}
	total := 0
	for op, n := range hist {
		total += n
		switch {
		case op.Is(isa.ClassMove) || op.Is(isa.ClassLoad) || op.Is(isa.ClassStore):
			if op == isa.PUSH || op == isa.POP {
				groups["PUSH/POP"] += n
			} else {
				groups["MOV (incl. load/store)"] += n
			}
		case op.Is(isa.ClassXor):
			groups["XOR"] += n
		case op.Is(isa.ClassAnd):
			groups["AND"] += n
		case op.Is(isa.ClassRotate):
			groups["ROR/ROL"] += n
		case op.Is(isa.ClassBranch):
			groups["branches"] += n
		default:
			groups["other"] += n
		}
	}
	names := make([]string, 0, len(groups))
	for g := range groups {
		names = append(names, g)
	}
	sort.Slice(names, func(i, j int) bool {
		if groups[names[i]] != groups[names[j]] {
			return groups[names[i]] > groups[names[j]]
		}
		return names[i] < names[j]
	})

	t := Table{
		ID:      "fig1",
		Title:   "Static opcode distribution of the compiled keccakf()",
		Columns: []string{"opcode group", "count", "share"},
		Notes: []string{
			"paper (x86 objdump of Monero): MOV 56%, XOR 24%, AND 8%, ROR/ROL 2%",
		},
	}
	for _, g := range names {
		t.Rows = append(t.Rows, []string{g, fmt.Sprintf("%d", groups[g]), fmtPct(float64(groups[g]) / float64(total))})
	}
	return t
}

// TableI echoes the modelled architectural configuration.
func TableI() Table {
	cfg := cpu.DefaultConfig()
	m := mem.DefaultHierarchyConfig()
	return Table{
		ID:      "table1",
		Title:   "Architectural configuration parameters",
		Columns: []string{"parameter", "value"},
		Rows: [][]string{
			{"Cores", fmt.Sprintf("%d (out-of-order)", cfg.Cores)},
			{"ISA", "x86-flavoured 64-bit (darkarts/internal/isa)"},
			{"Frequency", fmt.Sprintf("%.1fGHz", float64(cfg.FreqHz)/1e9)},
			{"IL1/DL1 Size", fmt.Sprintf("%dKB", m.L1I.SizeBytes/1024)},
			{"IL1/DL1 Block Size", fmt.Sprintf("%dB", m.L1I.BlockSize)},
			{"IL1/DL1 Associativity", fmt.Sprintf("%d-way", m.L1I.Assoc)},
			{"IL1/DL1 Latency", fmt.Sprintf("%d cycles", m.L1I.LatencyCy)},
			{"Coherence Protocol", "MESI (lite)"},
			{"L2 Size", fmt.Sprintf("%dMB", m.L2.SizeBytes/(1<<20))},
			{"L2 Block Size", fmt.Sprintf("%dB", m.L2.BlockSize)},
			{"L2 Associativity", fmt.Sprintf("%d-way", m.L2.Assoc)},
			{"L2 Latency", fmt.Sprintf("%d cycles", m.L2.LatencyCy)},
			{"Memory", fmt.Sprintf("flat DRAM model, %d-cycle latency", m.DRAMLatency)},
			{"ROB", fmt.Sprintf("%d entries", cfg.ROBSize)},
		},
	}
}

// TableII lists the extensively tested applications by category.
func TableII() Table {
	t := Table{
		ID:      "table2",
		Title:   "Applications extensively tested over a 1 hour period",
		Columns: []string{"category", "applications"},
	}
	byCat := map[workload.Category][]string{}
	for _, a := range workload.TableIIApps() {
		byCat[a.Category] = append(byCat[a.Category], a.Name)
	}
	for _, cat := range []workload.Category{
		workload.CatSocial, workload.CatCommunication,
		workload.CatProductivity, workload.CatEntertainment,
	} {
		names := byCat[cat]
		sort.Strings(names)
		t.Rows = append(t.Rows, []string{string(cat), join(names)})
	}
	return t
}

func join(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}
