package cpu

import (
	"fmt"
	"sync/atomic"

	"darkarts/internal/counters"
	"darkarts/internal/mem"
	"darkarts/internal/microcode"
)

// CPU is the simulated multi-core processor package: cores, shared memory,
// cache hierarchy, and the microcode-programmable decoder tag table shared
// by all cores' decode stages. The table pointer is atomic so firmware
// updates are safe against cores decoding on other goroutines.
//
//cryptojack:state
type CPU struct {
	cfg   Config
	mem   *mem.Memory
	hier  *mem.Hierarchy
	cores []*Core
	tags  atomic.Pointer[microcode.TagTable]
}

var _ microcode.UpdateTarget = (*CPU)(nil)

// New builds a CPU. The decoder tag table defaults to the paper's RSX set;
// install a different one via InstallTagTable (the firmware-update path).
func New(cfg Config) (*CPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := mem.NewMemory()
	var hier *mem.Hierarchy
	if cfg.Mode == ModeDetailed {
		var err error
		hier, err = mem.NewHierarchy(cfg.MemCfg, cfg.Cores)
		if err != nil {
			return nil, err
		}
	}
	c := &CPU{cfg: cfg, mem: m, hier: hier}
	c.tags.Store(microcode.RSX())
	for i := 0; i < cfg.Cores; i++ {
		core := &Core{
			id:   i,
			cfg:  cfg,
			mem:  m,
			hier: hier,
			bank: counters.New(cfg.Characterize),
			tags: &c.tags,
		}
		if cfg.Mode == ModeDetailed {
			core.tm.init(cfg)
		}
		c.cores = append(c.cores, core)
	}
	return c, nil
}

// Config returns the CPU configuration.
func (c *CPU) Config() Config { return c.cfg }

// Memory returns the shared physical memory.
func (c *CPU) Memory() *mem.Memory { return c.mem }

// Hierarchy returns the cache hierarchy (nil in fast mode).
func (c *CPU) Hierarchy() *mem.Hierarchy { return c.hier }

// Cores returns the number of cores.
func (c *CPU) Cores() int { return len(c.cores) }

// Core returns core i.
func (c *CPU) Core(i int) *Core { return c.cores[i] }

// TagTable returns the live decoder tag table.
func (c *CPU) TagTable() *microcode.TagTable { return c.tags.Load() }

// InstallTagTable atomically replaces the decoder tag table on all cores.
// This is the commit half of the OS-initiated firmware update flow.
func (c *CPU) InstallTagTable(t *microcode.TagTable) { c.tags.Store(t) }

// SecondsToCycles converts wall-clock seconds of simulated time to cycles.
func (c *CPU) SecondsToCycles(s float64) uint64 {
	return uint64(s * float64(c.cfg.FreqHz))
}

// String summarises the machine.
func (c *CPU) String() string {
	return fmt.Sprintf("cpu{%d cores, %.1f GHz, %s mode, tags %s}",
		c.cfg.Cores, float64(c.cfg.FreqHz)/1e9, c.cfg.Mode, c.tags.Load().Name())
}
