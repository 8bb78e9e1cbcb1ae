// Package machine assembles the simulated multicore: cores with store
// queues, the cache hierarchy, the PM controller with its WPQ, and —
// depending on the evaluated design — per-core persist buffers
// (HOPS/DPO), the HOPS bloom filter, or PMEM-Spec's persist-paths and
// speculation buffer. It exposes the ISA-level operations that the
// failure-atomic runtime and the workloads execute: loads, stores,
// CLWB/SFENCE (IntelX86, DPO), ofence/dfence (HOPS), spec-barrier /
// spec-assign / spec-revoke (PMEM-Spec), and lock/unlock.
package machine

import (
	"fmt"

	"pmemspec/internal/pmc"
	"pmemspec/internal/ppath"
	"pmemspec/internal/sim"
)

// Design selects which of the paper's four evaluated systems the
// machine implements (§8.1).
type Design int

const (
	// IntelX86 is the baseline epoch persistency built from CLWB+SFENCE.
	IntelX86 Design = iota
	// DPO is buffered strict persistency: per-core persist buffers,
	// per-store ordering, and a single flush to the controller at a time.
	DPO
	// HOPS is buffered epoch persistency with ofence/dfence, per-core
	// persist buffers, and a bloom filter consulted by every PM load.
	HOPS
	// PMEMSpec is the paper's design: a decoupled persist-path per core
	// and a speculation buffer in the PM controller.
	PMEMSpec
	// Strand is StrandWeaver (strand persistency, §2.1/§9): per-core
	// strand buffers whose strands drain concurrently, NewStrand /
	// JoinStrand / persist-barrier instructions, and explicit dirty-
	// eviction writebacks. The paper discusses it as the most relaxed
	// prior design; it is not part of its Figure 9 set, so Designs
	// excludes it — experiments opt in explicitly.
	Strand
)

// Designs lists the paper's four evaluated designs in presentation
// order (Figure 9). The Strand extension is separate.
var Designs = []Design{IntelX86, DPO, HOPS, PMEMSpec}

// AllDesigns additionally includes the StrandWeaver extension.
var AllDesigns = []Design{IntelX86, DPO, HOPS, Strand, PMEMSpec}

func (d Design) String() string {
	switch d {
	case IntelX86:
		return "IntelX86"
	case DPO:
		return "DPO"
	case HOPS:
		return "HOPS"
	case PMEMSpec:
		return "PMEM-Spec"
	case Strand:
		return "StrandWeaver"
	default:
		return fmt.Sprintf("Design(%d)", int(d))
	}
}

// MarshalText renders the design name in JSON map keys and text output.
func (d Design) MarshalText() ([]byte, error) { return []byte(d.String()), nil }

// Config is the full machine configuration. DefaultConfig reproduces
// Table 3; experiments override individual fields.
type Config struct {
	Design Design
	Cores  int

	// Cache hierarchy (Table 3: 64 KB 4-way private L1 D, 2 ns hit;
	// 16 MB 16-way shared L2, 20 ns hit).
	L1Bytes, L1Ways   int
	LLCBytes, LLCWays int
	L1Latency         sim.Time
	LLCLatency        sim.Time
	// StickyBitPenalty is HOPS's extra cycle on the private↔shared bus.
	StickyBitPenalty sim.Time

	// Core resources.
	StoreQueueEntries int

	// PM controller.
	PMC        pmc.Config
	WPQEntries int
	// Controllers is the number of PM controllers, with cache blocks
	// interleaved across them. The paper's design supports one (§7:
	// "PMEM-Spec currently cannot support systems with multiple PM
	// controllers"); values > 1 implement that limitation study and —
	// with OrderedNoC — the extension the paper leaves as future work.
	Controllers int
	// OrderedNoC makes the on-chip network "respect the store order"
	// (§7): a core's persist messages reach all controllers in commit
	// order. Without it, per-(core,controller) paths are independent and
	// intra-thread persist order can break across controllers.
	OrderedNoC bool
	// WritebackLatency is the cache-to-controller transfer time
	// (the paper quotes 11 ns L1-to-PMC).
	WritebackLatency sim.Time

	// PMEM-Spec specifics.
	Path ppath.Config
	// SpecBufEntries is the speculation-buffer capacity (4 in Table 3).
	SpecBufEntries int
	// SpecWindow is the speculation window; 0 means cores × path
	// latency (§8.1).
	SpecWindow sim.Time
	// FetchBasedDetection selects the rejected §5.1.3 scheme (ablation).
	FetchBasedDetection bool

	// HOPS/DPO specifics.
	PersistBufEntries int
	BloomBuckets      int
	BloomLookupCost   sim.Time
	// PBufDrainLag models the buffered designs' drain contention: the
	// persist buffers flush through the shared memory interconnect
	// alongside demand traffic, while PMEM-Spec's dedicated persist-path
	// does not — the asymmetry §4.2 is built on.
	PBufDrainLag sim.Time

	// MemBytes is the simulated PM region size.
	MemBytes uint64

	// Timeline enables the event-timeline recorder: barrier spans, lock
	// handoffs, spec-ID assigns/revokes and speculation-buffer state
	// transitions are recorded against the simulated clock, retrievable
	// via Machine.Timeline. Off by default: recording allocates per
	// event, which the big experiment grids don't want.
	Timeline bool

	// Cancel, when non-nil, is polled by a self-re-registering kernel
	// watch (sim.Kernel.Watch) every CancelPollCycles of simulated time;
	// when it returns true the kernel stops and Run returns ErrCanceled.
	// The callback runs on the simulation goroutine but may read state
	// written by other host goroutines (an atomic flag, a context's
	// Err) — this is how a long-running service stops an in-flight run
	// it no longer wants. A watch never perturbs dispatch, so results
	// of uncancelled runs are byte-identical with and without a Cancel,
	// at any poll period.
	Cancel func() bool
	// CancelPollCycles is the poll period (0: DefaultCancelPoll).
	CancelPollCycles sim.Time
}

// DefaultCancelPoll is the default cancellation-poll period: 50 µs of
// simulated time, a few thousand polls over even the largest figure
// runs — cheap, yet responsive enough that a canceled cell stops long
// before its timeout doubles.
const DefaultCancelPoll = sim.Time(100_000)

// DefaultConfig returns the Table 3 configuration for a design and core
// count.
func DefaultConfig(d Design, cores int) Config {
	return Config{
		Design:            d,
		Cores:             cores,
		L1Bytes:           64 * 1024,
		L1Ways:            4,
		LLCBytes:          16 * 1024 * 1024,
		LLCWays:           16,
		L1Latency:         sim.NS(2),
		LLCLatency:        sim.NS(20),
		StickyBitPenalty:  1, // one bus cycle
		StoreQueueEntries: 32,
		PMC:               pmc.DefaultConfig(),
		WPQEntries:        64,
		Controllers:       1,
		WritebackLatency:  sim.NS(11),
		Path:              ppath.DefaultConfig(),
		SpecBufEntries:    4,
		SpecWindow:        0,
		PersistBufEntries: 32,
		BloomBuckets:      1024,
		BloomLookupCost:   sim.NS(2),
		PBufDrainLag:      sim.NS(10),
		MemBytes:          64 * 1024 * 1024,
	}
}

// Window returns the effective speculation window: the configured value,
// or cores × idle persist-path latency (160 ns at 8 cores × 20 ns).
func (c Config) Window() sim.Time {
	if c.SpecWindow > 0 {
		return c.SpecWindow
	}
	return sim.Time(c.Cores) * c.Path.Latency
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Cores < 1 || c.Cores > 64:
		return fmt.Errorf("machine: cores %d out of range [1,64]", c.Cores)
	case c.StoreQueueEntries < 1:
		return fmt.Errorf("machine: store queue needs ≥ 1 entry")
	case c.MemBytes < 1<<20:
		return fmt.Errorf("machine: PM region too small (%d bytes)", c.MemBytes)
	case c.Design == PMEMSpec && c.SpecBufEntries < 1:
		return fmt.Errorf("machine: speculation buffer needs ≥ 1 entry")
	case (c.Design == HOPS || c.Design == DPO || c.Design == Strand) && c.PersistBufEntries < 1:
		return fmt.Errorf("machine: persist buffer needs ≥ 1 entry")
	case c.Controllers < 0 || c.Controllers > 16:
		return fmt.Errorf("machine: controllers %d out of range [1,16]", c.Controllers)
	case c.Controllers > 1 && c.Design != PMEMSpec && c.Design != IntelX86:
		return fmt.Errorf("machine: multiple PM controllers are implemented for the persist-path designs only")
	}
	return nil
}

// NumControllers returns the effective controller count (≥ 1).
func (c Config) NumControllers() int {
	if c.Controllers < 1 {
		return 1
	}
	return c.Controllers
}

// String summarizes the configuration in the style of Table 3.
func (c Config) String() string {
	return fmt.Sprintf("%s: %d cores @2GHz | L1 %dKB/%d-way %v | LLC %dMB/%d-way %v | PM r/w %v/%v | path %v | specbuf %d | window %v",
		c.Design, c.Cores,
		c.L1Bytes/1024, c.L1Ways, c.L1Latency,
		c.LLCBytes/(1024*1024), c.LLCWays, c.LLCLatency,
		c.PMC.ReadLatency, c.PMC.WriteLatency,
		c.Path.Latency, c.SpecBufEntries, c.Window())
}
