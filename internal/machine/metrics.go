package machine

import (
	"fmt"

	"pmemspec/internal/metrics"
)

// occupancyBounds builds power-of-two histogram bounds up to a queue
// capacity: 1, 2, 4, … capacity.
func occupancyBounds(capacity int) []int64 {
	var out []int64
	for b := int64(1); b < int64(capacity); b *= 2 {
		out = append(out, b)
	}
	return append(out, int64(capacity))
}

// Timeline returns the event-timeline recorder, nil unless the machine
// was configured with Config.Timeline.
func (m *Machine) Timeline() *metrics.Timeline { return m.tl }

// MetricsSnapshot returns the machine's stable-sorted metrics: every
// component's statistics so far, published into a fresh registry and
// merged with the live instruments. It may be called at any point of a
// run, any number of times — the crash campaign snapshots each crash
// instant of one live run.
func (m *Machine) MetricsSnapshot() metrics.Snapshot {
	r := metrics.NewRegistry()
	for _, q := range m.wpqs {
		q.Publish(r)
	}
	for _, c := range m.ctrls {
		c.Publish(r)
	}
	for _, ps := range m.pathSets {
		ps.Publish(r)
	}
	for _, b := range m.specBufs {
		b.Publish(r)
	}
	m.publishStats(r)
	return metrics.Merge(m.reg.Snapshot(), r.Snapshot())
}

// publishStats copies the machine-level Stats into the registry under
// component "machine", plus the per-core durability-barrier tallies.
func (m *Machine) publishStats(r *metrics.Registry) {
	s := &m.stats
	r.Counter("machine", "loads").Add(s.Loads)
	r.Counter("machine", "stores").Add(s.Stores)
	r.Counter("machine", "l1_hits").Add(s.L1Hits)
	r.Counter("machine", "llc_hits").Add(s.LLCHits)
	r.Counter("machine", "pm_fetches").Add(s.PMFetches)
	r.Counter("machine", "clwbs").Add(s.CLWBs)
	r.Counter("machine", "sfences").Add(s.SFences)
	r.Counter("machine", "ofences").Add(s.OFences)
	r.Counter("machine", "dfences").Add(s.DFences)
	r.Counter("machine", "spec_barriers").Add(s.SpecBarriers)
	r.Counter("machine", "dirty_writebacks_to_pm").Add(s.DirtyWritebacksToPM)
	r.Counter("machine", "dropped_dirty_writebacks").Add(s.DroppedDirtyWritebacks)
	r.Counter("machine", "stale_fetches").Add(s.StaleFetches)
	r.Counter("machine", "misspeculations").Add(uint64(len(s.Misspeculations)))
	r.Counter("machine", "new_strands").Add(s.NewStrands)
	r.Counter("machine", "join_strands").Add(s.JoinStrands)
	r.Counter("machine", "persist_barriers").Add(s.PersistBarriers)
	r.Counter("machine", "sq_stall_cycles").Add(uint64(s.SQStallCycles))
	r.Counter("machine", "pbuf_stall_cycles").Add(uint64(s.PBufStallCycles))
	r.Counter("machine", "barrier_stall_cycles").Add(uint64(s.BarrierStallCycles))
	r.Counter("machine", "spec_overflow_pauses").Add(s.SpecOverflowPauses)
	r.Counter("machine", "lock_acquires").Add(s.LockAcquires)
	r.Counter("machine", "lock_handoffs").Add(s.LockHandoffs)
	r.Counter("machine", "trylock_fails").Add(s.TryLockFails)
	r.Counter("machine", "spec_assigns").Add(s.SpecAssigns)
	r.Counter("machine", "spec_revokes").Add(s.SpecRevokes)
	for core, n := range m.barriersPerCore {
		r.Counter("machine", fmt.Sprintf("barriers_core%02d", core)).Add(n)
	}
}
