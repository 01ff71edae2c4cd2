package core

import (
	"fmt"

	"sr2201/internal/checkpoint"
	"sr2201/internal/fault"
	"sr2201/internal/geom"
	"sr2201/internal/routing"
	"sr2201/internal/stats"
	"sr2201/internal/topo"
)

// Machine snapshot/restore. The machine layer adds three things on top of
// the engine's state: the fault set (which determines the routing policy —
// the policy itself is rebuilt, not serialized), the packet ID counter, and
// the measurement record (deliveries; the latency accumulators are rebuilt
// from them). Restore into a Machine created with the *same* Config; the
// snapshot carries a config fingerprint so a mismatch fails loudly instead
// of silently simulating a different machine.

const (
	secMachineMeta       = "machine.meta"
	secMachineFaults     = "machine.faults"
	secMachineDeliveries = "machine.deliveries"
	// secMachineReconfig (format version 3) carries the online-
	// reconfiguration state: the epoch counter, the active variant flag and
	// the generation descriptors (boundary + pinned effective lines);
	// present exactly when Config.Reconfig is enabled. The generations'
	// policies are rebuilt from the descriptors via routing.NewPinned — like
	// the base policy they are pure functions of (descriptor, fault set).
	secMachineReconfig = "machine.reconfig"
)

// configHash digests every Config field that changes machine behavior. The
// engine's own topology fingerprint covers Shape and Engine, but the
// routing-policy knobs and defaults live here.
func (m *Machine) configHash() uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(v int64) {
		u := uint64(v)
		for i := 0; i < 8; i++ {
			h ^= u & 0xff
			h *= prime
			u >>= 8
		}
	}
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	mix(int64(m.shape.Dims()))
	for _, n := range m.shape {
		mix(int64(n))
	}
	for _, b := range []byte(m.cfg.Topology) {
		mix(int64(b))
	}
	for _, v := range m.cfg.SXB {
		mix(int64(v))
	}
	for _, v := range m.cfg.DXB {
		mix(int64(v))
	}
	mix(b2i(m.cfg.DXBSeparate))
	mix(b2i(m.cfg.NaiveBroadcast))
	mix(0) // the retired pivot extension's knob, off: earlier fingerprints stay valid
	mix(int64(m.cfg.PacketSize))
	mix(int64(m.cfg.StallThreshold))
	if m.cfg.VCs > 1 {
		// Mixed only for VC machines, so default-config fingerprints (and
		// thus pre-VC snapshots) are unchanged. The engine's topology
		// fingerprint separates VC from non-VC networks regardless.
		mix(int64(m.cfg.VCs))
		mix(b2i(m.cfg.Adaptive))
	}
	if m.cfg.Reconfig != "" {
		// Same trick: only reconfiguration-enabled machines mix the mode, so
		// pre-reconfig snapshots keep their fingerprints.
		for _, b := range []byte(m.cfg.Reconfig) {
			mix(int64(b))
		}
	}
	return h
}

// EncodeState appends the machine's dynamic state (including its engine's)
// to a checkpoint container as the "machine.*" and "engine.*" sections.
func (m *Machine) EncodeState(w *checkpoint.Writer) {
	meta := w.Section(secMachineMeta)
	meta.Uint(m.configHash())
	meta.Uint(m.nextID)
	meta.Bool(m.useTables)

	fs := w.Section(secMachineFaults)
	list := m.faults.List()
	fs.Uint(uint64(len(list)))
	for _, f := range list {
		fault.EncodeFault(fs, f)
	}

	del := w.Section(secMachineDeliveries)
	del.Uint(uint64(len(m.deliveries)))
	for _, d := range m.deliveries {
		del.Uint(d.PacketID)
		geom.EncodeCoord(del, d.Src)
		geom.EncodeCoord(del, d.At)
		del.Bool(d.Broadcast)
		del.Bool(d.Detoured)
		del.Bool(d.Adaptive)
		del.Int(d.Cycle)
		del.Int(d.Latency)
	}

	if m.cfg.Reconfig != "" {
		rc := w.Section(secMachineReconfig)
		rc.Uint(m.epoch)
		rc.Bool(m.separateNow)
		rc.Uint(uint64(len(m.gens)))
		for _, g := range m.gens {
			rc.Uint(g.Boundary)
			geom.EncodeCoord(rc, g.SEff)
			geom.EncodeCoord(rc, g.DEff)
			rc.Bool(g.Separate)
		}
	}

	m.eng.EncodeState(w)
}

// Snapshot serializes the machine (and its engine) into one container.
func (m *Machine) Snapshot() []byte {
	w := checkpoint.NewWriter()
	m.EncodeState(w)
	return w.Bytes()
}

// Restore replaces the machine's dynamic state with a container produced by
// Snapshot on a machine built from the same Config. On error the machine is
// left in an unspecified state: restore into a fresh Machine and discard it
// on failure.
func (m *Machine) Restore(data []byte) error {
	r, err := checkpoint.NewReader(data)
	if err != nil {
		return err
	}
	return m.DecodeState(r)
}

// DecodeState restores the "machine.*" and "engine.*" sections into this
// machine. The OnDeliver callback is untouched. See Restore for the error
// contract.
func (m *Machine) DecodeState(r *checkpoint.Reader) error {
	meta, err := r.Section(secMachineMeta)
	if err != nil {
		return err
	}
	if got, want := meta.Uint(), m.configHash(); meta.Err() == nil && got != want {
		return fmt.Errorf("checkpoint: section %q: machine config fingerprint %016x does not match this machine's %016x", secMachineMeta, got, want)
	}
	nextID := meta.Uint()
	useTables := meta.Bool()
	if err := meta.Finish(); err != nil {
		return err
	}

	fs, err := r.Section(secMachineFaults)
	if err != nil {
		return err
	}
	nf := fs.Len(2)
	set := fault.NewSet(m.shape)
	for i := 0; i < nf; i++ {
		f := fault.DecodeFault(fs)
		if fs.Err() != nil {
			break
		}
		if err := set.Add(f); err != nil {
			return fmt.Errorf("checkpoint: section %q: %v", secMachineFaults, err)
		}
	}
	if err := fs.Finish(); err != nil {
		return err
	}

	del, err := r.Section(secMachineDeliveries)
	if err != nil {
		return err
	}
	nd := del.Len(8)
	deliveries := make([]Delivery, 0, nd)
	for i := 0; i < nd; i++ {
		var d Delivery
		d.PacketID = del.Uint()
		d.Src = geom.DecodeCoord(del)
		d.At = geom.DecodeCoord(del)
		d.Broadcast = del.Bool()
		d.Detoured = del.Bool()
		if del.Version() >= 2 {
			d.Adaptive = del.Bool()
		}
		d.Cycle = del.Int()
		d.Latency = del.Int()
		deliveries = append(deliveries, d)
	}
	if err := del.Finish(); err != nil {
		return err
	}

	// Everything validated; commit. The routing policy is a pure function of
	// (config, fault set), so one rebuild reproduces the policy the source
	// machine was routing with at snapshot time. Under reconfiguration the
	// generation descriptors join that function's input: each generation is
	// rebuilt pinned to its recorded effective lines against the restored
	// fault set.
	m.nextID = nextID
	m.useTables = useTables
	m.faults = set
	if m.cfg.Reconfig != "" {
		if err := m.decodeReconfig(r); err != nil {
			return err
		}
	} else if err := m.rebuildPolicy(); err != nil {
		return fmt.Errorf("checkpoint: rebuilding routing policy: %w", err)
	}
	m.deliveries = deliveries
	m.latency = stats.Latency{}
	m.bcastLat = stats.Latency{}
	for _, d := range m.deliveries {
		if d.Broadcast {
			m.bcastLat.Add(d.Latency)
		} else {
			m.latency.Add(d.Latency)
		}
	}
	return m.eng.DecodeState(r)
}

// decodeReconfig restores the reconfiguration section into a machine whose
// fault set is already committed: the epoch counter, the variant flag, and
// the generation list with every delegate rebuilt from its pinned
// descriptor.
func (m *Machine) decodeReconfig(r *checkpoint.Reader) error {
	rc, err := r.Section(secMachineReconfig)
	if err != nil {
		return err
	}
	epoch := rc.Uint()
	separateNow := rc.Bool()
	ng := rc.Len(4)
	gens := make([]routing.Generation, 0, ng)
	for i := 0; i < ng; i++ {
		var g routing.Generation
		g.Boundary = rc.Uint()
		g.SEff = geom.DecodeCoord(rc)
		g.DEff = geom.DecodeCoord(rc)
		g.Separate = rc.Bool()
		gens = append(gens, g)
	}
	if err := rc.Finish(); err != nil {
		return err
	}
	if len(gens) == 0 {
		return fmt.Errorf("checkpoint: section %q: no routing generations", secMachineReconfig)
	}
	m.epoch = epoch
	m.separateNow = separateNow
	m.gens = gens
	for i := range m.gens {
		p, err := m.pinnedGeneration(m.gens[i])
		if err != nil {
			return fmt.Errorf("checkpoint: section %q: rebuilding generation %d: %v", secMachineReconfig, i, err)
		}
		g, err := m.makeGeneration(m.gens[i].Boundary, p, m.gens[i].Separate)
		if err != nil {
			return fmt.Errorf("checkpoint: section %q: rebuilding generation %d: %v", secMachineReconfig, i, err)
		}
		m.gens[i] = g
		m.policy = p
	}
	m.walk = topo.NewWalker(m.shape, m.net.Wiring(), m.policy)
	if err := m.installGenerations(); err != nil {
		return fmt.Errorf("checkpoint: section %q: %v", secMachineReconfig, err)
	}
	return nil
}
