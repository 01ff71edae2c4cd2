// Package core is the public façade of the SR2201 network reproduction: a
// Machine bundles the lattice, the simulation kernel, the routing policy and
// the fault set, and exposes the operations a PE's network interface adapter
// (NIA) offers — point-to-point sends, hardware broadcasts — plus simulation
// control and measurement.
//
// Typical use:
//
//	m, _ := core.NewMachine(core.Config{Shape: geom.MustShape(8, 8)})
//	m.Send(geom.Coord{0, 0}, geom.Coord{7, 7}, 0)
//	out := m.Run(10_000)      // deadlock-watched simulation
//	fmt.Println(out.Drained, m.Deliveries())
package core

import (
	"errors"
	"fmt"
	"strings"

	"sr2201/internal/deadlock"
	"sr2201/internal/engine"
	"sr2201/internal/fault"
	"sr2201/internal/flit"
	"sr2201/internal/geom"
	"sr2201/internal/routing"
	"sr2201/internal/stats"
	"sr2201/internal/topo"

	// Imported for their init() registrations: every topo registration with
	// a New constructor is a topology this package can host.
	_ "sr2201/internal/topo/fullmesh"
	_ "sr2201/internal/topo/grid"
	_ "sr2201/internal/topo/hyperx"
)

// DefaultPacketSize is the packet length in flits when a caller passes 0.
// Eight flits against the default two-flit buffers puts the network in the
// wormhole-like regime of the paper's deadlock discussions.
const DefaultPacketSize = 8

// TopologyMDX names the paper's multi-dimensional crossbar network in
// Config.Topology: one shared crossbar switch per axis-aligned line,
// S-XB-serialized broadcasts, D-XB detours. The default. Every other
// topology is a direct-link lattice declared by its topo.Register entry —
// "hyperx", "fullmesh", and the paper's Section 3 baselines "mesh", "torus"
// and "torus-novc" (see Topologies).
const TopologyMDX = "mdx"

// Topologies lists the names Config.Topology accepts: the MD crossbar, then
// every registered direct-link family in name order.
func Topologies() []string {
	names := []string{TopologyMDX}
	for _, r := range topo.Registered() {
		if r.New != nil {
			names = append(names, r.Name)
		}
	}
	return names
}

// Reconfiguration modes for Config.Reconfig.
const (
	// ReconfigOnFault reconfigures when a dynamic fault lands (FailNow).
	ReconfigOnFault = "fault"
	// ReconfigOnDeadlock reconfigures when the recovery supervisor confirms
	// a deadlock (after the victim purge).
	ReconfigOnDeadlock = "deadlock"
	// ReconfigBoth reconfigures on either trigger.
	ReconfigBoth = "both"
)

// Config assembles a Machine.
type Config struct {
	// Shape is the lattice shape (n1, ..., nd). Required.
	Shape geom.Shape
	// Topology selects the interconnect: "" or TopologyMDX builds the
	// paper's MD crossbar network; any other name in Topologies builds that
	// direct-link lattice of internal/topo. The crossbar knobs (SXB, DXB,
	// DXBSeparate, NaiveBroadcast) apply only to the MD crossbar and are
	// rejected on direct-link topologies.
	Topology string
	// SXB fixes the serialized crossbar line (dims 1..d-1 of the coordinate);
	// dimension 0 is ignored. Defaults to the all-zero line.
	SXB geom.Coord
	// DXB fixes the detour crossbar line. The paper's deadlock-free scheme
	// uses DXB == SXB, which is the default when DXBSeparate is false.
	DXB geom.Coord
	// DXBSeparate uses the configured DXB instead of tying it to SXB,
	// reproducing the deadlock-prone configuration of paper Fig. 9.
	DXBSeparate bool
	// NaiveBroadcast disables S-XB serialization (paper Fig. 5 scheme).
	NaiveBroadcast bool
	// VCs is the number of virtual channels per router↔crossbar wire
	// (mdx-only; 0 or 1 builds the paper's single-channel network).
	VCs int
	// Adaptive enables escape-VC adaptive routing (DESIGN.md §12, beyond the
	// paper): lane 0 carries the unified deadlock-free scheme as the escape
	// channel, lanes 1..VCs-1 take any minimal productive hop. Requires
	// VCs >= 2; DXBSeparate (the escape channel must be the unified
	// D-XB = S-XB scheme) and NaiveBroadcast are rejected — either would
	// break escape acyclicity.
	Adaptive bool
	// Reconfig selects when online routing-table reconfiguration may run
	// (internal/reconfig, DESIGN.md §13): "" disables it, ReconfigOnFault
	// reconfigures when a dynamic fault lands (FailNow), ReconfigOnDeadlock
	// when a confirmed deadlock is recovered, ReconfigBoth on either
	// trigger. mdx-only; incompatible with Adaptive/VCs and NaiveBroadcast
	// (neither produces the static certificates the swap protocol
	// requires). UseCompiledTables and Restore refuse such a machine. The
	// machine only maintains the epoch-tagged generation machinery; the
	// decision procedure itself is driven by a reconfig.Manager installed
	// via SetReconfigurer.
	Reconfig string
	// Engine overrides kernel parameters; the zero value selects
	// engine.DefaultConfig.
	Engine engine.Config
	// PacketSize is the default packet length in flits (0 = DefaultPacketSize).
	PacketSize int
	// StallThreshold configures the deadlock watchdog (0 = package default).
	StallThreshold int64
}

// Delivery records one packet consumed by a PE.
type Delivery struct {
	PacketID uint64
	// Src is the originating PE (for broadcasts, the broadcast origin).
	Src geom.Coord
	// At is the receiving PE.
	At geom.Coord
	// Broadcast marks a copy delivered by the broadcast facility.
	Broadcast bool
	// Detoured marks a packet that traveled part of its route with RC=detour.
	Detoured bool
	// Adaptive marks a packet that took at least one hop on a non-escape
	// virtual channel (always false without escape-VC adaptive routing).
	Adaptive bool
	// Cycle is the delivery time; Latency is Cycle minus injection time.
	Cycle   int64
	Latency int64
}

// Machine is a simulated interconnect: the SR2201's MD crossbar network by
// default, or one of the direct-link lattices when Config.Topology selects
// it.
type Machine struct {
	cfg    Config
	shape  geom.Shape
	eng    *engine.Engine
	net    *topo.Net
	direct topo.Registration // the direct-link family (zero on the MD crossbar)
	router topo.Router       // installed direct-link scheme (nil on the MD crossbar)
	policy *routing.Policy   // MD crossbar routing policy (nil on direct-link topologies)
	walk   topo.Walker       // the send-side precheck: policy's decisions (the escape lane's under adaptive routing), or router's
	probe  flit.Header       // the header the precheck walks
	faults *fault.Set

	nextID     uint64
	useTables  bool
	deliveries []Delivery
	latency    stats.Latency
	bcastLat   stats.Latency

	// Online-reconfiguration state (Config.Reconfig != ""): epoch is the
	// stamp new packets inject under, gens the live routing-table
	// generations (oldest first), separateNow whether recompiles still use
	// the configured separate D-XB (cleared when a reconfiguration degrades
	// to the unified scheme), reconfigure the installed manager hook FailNow
	// defers to instead of rebuilding the policy itself.
	epoch       uint64
	gens        []routing.Generation
	separateNow bool
	reconfigure func(f fault.Fault) error

	// OnDeliver, if set, observes deliveries as they happen (in addition to
	// the recorded slice).
	OnDeliver func(Delivery)
}

// ModelsFaults reports whether the named topology can be faulted: the MD
// crossbar, and the direct-link families registered as honouring a fault
// set. The mesh and torus baselines model none.
func ModelsFaults(topology string) bool {
	if topology == TopologyMDX {
		return true
	}
	reg, _ := topo.Lookup(topology)
	return reg.Faults
}

// FieldError is a configuration rejection naming the Config field at fault,
// so every layer that spells the knob differently (a flag, a JSON field) can
// report it in its own vocabulary.
type FieldError struct {
	Field string
	Msg   string
}

func (e *FieldError) Error() string { return fmt.Sprintf("core: %s: %s", e.Field, e.Msg) }

// Validate applies the documented defaults in place (PacketSize, VCs, the
// D-XB tie, the topology name) and checks the knob-compatibility matrix. It
// is the only statement of which knobs combine: NewMachine, the run-spec
// resolver, the CLIs and the job decoder all call it. Shape-dependent rows
// need Shape set; its presence is NewMachine's own check.
func (c *Config) Validate() error {
	if c.PacketSize == 0 {
		c.PacketSize = DefaultPacketSize
	}
	if !c.DXBSeparate {
		c.DXB = c.SXB
	}
	if c.VCs == 0 {
		c.VCs = 1
	}
	if c.Topology == "" {
		c.Topology = TopologyMDX
	}
	var zero geom.Coord
	reg, _ := topo.Lookup(c.Topology)
	direct := reg.New != nil
	if !direct && c.Topology != TopologyMDX {
		return &FieldError{Field: "Topology", Msg: "unknown topology (want one of " + strings.Join(Topologies(), ", ") + ")"}
	}
	lanes := c.VCs > 1 || c.Adaptive
	for _, row := range []struct {
		bad        bool
		field, msg string
	}{
		{c.PacketSize < 0, "PacketSize", "negative packet size"},
		{c.VCs < 0, "VCs", "negative virtual-channel count"},
		{c.Adaptive && c.VCs < 2, "VCs", "adaptive routing needs at least 2 virtual channels (an escape lane plus an adaptive lane)"},
		{c.VCs > 1 && !c.Adaptive, "VCs", "virtual channels without adaptive routing would leave every lane but 0 unused"},
		{c.Adaptive && c.DXBSeparate, "Adaptive", "needs the unified design (the escape lane's deadlock-freedom certificate assumes D-XB = S-XB)"},
		{c.Adaptive && c.NaiveBroadcast, "Adaptive", "incompatible with naive broadcast (unserialized fans break escape-channel acyclicity)"},
		{c.Reconfig != "" && c.Reconfig != ReconfigOnFault && c.Reconfig != ReconfigOnDeadlock && c.Reconfig != ReconfigBoth,
			"Reconfig", "unknown mode (want fault, deadlock or both)"},
		{c.Reconfig != "" && direct, "Reconfig", "reconfiguration is mdx-only (no other topology has table generations)"},
		{c.Reconfig != "" && lanes, "Reconfig", "incompatible with virtual channels (the adaptive wrapper has no static certificate to recompile)"},
		{c.Reconfig != "" && c.NaiveBroadcast, "Reconfig", "incompatible with naive broadcast (unserialized fans admit no acyclicity certificate)"},
		{direct && c.DXBSeparate, "DXBSeparate", "direct-link topologies have no crossbars to configure (mdx-only)"},
		{direct && c.SXB != zero, "SXB", "direct-link topologies have no crossbars to configure (mdx-only)"},
		{direct && c.NaiveBroadcast, "NaiveBroadcast", "direct-link topologies have no hardware broadcast (mdx-only)"},
		{direct && lanes, "VCs", "direct-link topologies have no virtual channels (mdx-only)"},
	} {
		if row.bad {
			return &FieldError{Field: row.field, Msg: row.msg}
		}
	}
	if direct && c.Shape.Dims() > 0 {
		// Which shapes a family can be built on is the family's to say.
		if _, err := reg.New(c.Shape, nil); err != nil {
			return &FieldError{Field: "Topology", Msg: err.Error()}
		}
	}
	return nil
}

// NewMachine builds the network, installs the routing policy, and returns a
// ready Machine.
func NewMachine(cfg Config) (*Machine, error) {
	if cfg.Shape.Dims() == 0 {
		return nil, &FieldError{Field: "Shape", Msg: "config needs a shape"}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ecfg := cfg.Engine
	if ecfg == (engine.Config{}) {
		ecfg = engine.DefaultConfig()
	}

	m := &Machine{
		cfg:         cfg,
		shape:       cfg.Shape,
		eng:         engine.New(ecfg),
		faults:      fault.NewSet(cfg.Shape),
		separateNow: cfg.DXBSeparate,
	}
	var wiring topo.Wiring = topo.MDCrossbar{Shape: cfg.Shape, VCs: cfg.VCs}
	if cfg.Topology != TopologyMDX {
		m.direct, _ = topo.Lookup(cfg.Topology)
		s, err := m.direct.New(cfg.Shape, m.faults)
		if err != nil {
			return nil, err
		}
		wiring = s.Wiring()
	}
	m.net = topo.NewNet(m.eng, cfg.Shape, wiring)
	if err := m.rebuildPolicy(); err != nil {
		return nil, err
	}
	m.eng.OnDeliver = m.onDeliver
	return m, nil
}

// rebuildPolicy refreshes the routing layer against the current fault set:
// on the MD crossbar it rebuilds the S-XB/D-XB substitution policy
// (recompiling the lookup tables when enabled); on a direct-link topology
// it reinstalls the scheme with the fault set rebound.
func (m *Machine) rebuildPolicy() error {
	if m.direct.New != nil {
		s, err := m.direct.New(m.shape, m.faults)
		if err != nil {
			return err
		}
		m.router = s
		m.net.SetPolicy(topo.RouterPolicy(s))
		m.walk = topo.NewWalker(m.shape, m.net.Wiring(), topo.RouterPolicy(s))
		return nil
	}
	p, err := routing.New(m.RoutingConfig(m.separateNow))
	if err != nil {
		return err
	}
	m.policy = p
	m.walk = topo.NewWalker(m.shape, m.net.Wiring(), p)
	if m.cfg.Adaptive {
		// The algorithmic policy p stays the escape reference for Send-side
		// reachability and broadcast-tree queries; the switches run the
		// adaptive wrapper.
		vp, err := routing.NewVC(p, m.cfg.VCs)
		if err != nil {
			return err
		}
		m.net.SetPolicy(vp)
		return nil
	}
	if m.cfg.Reconfig != "" {
		// Collapse to a single generation covering every epoch: all traffic,
		// old and new, routes under the freshly rebuilt table — exactly the
		// pre-reconfiguration (PR 5) swap semantics. CommitGeneration is the
		// only path that preserves old tables for in-flight packets.
		m.gens = []routing.Generation{{Policy: p}}
		return m.installGenerations()
	}
	if m.useTables {
		tp, err := routing.Compile(p)
		if err != nil {
			return err
		}
		m.net.SetPolicy(tp)
	} else {
		m.net.SetPolicy(p)
	}
	return nil
}

// RoutingConfig returns the routing.Config the machine compiles its crossbar
// policy from, with the separate-D-XB variant selected by the flag (false
// ties the detour crossbar to the S-XB — the paper's unified deadlock-free
// scheme). The reconfiguration manager uses it to build candidate tables
// against the live fault set.
func (m *Machine) RoutingConfig(separate bool) routing.Config {
	dxb := m.cfg.SXB
	if separate {
		dxb = m.cfg.DXB
	}
	return routing.Config{
		Shape:          m.shape,
		SXB:            m.cfg.SXB,
		DXB:            dxb,
		Faults:         m.faults,
		NaiveBroadcast: m.cfg.NaiveBroadcast,
	}
}

// installGenerations points the switches at the current generation list.
func (m *Machine) installGenerations() error {
	ep, err := routing.NewEpochPolicy(m.gens)
	if err != nil {
		return err
	}
	m.net.SetPolicy(ep)
	return nil
}

// CommitGeneration installs a reconfigured routing policy as a new
// generation: the epoch counter advances, packets injected from now on stamp
// the new epoch and route under p, and in-flight packets keep routing under
// the generations they were injected into. Generations with no surviving
// in-flight packets are garbage-collected, by the census hdrs and unknown:
// what engine.InFlightHeaders returned with no Step or purge since, the
// census the caller certified the transition with. A retired generation
// keeps its policy as it is: the policy keeps its own effective lines and
// reads the machine's live fault set, so its packets detour around faults
// that land after it retired. separate records whether p is the
// separate-D-XB variant — committing a unified table degrades every later
// recompile to the unified scheme.
func (m *Machine) CommitGeneration(p *routing.Policy, separate bool, hdrs []*flit.Header, unknown []uint64) error {
	if m.cfg.Reconfig == "" {
		return fmt.Errorf("core: CommitGeneration needs Config.Reconfig")
	}
	m.epoch++
	m.gens = append(m.gens, routing.Generation{Boundary: m.epoch, Policy: p})
	m.policy = p
	m.walk = topo.NewWalker(m.shape, m.net.Wiring(), p)
	if !separate {
		m.separateNow = false
	}
	m.gcGenerations(hdrs, unknown)
	return m.installGenerations()
}

// gcGenerations drops generations no in-flight packet (hdrs) can still map
// to. The latest generation always survives; packets whose header flit is
// no longer locatable (unknown) could belong to any epoch, so any of them
// pins every generation.
func (m *Machine) gcGenerations(hdrs []*flit.Header, unknown []uint64) {
	if len(unknown) > 0 {
		return
	}
	live := make([]bool, len(m.gens))
	live[len(m.gens)-1] = true
	for _, h := range hdrs {
		live[routing.GenerationIndex(m.gens, h.Epoch)] = true
	}
	kept := m.gens[:0]
	for i, g := range m.gens {
		if live[i] {
			kept = append(kept, g)
		}
	}
	// The first surviving generation takes over every epoch below it (no
	// packets with those stamps remain).
	kept[0].Boundary = 0
	m.gens = kept
}

// Epoch reports the stamp packets inject under right now (0 until the first
// committed reconfiguration).
func (m *Machine) Epoch() uint64 { return m.epoch }

// ReconfigMode reports the Config.Reconfig trigger mode ("" when online
// reconfiguration is off).
func (m *Machine) ReconfigMode() string { return m.cfg.Reconfig }

// Generations returns the live routing-table generations, oldest first
// (empty when reconfiguration is off).
func (m *Machine) Generations() []routing.Generation { return m.gens }

// VariantSeparate reports whether recompiles still target the configured
// separate D-XB (false once a reconfiguration degraded to the unified
// scheme, or when the machine was never configured separate).
func (m *Machine) VariantSeparate() bool { return m.separateNow }

// RebuildPolicy recompiles the routing layer for the current variant under
// the live fault set and swaps it in for *all* traffic — the PR 5 fallback
// the reconfiguration manager degrades to when no admissible transition
// exists. Any deadlock the unprotected swap window produces is the recovery
// supervisor's to resolve.
func (m *Machine) RebuildPolicy() error { return m.rebuildPolicy() }

// SetReconfigurer installs the reconfiguration manager's fault hook: when
// set, FailNow defers the policy update for router/crossbar faults to it
// instead of rebuilding in place. The hook runs after the fault set is
// updated and the dead switch's packets are purged.
func (m *Machine) SetReconfigurer(fn func(f fault.Fault) error) { m.reconfigure = fn }

// UseCompiledTables switches the switches' forwarding decisions to the
// compiled lookup-table implementation (routing.Compile) — the hardware
// realization style the paper contrasts with the CRAY T3D. Send-side
// reachability prechecks keep using the algorithmic policy; AddFault
// recompiles the tables. A reconfiguring machine is refused: tables freeze
// the fault bits they were compiled under, and a retired generation must
// see the faults that land after it.
func (m *Machine) UseCompiledTables() error {
	if m.router != nil {
		return fmt.Errorf("core: compiled tables are mdx-only (topology %q)", m.cfg.Topology)
	}
	if m.cfg.Adaptive {
		return fmt.Errorf("core: compiled tables cannot express adaptive decisions (they depend on run-time port ownership)")
	}
	if m.cfg.Reconfig != "" {
		return fmt.Errorf("core: compiled tables cannot serve a reconfiguring machine (a retired generation must read faults that land after it)")
	}
	if !m.eng.Quiescent() {
		return fmt.Errorf("core: table switch-over needs a quiescent network")
	}
	m.useTables = true
	if err := m.rebuildPolicy(); err != nil {
		m.useTables = false
		return err
	}
	return nil
}

func (m *Machine) onDeliver(d engine.Delivery) {
	h := d.Header
	src := h.Src
	if h.RC == flit.RCBroadcast {
		src = h.BroadcastOrigin
	}
	del := Delivery{
		PacketID:  h.PacketID,
		Src:       src,
		At:        d.At.Meta.(*topo.PEMeta).Coord,
		Broadcast: h.RC == flit.RCBroadcast,
		Detoured:  h.DetourHops > 0,
		Adaptive:  h.AdaptiveHops > 0,
		Cycle:     d.Cycle,
		Latency:   d.Cycle - h.InjectedAt,
	}
	m.deliveries = append(m.deliveries, del)
	if del.Broadcast {
		m.bcastLat.Add(del.Latency)
	} else {
		m.latency.Add(del.Latency)
	}
	if m.OnDeliver != nil {
		m.OnDeliver(del)
	}
}

// AddFault marks a switch faulty. Fault information is "set in advance" in
// the hardware, so faults may only be added while the network is empty.
func (m *Machine) AddFault(f fault.Fault) error {
	if !m.eng.Quiescent() {
		return fmt.Errorf("core: faults must be configured on a quiescent network")
	}
	if err := m.checkFaultKind(f.Kind); err != nil {
		return err
	}
	if err := m.faults.Add(f); err != nil {
		return err
	}
	switch f.Kind {
	case fault.KindRouter:
		m.net.Router(f.Coord).Failed = true
	case fault.KindXB:
		m.net.XB(f.Line).Failed = true
	case fault.KindLink:
		// A link is a wire, not a node: nothing to mark in the engine. The
		// rebuilt scheme routes around it (or refuses the pair).
	}
	return m.rebuildPolicy()
}

// checkFaultKind rejects fault kinds the configured topology has no
// hardware for: crossbar faults exist only on the MD crossbar, link faults
// only on the direct-link topologies, and none at all on a family that
// models no faults (the mesh and torus baselines).
func (m *Machine) checkFaultKind(k fault.Kind) error {
	if !ModelsFaults(m.cfg.Topology) {
		return fmt.Errorf("core: topology %q models no faults", m.cfg.Topology)
	}
	crossbars := m.net.Wiring().Crossbars()
	if !crossbars && k == fault.KindXB {
		return fmt.Errorf("core: topology %q has no crossbars (crossbar faults are mdx-only)", m.cfg.Topology)
	}
	if crossbars && k == fault.KindLink {
		return fmt.Errorf("core: the mdx topology has no direct links (link faults need a direct-link topology)")
	}
	return nil
}

// Faults returns the machine's fault set.
func (m *Machine) Faults() *fault.Set { return m.faults }

// Lost describes one in-flight packet destroyed by a dynamic fault.
type Lost struct {
	PacketID uint64
	// Known marks whether the packet's header was recovered; Src, Dst, RC
	// and Size are meaningful only when it is.
	Known bool
	Src   geom.Coord
	Dst   geom.Coord
	RC    flit.RC
	Size  int
	// AlreadyDropped marks a packet the routing layer had already dropped
	// (and counted) before the fault wounded its remains.
	AlreadyDropped bool
}

// FailNow marks a switch faulty *while traffic is in flight* — the dynamic
// counterpart of AddFault. The fault set and every neighbor's fault bits
// update immediately, the routing policy is rebuilt (so not-yet-routed
// packets detour with RC=3 exactly as the paper's substitution rules
// dictate), and every packet occupying the dead switch is purged from the
// network (engine.KillSwitch semantics, DESIGN.md §6). The casualties are
// returned so callers — the inject layer — can arrange retransmission.
func (m *Machine) FailNow(f fault.Fault) ([]Lost, error) {
	if err := m.checkFaultKind(f.Kind); err != nil {
		return nil, err
	}
	if err := m.faults.Add(f); err != nil {
		return nil, err
	}
	var node *engine.Node
	switch f.Kind {
	case fault.KindRouter:
		node = m.net.Router(f.Coord)
	case fault.KindXB:
		node = m.net.XB(f.Line)
	case fault.KindLink:
		// A dynamic link fault is a clean cut: flits already launched onto
		// the wire complete their crossing, no packet is purged, and the
		// rebuilt scheme keeps new routing decisions off the link. Nothing
		// dies, so there are no casualties to report.
		if err := m.rebuildPolicy(); err != nil {
			return nil, err
		}
		return nil, nil
	default:
		return nil, fmt.Errorf("core: unknown fault kind %d", f.Kind)
	}
	killed := m.eng.KillSwitch(node)
	if m.reconfigure != nil {
		if err := m.reconfigure(f); err != nil {
			return nil, err
		}
	} else if err := m.rebuildPolicy(); err != nil {
		return nil, err
	}
	lost := make([]Lost, 0, len(killed))
	for _, k := range killed {
		l := Lost{PacketID: k.ID, AlreadyDropped: k.AlreadyDropped}
		if h := k.Header; h != nil {
			l.Known = true
			l.Src, l.Dst, l.RC, l.Size = h.Src, h.Dst, h.RC, h.Size
		}
		lost = append(lost, l)
	}
	return lost, nil
}

// PurgePacket removes one packet from the network with the engine's
// credit-conserving purge (engine.KillPacket): every flit, cut-through
// state and receive state the packet holds is released exactly as normal
// forwarding would release it, so the packets that were waiting on its
// resources resume. No switch is marked failed and the routing policy is
// untouched. The recovery layer uses it to sacrifice a deadlock victim.
//
// The second return is false — and nothing changes — when no trace of the
// packet remains in the network.
func (m *Machine) PurgePacket(id uint64) (Lost, bool) {
	k, ok := m.eng.KillPacket(id)
	if !ok {
		return Lost{}, false
	}
	l := Lost{PacketID: k.ID, AlreadyDropped: k.AlreadyDropped}
	if h := k.Header; h != nil {
		l.Known = true
		l.Src, l.Dst, l.RC, l.Size = h.Src, h.Dst, h.RC, h.Size
	}
	return l, true
}

// Send queues a point-to-point packet of the given size in flits (0 = the
// configured default). It refuses — like the NIA consulting the pre-set
// fault information — sends whose destination is unreachable, returning the
// routing error.
func (m *Machine) Send(src, dst geom.Coord, size int) (uint64, error) {
	if err := m.Reachable(src, dst); err != nil {
		return 0, err
	}
	return m.inject(flit.Header{Src: src, Dst: dst, RC: flit.RCNormal}, size)
}

// Reachable reports whether the active routing layer serves the pair: nil,
// or the refusal the NIA would return. Unreachable pairs on any topology
// satisfy errors.Is(err, routing.ErrUnreachable). On the MD crossbar a pair
// whose dimension-order route meets no fault is served at once
// (routing.Policy.PlainRoute); every other pair is walked, at no
// allocation: the walk replays the decisions in the machine's own scratch.
func (m *Machine) Reachable(src, dst geom.Coord) error {
	if !m.shape.Contains(src) || !m.shape.Contains(dst) {
		return fmt.Errorf("core: src %v or dst %v outside shape", src, dst)
	}
	if m.policy != nil && m.policy.PlainRoute(src, dst) {
		return nil
	}
	if m.faults.RouterFaulty(src) {
		return fmt.Errorf("%w: source router %v faulty", routing.ErrUnreachable, src)
	}
	m.probe = flit.Header{Src: src, Dst: dst, RC: flit.RCNormal}
	err := m.walk.Unicast(&m.probe, nil)
	if errors.Is(err, topo.ErrUnreachable) {
		return fmt.Errorf("%w: %v", routing.ErrUnreachable, err)
	}
	return err
}

// inject queues a packet with header h at its source PE, stamped with the
// next packet ID and the current epoch.
func (m *Machine) inject(h flit.Header, size int) (uint64, error) {
	if size <= 0 {
		size = m.cfg.PacketSize
	}
	m.nextID++
	h.PacketID, h.Epoch = m.nextID, m.epoch
	m.eng.InjectPacket(m.net.PE(h.Src), h, size)
	return m.nextID, nil
}

// Broadcast queues a hardware broadcast from src (S-XB-serialized, or the
// naive tree when the machine is configured NaiveBroadcast). The returned
// count is the number of PEs that will receive a copy; the error reports a
// source that cannot reach the serialization point. Both are the static
// tree's (routing.Policy.BroadcastTree), counted on the machine's own walk:
// after its first call, Broadcast allocates nothing.
func (m *Machine) Broadcast(src geom.Coord, size int) (uint64, int, error) {
	if m.router != nil {
		return 0, 0, fmt.Errorf("core: topology %q has no hardware broadcast facility (mdx-only)", m.cfg.Topology)
	}
	h, err := m.policy.BroadcastFrom(src)
	if err != nil {
		return 0, 0, err
	}
	// The fan is a tree (a router forwards only into higher dimensions, a
	// crossbar never back to its sender), so no PE is reached twice.
	copies, pe := 0, m.shape.Dims()
	if _, err := m.walk.Broadcast(&h, func(ch int32, _ *flit.Header, _ int) {
		if dim, _, out := m.walk.Port(ch); dim < 0 && out == pe {
			copies++
		}
	}); err != nil {
		return 0, 0, err
	}
	id, err := m.inject(h, size)
	return id, copies, err
}

// Step advances the simulation one cycle.
func (m *Machine) Step() { m.eng.Step() }

// Run steps until the network drains, deadlocks, or maxCycles elapse,
// returning the watched outcome.
func (m *Machine) Run(maxCycles int64) deadlock.Outcome {
	return deadlock.Run(m.eng, maxCycles, m.cfg.StallThreshold)
}

// Deliveries returns every delivery recorded since the last ResetStats (in
// delivery order). The slice is valid until the next ResetStats, which
// reuses its storage: copy what must outlive a reset.
func (m *Machine) Deliveries() []Delivery { return m.deliveries }

// ResetStats clears recorded deliveries and latency accumulators (in-flight
// packets keep their injection timestamps). Their storage is kept, so a
// harvest loop that reads and resets every window stops reallocating it.
func (m *Machine) ResetStats() {
	m.deliveries = m.deliveries[:0]
	m.latency.Reset()
	m.bcastLat.Reset()
}

// Latency returns the point-to-point latency distribution.
func (m *Machine) Latency() *stats.Latency { return &m.latency }

// BroadcastLatency returns the broadcast-copy latency distribution.
func (m *Machine) BroadcastLatency() *stats.Latency { return &m.bcastLat }

// Dropped reports packets discarded inside the network.
func (m *Machine) Dropped() int64 { return m.eng.Dropped() }

// Cycle reports the simulation time.
func (m *Machine) Cycle() int64 { return m.eng.Cycle() }

// Engine exposes the simulation kernel (for measurement and experiments).
func (m *Machine) Engine() *engine.Engine { return m.eng }

// Network exposes the built network.
func (m *Machine) Network() *topo.Net { return m.net }

// Topology reports the configured interconnect name (one of Topologies).
func (m *Machine) Topology() string { return m.cfg.Topology }

// Policy exposes the active routing policy (for static path queries; nil
// on direct-link topologies — see Reachable for the portable precheck).
func (m *Machine) Policy() *routing.Policy { return m.policy }

// Shape reports the lattice shape.
func (m *Machine) Shape() geom.Shape { return m.shape }

// Alive reports whether the PE at c can use the network: its relay switch
// must be healthy.
func (m *Machine) Alive(c geom.Coord) bool { return m.faults.PEAlive(c) }
