// Package engine is a deterministic, cycle-driven, flit-level simulation
// kernel for switched interconnection networks.
//
// The kernel knows nothing about topology or routing policy: callers build a
// network out of switches (with a per-switch routing function) and endpoints
// (which inject and consume packets), connect ports with unidirectional
// links, and step the clock. The kernel implements the mechanisms the
// SR2201 paper's phenomena depend on:
//
//   - cut-through switching: the header flit claims output ports and the rest
//     of the packet streams through the opened circuit until the tail passes;
//   - credit-based flow control with finite per-input buffers, so a blocked
//     packet holds channels across switches (the wormhole-like regime in
//     which every deadlock in the paper arises);
//   - multi-port acquisition for broadcast fan-out, either incremental
//     (hold-and-wait, as in hardware and paper Fig. 5) or atomic;
//   - physical-channel multiplexing so several output ports (virtual
//     channels) can share one link's bandwidth, used by the torus baseline.
//
// Everything is iterated in fixed index order with per-resource round-robin
// arbiters, so simulations are bit-for-bit reproducible. The hot path visits
// only active elements each cycle (see scheduler.go); the active sets are
// exact predicates of each phase's no-op conditions and are iterated in
// index order, so skipping idle elements cannot change any outcome. An engine
// is single-goroutine: Step runs every phase on the caller's goroutine and
// starts none of its own.
package engine

import (
	"fmt"
	"slices"

	"sr2201/internal/flit"
)

// AcquireMode selects how a packet that needs several output ports at one
// switch (a broadcast fan-out) claims them.
type AcquireMode uint8

const (
	// AcquireAtomic grants either all requested ports or none, in order of
	// header arrival, with the ports of an older unsatisfiable request
	// reserved against younger ones (no starvation). This models the SR2201
	// crossbar, whose broadcast replay engages the whole fan simultaneously
	// ("one-by-one in order of arrival"). Hold-and-wait within one switch is
	// eliminated — but not across switches, which is where the paper's
	// deadlocks live (a fan that did start still stalls on downstream
	// credits while holding every branch).
	AcquireAtomic AcquireMode = iota
	// AcquireIncremental grants whatever requested ports are free each cycle
	// and holds them while waiting for the rest (hold-and-wait inside a
	// single switch, too). Kept as an ablation: it additionally deadlocks
	// two broadcast requests meeting at the serialized crossbar itself.
	AcquireIncremental
)

// Config collects kernel-wide parameters.
type Config struct {
	// BufferDepth is the number of flit slots in each input port buffer.
	// Depths smaller than the packet size give wormhole-like blocking.
	BufferDepth int
	// LinkDelay is the number of cycles a flit spends on a link. Minimum 1.
	LinkDelay int
	// Acquire selects fan-out acquisition semantics.
	Acquire AcquireMode
	// EjectRate caps the flits an endpoint consumes per cycle; 0 = unlimited.
	EjectRate int
	// DisableActiveSet forces the kernel to scan every link, port and
	// endpoint each cycle instead of visiting only active elements. The two
	// modes are bit-for-bit equivalent (asserted by the differential tests);
	// the full scan exists as the reference implementation and for
	// debugging, not for production runs.
	DisableActiveSet bool
}

// DefaultConfig returns the configuration used throughout the experiments:
// 2-flit buffers (well below the default 8-flit packets, i.e. wormhole-like),
// single-cycle links, atomic per-switch acquisition, unlimited ejection.
func DefaultConfig() Config {
	return Config{BufferDepth: 2, LinkDelay: 1, Acquire: AcquireAtomic}
}

func (c *Config) normalize() {
	if c.BufferDepth < 1 {
		c.BufferDepth = 1
	}
	if c.LinkDelay < 1 {
		c.LinkDelay = 1
	}
	if c.EjectRate < 0 {
		c.EjectRate = 0
	}
}

// NodeKind distinguishes switching elements from traffic endpoints.
type NodeKind uint8

const (
	// KindSwitch is a routing element (crossbar or relay switch).
	KindSwitch NodeKind = iota
	// KindEndpoint is a PE-side network interface: it injects packets and
	// consumes everything that arrives.
	KindEndpoint
)

// Decision is the result of routing one packet header at one switch input.
type Decision struct {
	// Outs lists the output ports the packet must acquire. len(Outs) > 1
	// replicates the packet (broadcast fan-out). The kernel copies the
	// slice, so routing functions may reuse its backing array.
	Outs []int
	// Rewrite, if non-zero, is applied to the header of the copies forwarded
	// out of this switch (RC-bit transitions, hop counts): once per branch,
	// to a copy the kernel owns and is about to forward.
	Rewrite flit.Rewrite
	// Provisional marks a decision that binds for one allocation round only:
	// if the single requested output is not granted this cycle, the kernel
	// discards the state and routes the header again next cycle, letting an
	// adaptive policy choose a different output. Requires len(Outs) == 1.
	// The packet's arrival stamp is preserved across re-routes, so the
	// oldest-first arbiter still serves it by its true age.
	Provisional bool
}

// RouteFunc computes the forwarding decision for a packet header arriving on
// input port in of switch n. It must be deterministic and side-effect free.
// An engine calls it only from the goroutine running Step; distinct engines
// (one per sweep worker) may call the same function concurrently. A returned
// error drops the packet and surfaces through OnDrop.
type RouteFunc func(n *Node, in int, h *flit.Header) (Decision, error)

// PortRef names one directed port of one node.
type PortRef struct {
	Node *Node
	Port int
}

func (p PortRef) String() string {
	if p.Node == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%s.%d", p.Node.Name, p.Port)
}

// routeState tracks the active packet on one switch input port from header
// grant until the tail flit leaves. States are pooled; the outs and granted
// slices are reused across packets.
type routeState struct {
	header   *flit.Header
	outs     []*OutPort // the decision's output ports, in its order
	granted  []bool
	nGranted int
	rewrite  flit.Rewrite
	sink     bool // dropping: consume flits until Last without forwarding
	// since is the cycle the header was routed; atomic allocation serves
	// requests oldest-first ("in order of arrival"). A provisional re-route
	// keeps the original stamp.
	since int64
	// provisional marks a Decision.Provisional route: discarded and recomputed
	// each cycle until its single output is granted.
	provisional bool
}

func (rs *routeState) allGranted() bool { return rs.nGranted == len(rs.outs) }

// InPort is a switch or endpoint input: a FIFO flit buffer fed by one link.
// Flits are stored by value: they are copied as they move, so the steady
// state allocates nothing per hop.
type InPort struct {
	node *Node
	idx  int
	// buf is a fixed ring of cap slots, allocated when the first flit is
	// sent to the port (a port no route uses never pays for one); the queue
	// is the n flits from head on, wrapping, and behind them the fly flits
	// still on the link into the port (see Link). Nothing is appended or
	// shifted as flits come and go.
	buf          []flit.Flit
	head, n, fly int
	cap          int
	// landsAt is the cycle the last flit sent to the port lands in.
	landsAt int64
	// linkActive marks the link into the port as carrying flits: set when
	// a flit is sent on it and, under the active set, cleared by the landing
	// that leaves it empty. LinkVisits counts the links marked at the start
	// of each landing phase (see scheduler.go).
	linkActive bool
	// upstream is the link that feeds this port (nil if unconnected); used to
	// return credits when a flit leaves the buffer.
	upstream *Link
	// route is the active cut-through state, nil when no packet is mid-flight.
	route *routeState
	// recvHeader remembers the header of the packet currently being consumed
	// by an endpoint (set when the header flit is ejected).
	recvHeader *flit.Header
	// active marks membership in the active input-port set (switch inports
	// only); pos is the port's position in the full switch/port scan, its bit in
	// the set; ordKey (node ID, port index) orders ports the same way and
	// names the port in StateHash.
	active bool
	pos    int
	ordKey int64
	// BlockedCycles counts cycles in which this port had a routed or routable
	// packet that failed to advance.
	BlockedCycles int64
}

// Buffered reports the number of flits currently queued at the port.
func (p *InPort) Buffered() int { return p.n }

// at returns the i-th queued flit (0 = head). The pointer aliases the ring
// slot: it must not be retained across pops or pushes.
func (p *InPort) at(i int) *flit.Flit {
	j := p.head + i
	if j >= p.cap {
		j -= p.cap
	}
	return &p.buf[j]
}

// put writes a flit behind the queued and in-flight ones; the caller counts
// it in n or fly. The caller has checked n+fly < cap (credits guarantee it).
func (p *InPort) put(f flit.Flit) {
	if p.buf == nil {
		p.buf = make([]flit.Flit, p.cap)
	}
	*p.at(p.n + p.fly) = f
}

// shift removes and returns the flit at the head of the buffer.
func (p *InPort) shift() flit.Flit {
	f := p.buf[p.head]
	if f.Header != nil {
		// A vacated slot must not keep the packet's header alive until the
		// ring comes round again.
		p.buf[p.head].Header = nil
	}
	p.head++
	if p.head == p.cap {
		p.head = 0
	}
	p.n--
	return f
}

// pop removes the front flit, returning the freed buffer slot's credit
// upstream.
func (p *InPort) pop() flit.Flit {
	if p.upstream != nil {
		p.upstream.from.creditReturn()
	}
	return p.shift()
}

// front returns the flit at the head of the buffer, or nil. The pointer
// aliases the buffer slot: it must not be retained across pops or pushes.
func (p *InPort) front() *flit.Flit {
	if p.n == 0 {
		return nil
	}
	return &p.buf[p.head]
}

// OutPort is a switch or endpoint output: the upstream end of one link, with
// the credit counter for the downstream buffer and cut-through ownership.
type OutPort struct {
	node *Node
	idx  int
	// down is the input port the output's link feeds (nil if unconnected).
	down *InPort
	// owner is the input port whose packet currently holds this output, or
	// nil when the port is free.
	owner *InPort
	// credits counts free slots in the downstream input buffer.
	credits int
	// phys, when non-nil, is the shared physical channel this port sends on.
	phys *PhysChannel
	// arb is the round-robin pointer over requesting input ports.
	arb int
	// reservedCycle implements atomic allocation's anti-starvation
	// reservation without a per-cycle map: the port counts as reserved when
	// reservedCycle equals the current cycle.
	reservedCycle int64
	// pendStamp/pend gather this cycle's incremental-mode requesters without
	// a per-cycle map; pend's backing array is reused across cycles.
	pendStamp int64
	pend      []*InPort
	// BusyCycles counts cycles in which a flit crossed this port.
	BusyCycles int64
	// ConflictCycles counts allocation cycles in which two or more packets
	// requested this port simultaneously (the paper's "network conflicts").
	ConflictCycles int64
	// lastReqCycle / conflictCounted implement the per-cycle conflict count.
	lastReqCycle    int64
	conflictCounted bool
}

func (o *OutPort) creditReturn() { o.credits++ }

// Owned reports whether the port is currently held by a packet.
func (o *OutPort) Owned() bool { return o.owner != nil }

// Node is one network element: a switch with a routing function, or an
// endpoint.
type Node struct {
	ID   int
	Name string
	Kind NodeKind
	// Meta carries topology-level payload (coordinates, fault tables, ...)
	// for the routing function.
	Meta any
	// Failed marks a faulty switch: any flit arriving at it is dropped. The
	// fault-tolerant routing layer must keep traffic away from failed nodes;
	// drops here indicate a routing bug (or an intentionally unreachable
	// destination) and are reported via OnDrop.
	Failed bool

	In    []*InPort
	Out   []*OutPort
	route RouteFunc

	eng *Engine

	// Endpoint state. The source queue is injectQ[injectHead:]; consuming
	// advances the head and the buffer is rewound once empty, so steady
	// traffic reuses one allocation instead of leaking front capacity.
	injectQ      []flit.Flit
	injectHead   int
	epIdx        int   // position among the endpoints: the bit in both endpoint sets
	ejectActive  bool  // membership in the active ejection set
	injectActive bool  // membership in the active injection set
	Injected     int64 // packets handed to Inject
	Sent         int64 // packets whose tail left the endpoint
	Received     int64 // packets fully consumed at this endpoint
}

// InjectQueueLen reports the flits waiting in the endpoint's source queue.
func (n *Node) InjectQueueLen() int { return len(n.injectQ) - n.injectHead }

// pendingInject is the live region of the endpoint's source queue.
func (n *Node) pendingInject() []flit.Flit { return n.injectQ[n.injectHead:] }

// Link is a unidirectional wire between an output and an input port: a
// delay over the downstream buffer. It stores nothing. A flit sent on it is
// written once, into the downstream port's ring behind the flits visible
// there (InPort.fly counts them), and lands, becoming visible, delay cycles
// later (see land). Every link of an engine has the LinkDelay delay.
type Link struct {
	id    int
	from  *OutPort
	to    *InPort
	delay int
}

// flightSlot returns, between Steps (or from the PreCycle/PostCycle hooks),
// the arrival list of a flit that has spent age landing phases in flight:
// it was sent in cycle cycle-1-age and lands in a cycle of the same residue.
func (e *Engine) flightSlot(age int) int {
	d := int64(e.cfg.LinkDelay)
	return int(((e.cycle-1-int64(age))%d + d) % d)
}

// flightAges returns the ages of the flits in flight into p, oldest first
// (their order in the ring), as seen between Steps. No flit stores its age:
// the arrival list a flit is on tells it (see flightSlot). Only cold paths
// (StateHash, snapshots, purges) ask.
func (e *Engine) flightAges(p *InPort) []int {
	if e.cfg.LinkDelay == 1 {
		return zeroAge[:p.fly] // a flit sent last cycle; it lands next
	}
	var ages []int
	for age := e.cfg.LinkDelay - 1; age >= 0 && len(ages) < p.fly; age-- {
		if slices.Contains(e.arrivals[e.flightSlot(age)], p) {
			ages = append(ages, age)
		}
	}
	return ages
}

var zeroAge = []int{0}

// PhysChannel is a group of output ports sharing one flit per cycle of
// physical bandwidth (virtual channels over one wire).
type PhysChannel struct {
	members []*OutPort
	arb     int
	// granted is the member allowed to send, valid only when grantedCycle is
	// the current cycle (so idle channels need no per-cycle reset).
	granted      *OutPort
	grantedCycle int64
	// wantStamp/wants gather this cycle's requesting members without a
	// per-cycle map.
	wantStamp int64
	wants     []*OutPort
}

// Delivery reports one packet consumed at an endpoint. Header belongs to the
// engine and is valid only for the duration of the OnDeliver call: the
// engine reuses it once the call returns. Copy the fields you need.
type Delivery struct {
	At     *Node
	Header *flit.Header
	Cycle  int64
}

// Drop reports one packet discarded inside the network. As with Delivery,
// Header is the engine's and valid only for the duration of the OnDrop call.
type Drop struct {
	At     *Node
	Header *flit.Header
	Cycle  int64
	Reason string
}

// Engine owns the network and the clock.
type Engine struct {
	cfg   Config
	nodes []*Node
	// switchOrder/endpointOrder cache the per-kind iteration sequences.
	switches  []*Node
	endpoints []*Node
	links     []*Link
	phys      []*PhysChannel
	nSwitchIn int // total switch input ports, for the visit counters
	// fullIn lists every switch input port in full-scan order, for the
	// DisableActiveSet reference mode and snapshot/hash walks.
	fullIn []*InPort

	cycle    int64
	moves    int64 // cumulative flit movements (link entries + ejections)
	resident int64 // flits alive in queues, buffers and links

	dropped int64

	// arrivals[s] lists, one entry per flit, the ports a flit lands at in
	// the cycles ≡ s mod LinkDelay. slot is cycle % LinkDelay during a Step:
	// the list this cycle's landings empty and this cycle's sends fill.
	arrivals [][]*InPort
	slot     int
	// linksActive counts the links marked active. stale holds the ports
	// whose marked links a purge emptied: the next landing phase counts
	// those links once and unmarks them, as it would had their last flit
	// landed.
	linksActive int
	stale       []*InPort

	// Active sets (scheduler.go), indexed by position in fullIn and
	// endpoints respectively.
	activeAlloc  activeSet
	activeEject  activeSet
	activeInject activeSet

	// Scratch slices reused across cycles, and the route-state pool.
	reqScratch    []*InPort
	routedScratch []*InPort
	readyScratch  []*InPort
	outScratch    []*OutPort
	physScratch   []*PhysChannel
	rsFree        []*routeState
	// hFree is the header pool. The engine owns every packet header in the
	// network: Inject copies the caller's into one from here, and a header
	// comes back when its last holder is done with it (see releaseHeader).
	hFree []*flit.Header
	// sunkCredits defers the credits freed by draining dropped packets to
	// the end of the traversal phase, so their effect cannot depend on the
	// scan order of ports (DESIGN.md §10). Every pinned StateHash stream
	// depends on this visibility point.
	sunkCredits []*OutPort

	ctr Counters

	// OnDeliver, if non-nil, observes every packet consumption.
	OnDeliver func(Delivery)
	// OnDrop, if non-nil, observes every discarded packet.
	OnDrop func(Drop)
	// OnForward, if non-nil, observes every header flit leaving a node, for
	// route tracing. from is the node, out the output port index. h is the
	// engine's and valid only for the duration of the call.
	OnForward func(from *Node, out int, h *flit.Header, cycle int64)
	// PreCycle, if non-nil, runs at the top of every Step, before any phase
	// and before the cycle counter advances. Dynamic-fault schedules use it
	// to mutate the network at an exact cycle (KillSwitch, retransmissions);
	// the hook must be deterministic for the reproducibility guarantee to
	// hold.
	PreCycle func(cycle int64)
	// PostCycle, if non-nil, runs at the bottom of every Step, after every
	// phase and after the cycle counter has advanced. It is the only hook
	// from which whole-network surgery (KillSwitch, KillPacket) is safe
	// *after* observing the cycle's outcome — the recovery layer uses it to
	// detect a stalled network and purge a deadlock victim between cycles.
	// Like PreCycle, the hook must be deterministic.
	PostCycle func(cycle int64)
}

// New creates an empty network with the given configuration.
func New(cfg Config) *Engine {
	cfg.normalize()
	return &Engine{cfg: cfg, arrivals: make([][]*InPort, cfg.LinkDelay)}
}

// Config returns the engine's (normalized) configuration.
func (e *Engine) Config() Config { return e.cfg }

// AddSwitch creates a switch with the given number of bidirectional ports and
// routing function.
func (e *Engine) AddSwitch(name string, ports int, route RouteFunc, meta any) *Node {
	if ports < 1 {
		panic(fmt.Sprintf("engine: switch %q needs at least one port", name))
	}
	if route == nil {
		panic(fmt.Sprintf("engine: switch %q needs a routing function", name))
	}
	n := &Node{ID: len(e.nodes), Name: name, Kind: KindSwitch, Meta: meta, route: route, eng: e}
	e.addPorts(n, ports)
	for _, in := range n.In {
		in.pos = len(e.fullIn)
		e.fullIn = append(e.fullIn, in)
	}
	e.nodes = append(e.nodes, n)
	e.switches = append(e.switches, n)
	e.nSwitchIn += ports
	e.activeAlloc.resize(len(e.fullIn))
	return n
}

// addPorts gives a node its ports, carved from two allocations, which keeps
// set-up cheap and a switch's hot state contiguous.
func (e *Engine) addPorts(n *Node, ports int) {
	ins := make([]InPort, ports)
	outs := make([]OutPort, ports)
	n.In = make([]*InPort, ports)
	n.Out = make([]*OutPort, ports)
	for i := range ins {
		ins[i] = InPort{node: n, idx: i, cap: e.cfg.BufferDepth, ordKey: int64(n.ID)<<32 | int64(i)}
		outs[i] = OutPort{node: n, idx: i, lastReqCycle: -1, reservedCycle: -1, pendStamp: -1}
		n.In[i], n.Out[i] = &ins[i], &outs[i]
	}
}

// AddEndpoint creates a single-port traffic endpoint.
func (e *Engine) AddEndpoint(name string, meta any) *Node {
	n := &Node{ID: len(e.nodes), Name: name, Kind: KindEndpoint, Meta: meta, eng: e, epIdx: len(e.endpoints)}
	e.addPorts(n, 1)
	e.nodes = append(e.nodes, n)
	e.endpoints = append(e.endpoints, n)
	e.activeEject.resize(len(e.endpoints))
	e.activeInject.resize(len(e.endpoints))
	return n
}

// Nodes returns all nodes in creation order.
func (e *Engine) Nodes() []*Node { return e.nodes }

// Endpoints returns all endpoints in creation order.
func (e *Engine) Endpoints() []*Node { return e.endpoints }

// Switches returns all switches in creation order.
func (e *Engine) Switches() []*Node { return e.switches }

// ConnectDirected wires a's output port ap to b's input port bp.
func (e *Engine) ConnectDirected(a *Node, ap int, b *Node, bp int) *Link {
	out := a.Out[ap]
	in := b.In[bp]
	if out.down != nil {
		panic(fmt.Sprintf("engine: output %s.%d already connected", a.Name, ap))
	}
	if in.upstream != nil {
		panic(fmt.Sprintf("engine: input %s.%d already connected", b.Name, bp))
	}
	l := &Link{id: len(e.links), from: out, to: in, delay: e.cfg.LinkDelay}
	out.down = in
	out.credits = in.cap
	in.upstream = l
	e.links = append(e.links, l)
	return l
}

// Connect wires port ap of a to port bp of b in both directions.
func (e *Engine) Connect(a *Node, ap int, b *Node, bp int) {
	e.ConnectDirected(a, ap, b, bp)
	e.ConnectDirected(b, bp, a, ap)
}

// SharePhysical groups output ports onto one physical channel with a combined
// bandwidth of one flit per cycle.
func (e *Engine) SharePhysical(ports ...*OutPort) *PhysChannel {
	pc := &PhysChannel{members: ports, grantedCycle: -1, wantStamp: -1}
	for _, p := range ports {
		if p.phys != nil {
			panic(fmt.Sprintf("engine: output %s.%d already in a physical channel", p.node.Name, p.idx))
		}
		p.phys = pc
	}
	e.phys = append(e.phys, pc)
	return pc
}

// InjectPacket queues a size-flit packet headed by h at the endpoint. It is
// equivalent to Inject(ep, flit.NewPacket(&h, size)) but builds the flits in
// place in the endpoint's source queue. The header is copied into engine
// storage, stamped with the injection cycle and the packet size; in steady
// state nothing is allocated.
func (e *Engine) InjectPacket(ep *Node, h flit.Header, size int) {
	if ep.Kind != KindEndpoint {
		panic(fmt.Sprintf("engine: Inject on non-endpoint %q", ep.Name))
	}
	ep.injectQ = flit.AppendPacket(ep.injectQ, e.newHeader(h), size)
	ep.Injected++
	e.resident += int64(size)
	e.activateInject(ep)
}

// Inject queues a packet's flits at an endpoint for transmission. The flits
// are copied into the endpoint's queue and the header into engine storage,
// where the injection cycle is stamped: the caller's slice, Flit structs and
// Header are never retained or modified.
func (e *Engine) Inject(ep *Node, flits []*flit.Flit) {
	if ep.Kind != KindEndpoint {
		panic(fmt.Sprintf("engine: Inject on non-endpoint %q", ep.Name))
	}
	if len(flits) == 0 {
		return
	}
	if flits[0].Header == nil {
		panic("engine: first injected flit must be a header")
	}
	for _, f := range flits {
		c := *f
		if c.Header != nil {
			c.Header = e.newHeader(*c.Header)
		}
		ep.injectQ = append(ep.injectQ, c)
	}
	ep.Injected++
	e.resident += int64(len(flits))
	e.activateInject(ep)
}

// newHeader copies h into a header from the pool (or a fresh one), stamped
// with the current cycle as its injection time.
func (e *Engine) newHeader(h flit.Header) *flit.Header {
	p := e.copyHeader(&h)
	p.InjectedAt = e.cycle
	return p
}

// copyHeader returns a pooled copy of h, for a switch to forward.
func (e *Engine) copyHeader(h *flit.Header) *flit.Header {
	var p *flit.Header
	if n := len(e.hFree); n > 0 {
		p = e.hFree[n-1]
		e.hFree = e.hFree[:n-1]
	} else {
		p = new(flit.Header)
	}
	*p = *h
	return p
}

// releaseHeader returns a header to the pool. It is called at exactly three
// points, each the header's last holder: an endpoint consuming the tail
// (after OnDeliver returns), a switch that forwarded copies (a rewrite or
// a fan-out) when the tail of the original leaves it, and a sink consuming
// the tail. A header moves downstream, and a switch that forwards it
// unchanged passes the same pointer on, so every upstream holder has let go
// by then. Purges (KillSwitch, KillPacket) release nothing, which keeps
// KilledPacket.Header valid.
func (e *Engine) releaseHeader(h *flit.Header) {
	if h != nil {
		e.hFree = append(e.hFree, h)
	}
}

// Cycle reports the current simulation time.
func (e *Engine) Cycle() int64 { return e.cycle }

// Moves reports cumulative flit movements; the deadlock watchdog watches it.
func (e *Engine) Moves() int64 { return e.moves }

// Resident reports the number of flits alive anywhere in the network.
func (e *Engine) Resident() int64 { return e.resident }

// Dropped reports the number of packets discarded so far.
func (e *Engine) Dropped() int64 { return e.dropped }

// Quiescent reports whether the network holds no flits at all.
func (e *Engine) Quiescent() bool { return e.resident == 0 }

// Step advances the simulation by one cycle. Phase order (fixed): the
// PreCycle hook, then landing, ejection, allocation, traversal, injection.
func (e *Engine) Step() {
	if e.PreCycle != nil {
		e.PreCycle(e.cycle)
	}
	e.slot = int(e.cycle % int64(e.cfg.LinkDelay))
	e.land()
	e.eject()
	e.allocate()
	e.traverse()
	e.inject()
	e.cycle++
	e.ctr.Cycles++
	if e.PostCycle != nil {
		e.PostCycle(e.cycle)
	}
}

// RunUntilQuiescent steps until the network drains or maxCycles elapse.
// It returns true if the network drained.
func (e *Engine) RunUntilQuiescent(maxCycles int64) bool {
	for i := int64(0); i < maxCycles; i++ {
		if e.Quiescent() {
			return true
		}
		e.Step()
	}
	return e.Quiescent()
}

// land makes visible the flits whose delay elapsed. Each was written into
// its downstream ring when it was sent, so landing moves it from fly to n.
func (e *Engine) land() {
	active := !e.cfg.DisableActiveSet
	if active {
		e.ctr.LinkVisits += int64(e.linksActive)
		e.ctr.LinkVisitsSkipped += int64(len(e.links) - e.linksActive)
		for _, p := range e.stale {
			if p.linkActive && p.fly == 0 {
				p.linkActive = false
				e.linksActive--
			}
		}
		e.stale = e.stale[:0]
	} else {
		e.ctr.LinkVisits += int64(len(e.links))
	}
	list := e.arrivals[e.slot]
	for _, to := range list {
		to.fly--
		to.n++
		if to.fly == 0 && active {
			to.linkActive = false
			e.linksActive--
		}
		if to.node.Kind == KindSwitch {
			e.activateAlloc(to)
		} else {
			e.activateEject(to.node)
		}
	}
	e.arrivals[e.slot] = list[:0]
}

// eject consumes arrived flits at endpoints.
func (e *Engine) eject() {
	if e.cfg.DisableActiveSet {
		for _, ep := range e.endpoints {
			e.ejectAt(ep)
		}
		e.ctr.EjectVisits += int64(len(e.endpoints))
		return
	}
	s := &e.activeEject
	visited := 0
	for i := s.next(-1); i >= 0; i = s.next(i) {
		ep := e.endpoints[i]
		e.ejectAt(ep)
		if ep.In[0].n == 0 {
			ep.ejectActive = false
			s.remove(i)
		}
		visited++
	}
	e.ctr.EjectVisits += int64(visited)
	e.ctr.EjectVisitsSkipped += int64(len(e.endpoints) - visited)
}

func (e *Engine) ejectAt(ep *Node) {
	in := ep.In[0]
	budget := e.cfg.EjectRate
	for in.n > 0 {
		if budget == 0 && e.cfg.EjectRate != 0 {
			break
		}
		f := in.pop()
		e.moves++
		e.resident--
		if f.Header != nil {
			in.recvHeader = f.Header
		}
		if f.Last {
			ep.Received++
			if e.OnDeliver != nil {
				e.OnDeliver(Delivery{At: ep, Header: in.recvHeader, Cycle: e.cycle})
			}
			e.releaseHeader(in.recvHeader)
			in.recvHeader = nil
		}
		if e.cfg.EjectRate != 0 {
			budget--
		}
	}
}

// allocate routes fresh headers and arbitrates output ports.
func (e *Engine) allocate() {
	requests := e.gatherRequests()
	if len(requests) == 0 {
		return
	}
	switch e.cfg.Acquire {
	case AcquireAtomic:
		e.allocateAtomic(requests)
	default:
		e.allocateIncremental(requests)
	}
}

// gatherRequests preps every live switch input port and returns, in full-scan
// order (so grouped by switch), the ones competing for output ports this
// cycle: those whose front flit is an unserved header, or whose routeState
// still has ungranted outputs. It leaves every port that holds a route state
// in routedScratch, in the same order, for the traversal phase, and does the
// conflict accounting.
func (e *Engine) gatherRequests() []*InPort {
	requests := e.reqScratch[:0]
	routed := e.routedScratch[:0]
	if e.cfg.DisableActiveSet {
		for _, in := range e.fullIn {
			live, wants := e.allocPrep(in)
			if live {
				routed = append(routed, in)
			}
			if wants {
				requests = append(requests, in)
			}
		}
		e.ctr.SwitchPortVisits += int64(e.nSwitchIn)
	} else {
		s := &e.activeAlloc
		visited := 0
		for i := s.next(-1); i >= 0; i = s.next(i) {
			in := e.fullIn[i]
			live, wants := e.allocPrep(in)
			if live {
				routed = append(routed, in)
			} else {
				in.active = false
				s.remove(i)
			}
			if wants {
				requests = append(requests, in)
			}
			visited++
		}
		e.ctr.SwitchPortVisits += int64(visited)
		e.ctr.SwitchPortVisitsSkipped += int64(e.nSwitchIn - visited)
	}
	e.reqScratch, e.routedScratch = requests, routed

	// Count requesters per output port for conflict statistics.
	for _, in := range requests {
		rs := in.route
		for i, op := range rs.outs {
			if !rs.granted[i] && op.owner == nil {
				op.arbRequests(e.cycle)
			}
		}
	}
	return requests
}

// allocPrep routes the buffered header of an idle port, then reports whether
// the port remains live (holds route state or flits) and whether it competes
// for output ports this cycle.
func (e *Engine) allocPrep(in *InPort) (live, wants bool) {
	if in.route == nil {
		f := in.front()
		if f == nil {
			return false, false
		}
		if f.Header == nil {
			panic(fmt.Sprintf("engine: mid-packet flit %s at %s.%d with no route state", f, in.node.Name, in.idx))
		}
		in.route = e.routeHeader(in.node, in, f.Header)
		// Keep the active-set invariant (route state ⇒ listed) even when
		// this prep ran from a full scan, so the modes can be toggled
		// mid-run. A no-op when the port is already listed.
		e.activateAlloc(in)
	}
	rs := in.route
	if rs.provisional && rs.nGranted == 0 {
		// The provisional decision bound for one allocation round and lost.
		// Route the header again so an adaptive policy may pick a different
		// output, preserving the original arrival stamp: the oldest-first
		// arbiter keeps seeing the packet's true age, so re-routing can
		// never starve it. With no grants issued the header flit is still at
		// the front of the buffer.
		since := rs.since
		e.freeRouteState(rs)
		rs = e.routeHeader(in.node, in, in.front().Header)
		rs.since = since
		in.route = rs
	}
	return true, !rs.sink && !rs.allGranted()
}

// arbRequests bumps the conflict statistic bookkeeping; called once per
// requester per cycle. Two or more calls in one cycle mean a conflict.
func (o *OutPort) arbRequests(cycle int64) {
	if o.lastReqCycle == cycle {
		if !o.conflictCounted {
			o.ConflictCycles++
			o.conflictCounted = true
		}
		return
	}
	o.lastReqCycle = cycle
	o.conflictCounted = false
}

// allocateIncremental grants each free requested output to one requester
// (round-robin), letting fan-outs hold partial sets.
func (e *Engine) allocateIncremental(requests []*InPort) {
	// Build per-output requester lists in request order.
	order := e.outScratch[:0]
	for _, in := range requests {
		rs := in.route
		for i, op := range rs.outs {
			if rs.granted[i] || op.owner != nil {
				continue
			}
			if op.pendStamp != e.cycle {
				op.pendStamp = e.cycle
				op.pend = op.pend[:0]
				order = append(order, op)
			}
			op.pend = append(op.pend, in)
		}
	}
	for _, op := range order {
		winner := op.pend[op.arb%len(op.pend)]
		op.arb++
		op.owner = winner
		rs := winner.route
		for i, o := range rs.outs {
			if o == op {
				rs.granted[i] = true
				rs.nGranted++
			}
		}
	}
	e.outScratch = order[:0]
}

// allocateAtomic grants a request only when every output it needs is free,
// serving requests oldest-first ("in order of arrival"). The wanted ports of
// an unsatisfiable older request are reserved for the rest of the cycle so
// younger single-port traffic cannot starve a waiting fan-out.
//
// Same-cycle ties are broken by a per-switch priority rotation derived from
// the node ID: independent hardware arbiters do not share a global order, and
// a globally consistent tie-break would (unrealistically) hand one broadcast
// every crossbar at once, masking the cyclic-acquisition deadlock of paper
// Fig. 5.
//
// Only the order within one switch matters: a grant reads and writes nothing
// but that switch's output ports, and the requests arrive grouped by switch.
// So each switch's few requests are put in arrival order where they stand
// (the tie key is a bijection on a switch's ports, so the order is total).
func (e *Engine) allocateAtomic(requests []*InPort) {
	for lo := 0; lo < len(requests); {
		sw := requests[lo].node
		hi := lo + 1
		for hi < len(requests) && requests[hi].node == sw {
			hi++
		}
		group := requests[lo:hi]
		for i := 1; i < len(group); i++ {
			for j := i; j > 0 && arrivedBefore(group[j], group[j-1]); j-- {
				group[j], group[j-1] = group[j-1], group[j]
			}
		}
		for _, in := range group {
			e.grantAtomic(in)
		}
		lo = hi
	}
}

// arrivedBefore orders two requests at one switch: older header first, ties
// by the switch's priority rotation.
func arrivedBefore(a, b *InPort) bool {
	if a.route.since != b.route.since {
		return a.route.since < b.route.since
	}
	ports := len(a.node.In)
	return (a.idx+a.node.ID)%ports < (b.idx+b.node.ID)%ports
}

// grantAtomic gives the request all of its outputs if every one is free and
// unreserved, and otherwise reserves them against younger requests.
func (e *Engine) grantAtomic(in *InPort) {
	rs := in.route
	if rs.nGranted > 0 {
		// An atomic request never holds a partial set, so this cannot
		// happen unless the mode changed mid-run.
		return
	}
	for _, op := range rs.outs {
		if op.owner != nil || op.reservedCycle == e.cycle {
			for _, op := range rs.outs {
				op.reservedCycle = e.cycle
			}
			return
		}
	}
	for i, op := range rs.outs {
		op.owner = in
		rs.granted[i] = true
		rs.nGranted++
	}
}

// routeHeader runs the switch routing function and validates the decision,
// returning the port's new cut-through state (a sink state when the packet
// is dropped).
func (e *Engine) routeHeader(sw *Node, in *InPort, h *flit.Header) *routeState {
	if sw.Failed {
		return e.sinkPacket(sw, h, "arrived at failed switch")
	}
	dec, err := sw.route(sw, in.idx, h)
	if err != nil {
		return e.sinkPacket(sw, h, err.Error())
	}
	if len(dec.Outs) == 0 {
		return e.sinkPacket(sw, h, "routing function returned no outputs")
	}
	for i, o := range dec.Outs {
		if o < 0 || o >= len(sw.Out) {
			panic(fmt.Sprintf("engine: switch %q routed to invalid port %d", sw.Name, o))
		}
		if sw.Out[o].down == nil {
			panic(fmt.Sprintf("engine: switch %q routed to unconnected port %d", sw.Name, o))
		}
		for _, prev := range dec.Outs[:i] {
			if prev == o {
				panic(fmt.Sprintf("engine: switch %q routed to duplicate port %d", sw.Name, o))
			}
		}
	}
	if dec.Provisional && len(dec.Outs) != 1 {
		panic(fmt.Sprintf("engine: switch %q returned a provisional decision with %d outputs (provisional requires exactly 1)", sw.Name, len(dec.Outs)))
	}
	rs := e.newRouteState()
	rs.header = h
	k := len(dec.Outs)
	rs.outs = slices.Grow(rs.outs, k)[:k]
	rs.granted = slices.Grow(rs.granted, k)[:k]
	for i, o := range dec.Outs {
		rs.outs[i], rs.granted[i] = sw.Out[o], false
	}
	rs.rewrite = dec.Rewrite
	rs.since = e.cycle
	rs.provisional = dec.Provisional
	return rs
}

// sinkPacket puts the input port into drop mode for the current packet.
func (e *Engine) sinkPacket(sw *Node, h *flit.Header, reason string) *routeState {
	e.dropped++
	if e.OnDrop != nil {
		e.OnDrop(Drop{At: sw, Header: h, Cycle: e.cycle, Reason: reason})
	}
	rs := e.newRouteState()
	rs.header = h
	rs.sink = true
	return rs
}

// newRouteState takes a state from the pool (or allocates).
func (e *Engine) newRouteState() *routeState {
	if n := len(e.rsFree); n > 0 {
		rs := e.rsFree[n-1]
		e.rsFree = e.rsFree[:n-1]
		e.ctr.RouteStatesReused++
		return rs
	}
	e.ctr.RouteStatesAllocated++
	return &routeState{}
}

// freeRouteState clears a completed state and returns it to the pool.
func (e *Engine) freeRouteState(rs *routeState) {
	rs.header = nil
	rs.rewrite = 0
	rs.outs = rs.outs[:0]
	rs.granted = rs.granted[:0]
	rs.nGranted = 0
	rs.sink = false
	rs.since = 0
	rs.provisional = false
	e.rsFree = append(e.rsFree, rs)
}

// traverse moves one flit per fully-granted input across its switch.
func (e *Engine) traverse() {
	// Phase A: find ready inputs and stage physical-channel requests. Only
	// ports holding a route state act here, and allocate just listed them.
	readies := e.readyScratch[:0]
	physOrder := e.physScratch[:0]
	for _, in := range e.routedScratch {
		rs := in.route
		f := in.front()
		if rs.sink {
			// Drain dropped packets at one flit per cycle.
			if f != nil {
				e.consumeSunk(in)
			}
			continue
		}
		if !rs.allGranted() {
			if f != nil {
				in.BlockedCycles++
			}
			continue
		}
		if f == nil {
			continue // waiting for upstream flits; not "blocked" locally
		}
		ok := true
		for _, op := range rs.outs {
			if op.credits < 1 {
				ok = false
				break
			}
		}
		if !ok {
			in.BlockedCycles++
			continue
		}
		// Stage physical channel requests.
		for _, op := range rs.outs {
			if pc := op.phys; pc != nil {
				if pc.wantStamp != e.cycle {
					pc.wantStamp = e.cycle
					pc.wants = pc.wants[:0]
					physOrder = append(physOrder, pc)
				}
				pc.wants = append(pc.wants, op)
			}
		}
		readies = append(readies, in)
	}
	// Phase B: physical-channel arbitration, round-robin over member index.
	for _, pc := range physOrder {
		// Pick the requesting member closest after the arb pointer.
		best := -1
		bestRank := len(pc.members) + 1
		for _, op := range pc.wants {
			mi := pc.memberIndex(op)
			rank := (mi - pc.arb + len(pc.members)) % len(pc.members)
			if rank < bestRank {
				bestRank = rank
				best = mi
			}
		}
		if best >= 0 {
			pc.granted = pc.members[best]
			pc.grantedCycle = e.cycle
			pc.arb = (best + 1) % len(pc.members)
		}
	}
	// Phase C: move flits for inputs whose outputs all won their channels.
	for _, in := range readies {
		rs := in.route
		committed := true
		for _, op := range rs.outs {
			if op.phys != nil && !op.phys.grants(op, e.cycle) {
				committed = false
				break
			}
		}
		if !committed {
			in.BlockedCycles++
			continue
		}
		f := in.pop()
		e.moves++
		// Fan-out duplicates flits: resident grows by branches-1.
		e.resident += int64(len(rs.outs) - 1)
		// A switch that rewrites the header or replicates the packet forwards
		// copies and keeps the original until the tail leaves; otherwise the
		// header itself moves on.
		copies := rs.rewrite != 0 || len(rs.outs) > 1
		for _, op := range rs.outs {
			branch := f
			if f.Header != nil {
				if copies {
					branch.Header = e.copyHeader(f.Header)
					rs.rewrite.Apply(branch.Header)
				}
				if e.OnForward != nil {
					e.OnForward(in.node, op.idx, branch.Header, e.cycle)
				}
			}
			e.send(op, branch)
		}
		if f.Last {
			for _, op := range rs.outs {
				op.owner = nil
			}
			if copies {
				e.releaseHeader(rs.header)
			}
			e.freeRouteState(rs)
			in.route = nil
		}
	}
	// Credits freed by sunk drains become visible at the end of the
	// traversal phase (see the sunkCredits field).
	for _, op := range e.sunkCredits {
		op.creditReturn()
	}
	e.sunkCredits = e.sunkCredits[:0]
	e.readyScratch = readies[:0]
	e.physScratch = physOrder[:0]
}

// send puts a flit on op's link, taking one credit: the flit is written
// into the downstream ring now and lands LinkDelay cycles from now.
func (e *Engine) send(op *OutPort, f flit.Flit) {
	to := op.down
	lands := e.cycle + int64(e.cfg.LinkDelay)
	if to.landsAt == lands {
		panic(fmt.Sprintf("engine: two flits entered link %d in cycle %d", to.upstream.id, e.cycle))
	}
	if to.n+to.fly >= to.cap {
		panic(fmt.Sprintf("engine: buffer overflow at %s.%d (credit accounting bug)", to.node.Name, to.idx))
	}
	to.put(f)
	to.fly++
	to.landsAt = lands
	e.arrivals[e.slot] = append(e.arrivals[e.slot], to)
	if !to.linkActive {
		to.linkActive = true
		e.linksActive++
	}
	op.credits--
	op.BusyCycles++
}

// grants reports whether the channel granted this port in the given cycle.
func (pc *PhysChannel) grants(op *OutPort, cycle int64) bool {
	return pc.granted == op && pc.grantedCycle == cycle
}

// popSunk is pop for sunk-drain consumption: the credit is deferred to the
// end of the traversal phase (see sunkCredits).
func (e *Engine) popSunk(p *InPort) flit.Flit {
	if p.upstream != nil {
		e.sunkCredits = append(e.sunkCredits, p.upstream.from)
	}
	return p.shift()
}

// consumeSunk drains one flit of a dropped packet.
func (e *Engine) consumeSunk(in *InPort) {
	f := e.popSunk(in)
	e.moves++
	e.resident--
	if f.Last {
		e.releaseHeader(in.route.header)
		e.freeRouteState(in.route)
		in.route = nil
	}
}

// inject moves endpoint source-queue flits onto their links.
func (e *Engine) inject() {
	if e.cfg.DisableActiveSet {
		for _, ep := range e.endpoints {
			e.injectAt(ep)
		}
		e.ctr.InjectVisits += int64(len(e.endpoints))
		return
	}
	s := &e.activeInject
	visited := 0
	for i := s.next(-1); i >= 0; i = s.next(i) {
		ep := e.endpoints[i]
		e.injectAt(ep)
		if ep.InjectQueueLen() == 0 {
			ep.injectActive = false
			s.remove(i)
		}
		visited++
	}
	e.ctr.InjectVisits += int64(visited)
	e.ctr.InjectVisitsSkipped += int64(len(e.endpoints) - visited)
}

func (e *Engine) injectAt(ep *Node) {
	if ep.injectHead >= len(ep.injectQ) {
		return
	}
	out := ep.Out[0]
	if out.down == nil {
		panic(fmt.Sprintf("engine: endpoint %q has no outbound link", ep.Name))
	}
	if out.credits < 1 {
		return
	}
	if pc := out.phys; pc != nil && !pc.grants(out, e.cycle) {
		// Endpoints on shared channels arbitrate like switches; for
		// simplicity they send only on otherwise-idle cycles.
		if pc.grantedCycle == e.cycle && pc.granted != nil {
			return
		}
	}
	f := ep.injectQ[ep.injectHead]
	ep.injectHead++
	if ep.injectHead == len(ep.injectQ) {
		ep.injectQ = ep.injectQ[:0]
		ep.injectHead = 0
	}
	if f.Header != nil && e.OnForward != nil {
		e.OnForward(ep, 0, f.Header, e.cycle)
	}
	e.send(out, f)
	e.moves++
	if f.Last {
		ep.Sent++
	}
}

func (pc *PhysChannel) memberIndex(op *OutPort) int {
	for i, m := range pc.members {
		if m == op {
			return i
		}
	}
	panic("engine: output port not a member of its physical channel")
}
