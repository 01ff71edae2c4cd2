// Package cliutil parses the small textual formats the command-line tools
// share: shapes ("8x8"), coordinates ("2,1"), fault specifications
// ("rtc:2,1", "xb:0:0,1" or "link:0,0-3,0"), fault schedules
// ("rtc:2,1@500"), broadcast schedules ("3,2@250"), topology names
// (the core.Topologies that model faults), the recovery-flag triple, the
// reconfiguration flag pair, fleet worker ids, and chaos failpoints
// ("<hash>@<cycle>").
package cliutil

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"sr2201/internal/core"
	"sr2201/internal/fault"
	"sr2201/internal/geom"
	"sr2201/internal/recovery"
)

// ParseTopology parses a -topo flag value into the canonical name of a
// topology the fault tools can run: one core.Config accepts and that models
// faults (the mesh and torus baselines do not). The empty string selects the
// default MD crossbar; case and surrounding whitespace are forgiven.
func ParseTopology(s string) (string, error) {
	name := strings.ToLower(strings.TrimSpace(s))
	if name == "" || name == core.TopologyMDX {
		return core.TopologyMDX, nil
	}
	known := slices.DeleteFunc(core.Topologies(), func(n string) bool { return !core.ModelsFaults(n) })
	if !slices.Contains(known, name) {
		return "", fmt.Errorf("cliutil: unknown topology %q (%s)", s, strings.Join(known, " | "))
	}
	return name, nil
}

// ParseShape parses "n1xn2x..." into a Shape, e.g. "8x8" or "4x4x4".
// Surrounding whitespace and an uppercase "X" separator are accepted, so
// shapes pasted from tables or env vars ("8X8", " 4x4x4 ") parse as typed.
func ParseShape(s string) (geom.Shape, error) {
	parts := strings.Split(strings.ReplaceAll(strings.TrimSpace(s), "X", "x"), "x")
	extents := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("cliutil: bad shape %q: %v", s, err)
		}
		extents = append(extents, v)
	}
	return geom.NewShape(extents...)
}

// ParseCoord parses "2,1" (dimensionality dims) into a Coord. Whitespace
// around the string or its components is accepted.
func ParseCoord(s string, dims int) (geom.Coord, error) {
	parts := strings.Split(strings.TrimSpace(s), ",")
	if len(parts) != dims {
		return geom.Coord{}, fmt.Errorf("cliutil: coordinate %q needs %d components", s, dims)
	}
	var c geom.Coord
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return geom.Coord{}, fmt.Errorf("cliutil: bad coordinate %q: %v", s, err)
		}
		c[i] = v
	}
	return c, nil
}

// ParseFault parses a fault specification:
//
//	rtc:X,Y       a faulty relay switch at the coordinate
//	xb:DIM:X,Y    a faulty crossbar — the dim-DIM line through the coordinate
//	link:A-B      a faulty direct link between the routers at coordinates A
//	              and B (direct-link topologies; endpoints must share a line)
func ParseFault(s string, dims int) (fault.Fault, error) {
	switch {
	case strings.HasPrefix(s, "link:"):
		rest := strings.TrimPrefix(s, "link:")
		dash := strings.IndexByte(rest, '-')
		if dash < 0 {
			return fault.Fault{}, fmt.Errorf("cliutil: link fault %q needs link:A-B (two coordinates)", s)
		}
		a, err := ParseCoord(rest[:dash], dims)
		if err != nil {
			return fault.Fault{}, err
		}
		b, err := ParseCoord(rest[dash+1:], dims)
		if err != nil {
			return fault.Fault{}, err
		}
		if a == b {
			return fault.Fault{}, fmt.Errorf("cliutil: link fault %q joins a router to itself", s)
		}
		return fault.LinkFault(a, b), nil
	case strings.HasPrefix(s, "rtc:"):
		c, err := ParseCoord(strings.TrimPrefix(s, "rtc:"), dims)
		if err != nil {
			return fault.Fault{}, err
		}
		return fault.RouterFault(c), nil
	case strings.HasPrefix(s, "xb:"):
		rest := strings.TrimPrefix(s, "xb:")
		colon := strings.IndexByte(rest, ':')
		if colon < 0 {
			return fault.Fault{}, fmt.Errorf("cliutil: crossbar fault %q needs xb:DIM:COORD", s)
		}
		dim, err := strconv.Atoi(rest[:colon])
		if err != nil || dim < 0 || dim >= dims {
			return fault.Fault{}, fmt.Errorf("cliutil: bad crossbar dimension in %q", s)
		}
		c, err := ParseCoord(rest[colon+1:], dims)
		if err != nil {
			return fault.Fault{}, err
		}
		return fault.XBFault(geom.LineOf(c, dim)), nil
	default:
		return fault.Fault{}, fmt.Errorf("cliutil: fault %q must start with rtc:, xb: or link:", s)
	}
}

// CheckFaultTopology validates a parsed fault against the hardware the
// named topology actually has: the MD crossbar has routers and shared
// crossbars (no direct links), the direct-link topologies have routers and
// links (no crossbars). topology must already be canonical (ParseTopology).
func CheckFaultTopology(f fault.Fault, topology string) error {
	if topology == "" || topology == core.TopologyMDX {
		if f.Kind == fault.KindLink {
			return fmt.Errorf("cliutil: fault %s: the mdx topology has no direct links (link faults need -topo hyperx or fullmesh)", f)
		}
		return nil
	}
	if f.Kind == fault.KindXB {
		return fmt.Errorf("cliutil: fault %s: topology %q has no crossbars (xb faults are mdx-only)", f, topology)
	}
	return nil
}

// ParseFaultIn parses a fault specification and additionally validates that
// it lies inside the given shape (ParseFault only checks dimensionality).
func ParseFaultIn(s string, shape geom.Shape) (fault.Fault, error) {
	f, err := ParseFault(s, shape.Dims())
	if err != nil {
		return fault.Fault{}, err
	}
	if err := fault.NewSet(shape).Add(f); err != nil {
		return fault.Fault{}, fmt.Errorf("cliutil: fault %q: %w", s, err)
	}
	return f, nil
}

// ParseScheduledFault parses a fault schedule specification — a fault spec
// with an activation cycle appended:
//
//	rtc:X,Y@CYCLE      the relay switch at the coordinate dies at CYCLE
//	xb:DIM:X,Y@CYCLE   the crossbar dies at CYCLE
//
// The fault is validated against the shape (containment, not just
// dimensionality). The cycle must be a non-negative integer.
func ParseScheduledFault(s string, shape geom.Shape) (fault.Fault, int64, error) {
	at := strings.LastIndexByte(s, '@')
	if at < 0 {
		return fault.Fault{}, 0, fmt.Errorf("cliutil: schedule %q needs FAULT@CYCLE", s)
	}
	cycle, err := strconv.ParseInt(strings.TrimSpace(s[at+1:]), 10, 64)
	if err != nil {
		return fault.Fault{}, 0, fmt.Errorf("cliutil: bad cycle in schedule %q: %v", s, err)
	}
	if cycle < 0 {
		return fault.Fault{}, 0, fmt.Errorf("cliutil: negative cycle in schedule %q", s)
	}
	f, err := ParseFaultIn(s[:at], shape)
	if err != nil {
		return fault.Fault{}, 0, err
	}
	return f, cycle, nil
}

// ParseBroadcast parses a broadcast schedule specification:
//
//	X,Y@CYCLE   the PE at the coordinate broadcasts at CYCLE
//
// The source is validated against the shape; the cycle must be a
// non-negative integer.
func ParseBroadcast(s string, shape geom.Shape) (geom.Coord, int64, error) {
	at := strings.LastIndexByte(s, '@')
	if at < 0 {
		return geom.Coord{}, 0, fmt.Errorf("cliutil: broadcast %q needs SRC@CYCLE", s)
	}
	cycle, err := strconv.ParseInt(strings.TrimSpace(s[at+1:]), 10, 64)
	if err != nil {
		return geom.Coord{}, 0, fmt.Errorf("cliutil: bad cycle in broadcast %q: %v", s, err)
	}
	if cycle < 0 {
		return geom.Coord{}, 0, fmt.Errorf("cliutil: negative cycle in broadcast %q", s)
	}
	src, err := ParseCoord(s[:at], shape.Dims())
	if err != nil {
		return geom.Coord{}, 0, err
	}
	if !shape.Contains(src) {
		return geom.Coord{}, 0, fmt.Errorf("cliutil: broadcast source %q outside shape", s[:at])
	}
	return src, cycle, nil
}

// RecoveryOptions assembles the recovery.Options a CLI's flag triple
// describes, rejecting the spellings that silently do nothing: negative
// knobs, and tuning knobs without the enable switch. stallThreshold and
// maxRecoveries of 0 select the package defaults.
func RecoveryOptions(enable bool, stallThreshold int64, maxRecoveries int) (recovery.Options, error) {
	if stallThreshold < 0 {
		return recovery.Options{}, fmt.Errorf("cliutil: negative recovery stall threshold %d", stallThreshold)
	}
	if maxRecoveries < 0 {
		return recovery.Options{}, fmt.Errorf("cliutil: negative recovery cap %d", maxRecoveries)
	}
	if !enable {
		if stallThreshold != 0 {
			return recovery.Options{}, fmt.Errorf("cliutil: recovery stall threshold %d needs -recover", stallThreshold)
		}
		if maxRecoveries != 0 {
			return recovery.Options{}, fmt.Errorf("cliutil: recovery cap %d needs -recover", maxRecoveries)
		}
		return recovery.Options{}, nil
	}
	return recovery.Options{
		Enabled:        true,
		StallThreshold: stallThreshold,
		MaxRecoveries:  maxRecoveries,
	}, nil
}

// ReconfigOptions canonicalizes the -reconfig / -reconfig-drain flag pair
// (case and surrounding whitespace of the mode are forgiven; the empty mode
// disables online reconfiguration, a budget of 0 selects
// reconfig.DefaultDrainBudget) and rejects the spellings that silently do
// nothing: a negative drain budget, and a budget without the enable flag.
// Which modes exist is the knob table's statement (core.Config.Validate).
func ReconfigOptions(mode string, drainBudget int) (string, int, error) {
	cfg := core.Config{Reconfig: strings.ToLower(strings.TrimSpace(mode))}
	if err := cfg.Validate(); err != nil {
		return "", 0, err
	}
	if drainBudget < 0 {
		return "", 0, fmt.Errorf("cliutil: negative reconfig drain budget %d", drainBudget)
	}
	if cfg.Reconfig == "" && drainBudget != 0 {
		return "", 0, fmt.Errorf("cliutil: reconfig drain budget %d needs the reconfig mode", drainBudget)
	}
	return cfg.Reconfig, drainBudget, nil
}

// ParseWorkerID validates a -worker fleet-member name. Worker ids name
// subdirectories of the shared state dir and appear in lease records, so
// they are restricted to [A-Za-z0-9._-] with no path separators; the
// empty string selects the default "w0". Surrounding whitespace is
// forgiven.
func ParseWorkerID(s string) (string, error) {
	id := strings.TrimSpace(s)
	if id == "" {
		return "w0", nil
	}
	if len(id) > 64 {
		return "", fmt.Errorf("cliutil: worker id %q longer than 64 bytes", id)
	}
	if id == "." || id == ".." {
		return "", fmt.Errorf("cliutil: worker id %q is a path component", id)
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return "", fmt.Errorf("cliutil: worker id %q: character %q outside [A-Za-z0-9._-]", id, r)
		}
	}
	return id, nil
}

// ParseFailpoint parses the MDXSERVE_FAILPOINT form "<hash>@<cycle>": kill
// the process the first time the execution whose canonical spec hash is
// <hash> (16 hex digits) reports progress at or past simulated cycle
// <cycle>. The empty string disables the failpoint. This is the chaos
// harness's deterministic owner-death hook.
func ParseFailpoint(s string) (hash string, cycle int64, err error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return "", 0, nil
	}
	at := strings.LastIndex(s, "@")
	if at < 0 {
		return "", 0, fmt.Errorf("cliutil: failpoint %q needs the form <hash>@<cycle>", s)
	}
	hash = s[:at]
	if len(hash) != 16 {
		return "", 0, fmt.Errorf("cliutil: failpoint hash %q is not 16 hex digits", hash)
	}
	for _, r := range hash {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return "", 0, fmt.Errorf("cliutil: failpoint hash %q is not lowercase hex", hash)
		}
	}
	cycle, err = strconv.ParseInt(s[at+1:], 10, 64)
	if err != nil || cycle < 0 {
		return "", 0, fmt.Errorf("cliutil: bad failpoint cycle in %q", s)
	}
	return hash, cycle, nil
}
