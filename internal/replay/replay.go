// Package replay records a run's state-hash ladder and bisects the first
// cycle where two recorded runs diverge.
//
// A recording is a directory holding meta.json: the run's spec (the
// campaign.RunText JSON mdxfault's flags and a job spec also fill), the
// per-point engine StateHash ladder (one entry every Every cycles, cycle 0
// included), and the final verdict. The simulator is deterministic, so the
// spec and the ladder are the whole recording: any point is reached again by
// re-executing the spec, and its ladder hash checks that it was.
//
// Bisect compares two recordings of the same workload under different
// configurations (a shifted fault schedule, different retransmission tuning,
// a separate-D-XB machine variant, ...): it binary-searches the hash ladders
// for the first divergent point, re-executes both runs to the last common
// ladder cycle (checking both ladder hashes there), and locksteps them cycle
// by cycle to the exact first divergent cycle. The search assumes divergence
// is monotone (once the two state streams separate, they never re-coincide
// hash-for-hash), the usual bisection premise.
package replay

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"sr2201/internal/campaign"
)

// formatVersion is the recording layout Record writes and Load reads:
// version 3 is the spec and the hash ladder alone. Version 2 also listed a
// ring of snapshot files, and version 1 had a spec type of its own.
const formatVersion = 3

// Point is one hash-ladder entry: the engine's StateHash at Cycle, rendered
// in hex so the JSON round-trips exactly and diffs read well.
type Point struct {
	Cycle int64  `json:"cycle"`
	Hash  string `json:"hash"`
}

// Meta is a recording's index (meta.json).
type Meta struct {
	Version int              `json:"version"`
	Spec    campaign.RunText `json:"spec"`
	// Every is the point spacing in cycles.
	Every int64 `json:"every"`
	// Points is the full hash ladder, ascending by cycle, starting at 0.
	Points []Point `json:"points"`
	// Final is the run's last cycle and hash (not necessarily on the ladder).
	Final Point `json:"final"`
	// Verdict of the run.
	Drained    bool `json:"drained"`
	Stalled    bool `json:"stalled"`
	Deadlocked bool `json:"deadlocked"`
}

// Recording is a loaded (or just-written) recording directory.
type Recording struct {
	Dir  string
	Meta Meta
}

func hashAt(c *campaign.CellRun) string {
	return fmt.Sprintf("%016x", c.Machine().Engine().StateHash())
}

// Record runs the single run spec spells to completion, writing the
// recording into dir. every is the point spacing (>= 1). A rejected spec is
// the resolver's *campaign.FieldError.
func Record(spec campaign.RunText, every int64, dir string) (*Recording, error) {
	if every < 1 {
		return nil, fmt.Errorf("replay: point spacing %d < 1", every)
	}
	cs, err := spec.Spec()
	if err != nil {
		return nil, err
	}
	c, err := campaign.NewCellRun(cs)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	meta := Meta{Version: formatVersion, Spec: spec, Every: every}
	for {
		if c.Cycle()%every == 0 {
			meta.Points = append(meta.Points, Point{Cycle: c.Cycle(), Hash: hashAt(c)})
		}
		if c.Step() {
			break
		}
	}
	meta.Final = Point{Cycle: c.Cycle(), Hash: hashAt(c)}
	res, err := c.Result()
	if err != nil {
		return nil, err
	}
	meta.Drained, meta.Stalled, meta.Deadlocked = res.Drained, res.Stalled, res.Deadlocked
	data, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "meta.json"), append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	return &Recording{Dir: dir, Meta: meta}, nil
}

// Load opens a recording directory.
func Load(dir string) (*Recording, error) {
	data, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return nil, err
	}
	// The version is read first, so an older layout is refused by its
	// number rather than by the first field it spells differently.
	var head struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return nil, fmt.Errorf("replay: %s: %w", dir, err)
	}
	if head.Version != formatVersion {
		return nil, fmt.Errorf("replay: %s: recording format version %d, this build reads version %d; re-record the run",
			dir, head.Version, formatVersion)
	}
	// Unknown fields are rejected by name: a recording that carries a knob
	// this build does not have would otherwise replay as a silently
	// different run.
	var meta Meta
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&meta); err != nil {
		return nil, fmt.Errorf("replay: %s: %w", dir, err)
	}
	return &Recording{Dir: dir, Meta: meta}, nil
}

// seek builds the recording's cell run and re-executes it to the ladder
// point p, checking the recorded hash there.
func (r *Recording) seek(p Point) (*campaign.CellRun, error) {
	cs, err := r.Meta.Spec.Spec()
	if err != nil {
		return nil, fmt.Errorf("replay: %s: spec %w", r.Dir, err)
	}
	c, err := campaign.NewCellRun(cs)
	if err != nil {
		return nil, err
	}
	hash, err := strconv.ParseUint(p.Hash, 16, 64)
	if err != nil {
		return nil, fmt.Errorf("replay: %s: ladder hash at cycle %d: %w", r.Dir, p.Cycle, err)
	}
	if err := c.Seek(campaign.Mark{Cycle: p.Cycle, Hash: hash}); err != nil {
		return nil, fmt.Errorf("replay: %s: %w", r.Dir, err)
	}
	return c, nil
}

// Divergence is Bisect's verdict.
type Divergence struct {
	// Diverged is false when the two state streams match through both runs'
	// ends (at ladder granularity before the seek point, per cycle after).
	Diverged bool
	// Cycle is the first cycle whose engine StateHash differs (valid when
	// Diverged). HashA/HashB are the two hashes at that cycle.
	Cycle        int64
	HashA, HashB string
	// Terminated marks a termination divergence: the streams stayed
	// hash-equal but one run finished at Cycle while the other ran on.
	Terminated bool
	// SeekCycle is the last common ladder cycle, which both runs were
	// re-executed to; Stepped is how many cycles the lockstep took from
	// there.
	SeekCycle, Stepped int64
}

// Bisect finds the first divergent cycle between two recordings.
func Bisect(a, b *Recording) (Divergence, error) {
	pa, pb := a.Meta.Points, b.Meta.Points
	if len(pa) == 0 || len(pb) == 0 {
		return Divergence{}, fmt.Errorf("replay: recording has no points")
	}
	if pa[0].Cycle != 0 || pb[0].Cycle != 0 {
		return Divergence{}, fmt.Errorf("replay: recordings must start at cycle 0")
	}
	// The common ladder: both recordings' points at identical cycles. With
	// equal Every this is simply the shorter prefix; with different spacings
	// it is the points at common multiples.
	hb := make(map[int64]string, len(pb))
	for _, p := range pb {
		hb[p.Cycle] = p.Hash
	}
	var common []Point // a-side points that b also has
	for _, p := range pa {
		if _, ok := hb[p.Cycle]; ok {
			common = append(common, p)
		}
	}
	if len(common) == 0 {
		return Divergence{}, fmt.Errorf("replay: recordings share no point cycles (incompatible -every)")
	}
	// Binary-search the first divergent ladder point (monotone-divergence
	// premise: equal at i implies equal at every j < i).
	firstDiff := sort.Search(len(common), func(i int) bool {
		return common[i].Hash != hb[common[i].Cycle]
	})

	if firstDiff == 0 && common[0].Hash != hb[common[0].Cycle] {
		// Diverged at cycle 0: the initial states themselves differ.
		return Divergence{Diverged: true, Cycle: 0, HashA: common[0].Hash, HashB: hb[common[0].Cycle]}, nil
	}

	// Seek: re-execute both runs to the last known-equal ladder point.
	at := common[firstDiff-1]
	ca, err := a.seek(at)
	if err != nil {
		return Divergence{}, err
	}
	cb, err := b.seek(at)
	if err != nil {
		return Divergence{}, err
	}

	// Lockstep to the exact cycle. A run that finishes (drain, stall,
	// horizon) stops advancing, so termination mismatches are checked before
	// hashes — otherwise the cycle skew would masquerade as a state
	// divergence one report too late.
	d := Divergence{SeekCycle: at.Cycle}
	for {
		doneA, doneB := ca.Done(), cb.Done()
		switch {
		case doneA != doneB:
			d.Diverged, d.Terminated = true, true
			if doneA {
				d.Cycle = ca.Cycle()
			} else {
				d.Cycle = cb.Cycle()
			}
			d.HashA, d.HashB = hashAt(ca), hashAt(cb)
			return d, nil
		case doneA && doneB:
			if ha, hb := hashAt(ca), hashAt(cb); ha != hb {
				d.Diverged, d.Cycle, d.HashA, d.HashB = true, ca.Cycle(), ha, hb
			}
			return d, nil
		}
		ca.Step()
		cb.Step()
		d.Stepped++
		if ca.Done() || cb.Done() {
			continue // let the termination check above classify it
		}
		if ha, hb := hashAt(ca), hashAt(cb); ha != hb {
			d.Diverged, d.Cycle, d.HashA, d.HashB = true, ca.Cycle(), ha, hb
			return d, nil
		}
	}
}
