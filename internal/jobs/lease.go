package jobs

// The lease/heartbeat ownership layer for multi-worker fleets sharing one
// state directory. Every execution directory carries a lease subdirectory:
//
//	<dir>/execs/<h>/lease/claim-NNNNNN  epoch N's claim (O_EXCL: one winner)
//	<dir>/execs/<h>/lease/lease.json    the current owner's renewal heartbeat
//	<dir>/execs/<h>/poisoned.json       quarantine record (spec killed owners)
//
// Ownership protocol:
//
//   - The lease epoch is the highest claim-NNNNNN index present. Claim files
//     are created with O_CREATE|O_EXCL, so for any epoch exactly one process
//     in the fleet wins the claim — the steal decision needs no fencing
//     tokens beyond the filesystem's own exclusive-create.
//   - The owner renews by atomically rewriting lease.json (owner, epoch,
//     renewed timestamp). A lease is fresh while its last renewal — or,
//     for an owner that died before its first heartbeat, the claim file's
//     own mtime — is younger than the TTL.
//   - A peer may claim epoch N+1 only when epoch N is expired or released.
//     Claiming over an expired, unreleased lease is a steal: the previous
//     owner died (or wedged) mid-run, so the claim's death count increments.
//     Claiming over a released lease (a clean cancel that parked its run)
//     is a plain resume and does not count a death.
//   - A claim whose death count reaches the poison threshold quarantines
//     the execution instead of running it: poisoned.json is written (via
//     the same atomic-rename commit point as everything else), the last
//     park record is kept for forensics, and every manager serves the
//     spec as a classified failure instead of crash-looping the fleet.
//
// Corrupt-equals-absent applies throughout: a torn lease.json is ignored
// (freshness falls back to the claim mtime), a torn claim is read back with
// the conservative maximum death count for its epoch, and a torn
// poisoned.json reads as not poisoned (the next claim will re-quarantine).

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"sr2201/internal/campaign"
)

// leaseRecord is lease.json: the current owner's renewal heartbeat.
type leaseRecord struct {
	Owner    string `json:"owner"`
	Epoch    int64  `json:"epoch"`
	Renewed  int64  `json:"renewed_unix_ns"`
	Released bool   `json:"released,omitempty"`
}

// claimRecord is the content of one claim-NNNNNN file, written by the
// process that won the epoch.
type claimRecord struct {
	Owner string `json:"owner"`
	// Deaths is the number of owners that had died mid-run when this epoch
	// was claimed (the poison-quarantine counter).
	Deaths int `json:"deaths"`
}

// poisonRecord is poisoned.json: the classified quarantine verdict.
type poisonRecord struct {
	Deaths int    `json:"deaths"`
	Error  string `json:"error"`
}

// errLeaseLost reports that a renewal found a higher epoch: a peer stole
// the lease (it judged this owner dead) and owns the execution now.
var errLeaseLost = errors.New("jobs: lease lost to a peer")

func (s *stateStore) leaseDir(h string) string {
	return filepath.Join(s.execDir(h), "lease")
}

func (s *stateStore) poisonPath(h string) string {
	return filepath.Join(s.execDir(h), "poisoned.json")
}

// leaseInfo is the read-side summary of an execution's lease state.
type leaseInfo struct {
	epoch    int64 // highest claim index; 0 = never claimed
	deaths   int
	owner    string
	released bool
	renewed  time.Time
}

// leaseInfo reads the lease state for one execution. Corrupt files never
// fail the read — they degrade to the conservative interpretation.
func (s *stateStore) leaseInfo(h string) (leaseInfo, error) {
	var info leaseInfo
	ents, err := os.ReadDir(s.leaseDir(h))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return info, nil
		}
		return info, err
	}
	var topClaim string
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasPrefix(name, "claim-") {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimPrefix(name, "claim-"), 10, 64)
		if err != nil || n <= 0 {
			continue
		}
		if n > info.epoch {
			info.epoch = n
			topClaim = name
		}
	}
	if info.epoch == 0 {
		return info, nil
	}
	// Deaths come from the winning claim's content; a torn claim reads back
	// as the conservative maximum for its epoch (every predecessor died).
	info.deaths = int(info.epoch - 1)
	var cr claimRecord
	if data, err := os.ReadFile(filepath.Join(s.leaseDir(h), topClaim)); err == nil {
		if json.Unmarshal(data, &cr) == nil && cr.Deaths >= 0 && cr.Deaths <= int(info.epoch-1) {
			info.deaths = cr.Deaths
			info.owner = cr.Owner
		}
	}
	// Renewal freshness: lease.json when it matches the top epoch, else the
	// claim file's own mtime (the owner died before its first heartbeat, or
	// lease.json is torn — corrupt-equals-absent).
	if fi, err := os.Stat(filepath.Join(s.leaseDir(h), topClaim)); err == nil {
		info.renewed = fi.ModTime()
	}
	var lr leaseRecord
	if data, err := os.ReadFile(filepath.Join(s.leaseDir(h), "lease.json")); err == nil {
		if json.Unmarshal(data, &lr) == nil && lr.Epoch == info.epoch {
			info.owner = lr.Owner
			info.released = lr.Released
			if t := time.Unix(0, lr.Renewed); t.After(info.renewed) {
				info.renewed = t
			}
		}
	}
	return info, nil
}

// topEpoch returns the highest claim index for the execution.
func (s *stateStore) topEpoch(h string) (int64, error) {
	info, err := s.leaseInfo(h)
	if err != nil {
		return 0, err
	}
	return info.epoch, nil
}

// acquireKind is the outcome of one lease-acquisition attempt.
type acquireKind int

const (
	// acqOwned: this process holds the lease and must run the execution.
	acqOwned acquireKind = iota
	// acqAdopt: a peer already finished; the artifact bytes are the result.
	acqAdopt
	// acqHeld: a live peer owns the lease; defer and recheck later.
	acqHeld
	// acqPoisoned: the spec is quarantined (it killed too many owners).
	acqPoisoned
)

type acquireResult struct {
	kind     acquireKind
	artifact []byte // acqAdopt
	epoch    int64  // acqOwned
	stolen   bool   // acqOwned: taken over from a dead owner
	deaths   int
	poison   string // acqPoisoned: the classified error text
}

// acquire attempts to take ownership of one execution on behalf of owner.
// It is the single entry point a worker calls before running anything
// stateful; every fleet-coordination decision (dedupe to a finished peer,
// defer to a live one, steal from a dead one, quarantine a poison spec)
// is made here. Only I/O failures return an error — contention outcomes
// are values.
func (s *stateStore) acquire(h, owner string, ttl time.Duration, poisonAfter int) (acquireResult, error) {
	if pr, ok := s.poisonInfo(h); ok {
		return acquireResult{kind: acqPoisoned, deaths: pr.Deaths, poison: pr.Error}, nil
	}
	if art, ok := s.loadArtifact(h); ok {
		return acquireResult{kind: acqAdopt, artifact: art}, nil
	}
	info, err := s.leaseInfo(h)
	if err != nil {
		return acquireResult{}, err
	}
	if info.epoch > 0 && !info.released && time.Since(info.renewed) < ttl {
		return acquireResult{kind: acqHeld}, nil
	}
	stolen := info.epoch > 0 && !info.released
	deaths := info.deaths
	if stolen {
		deaths++
	}
	next := info.epoch + 1
	if err := os.MkdirAll(s.leaseDir(h), 0o755); err != nil {
		return acquireResult{}, err
	}
	claim := filepath.Join(s.leaseDir(h), fmt.Sprintf("claim-%06d", next))
	f, err := os.OpenFile(claim, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		if errors.Is(err, os.ErrExist) {
			// Lost the race for this epoch; the winner's lease is fresh now.
			return acquireResult{kind: acqHeld}, nil
		}
		return acquireResult{}, err
	}
	data, _ := json.Marshal(claimRecord{Owner: owner, Deaths: deaths})
	_, werr := f.Write(data)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		// The epoch is consumed either way; a torn claim reads back as the
		// conservative death count. Surface the I/O failure to the caller.
		return acquireResult{}, werr
	}
	if poisonAfter > 0 && deaths >= poisonAfter {
		pr, err := s.quarantine(h, deaths)
		if err != nil {
			return acquireResult{}, err
		}
		return acquireResult{kind: acqPoisoned, deaths: pr.Deaths, poison: pr.Error}, nil
	}
	if err := s.renewLease(h, owner, next); err != nil && !errors.Is(err, errLeaseLost) {
		return acquireResult{}, err
	}
	return acquireResult{kind: acqOwned, epoch: next, stolen: stolen, deaths: deaths}, nil
}

// renewLease refreshes the heartbeat for epoch. errLeaseLost means a peer
// has claimed a higher epoch: the caller no longer owns the execution and
// must stand down.
func (s *stateStore) renewLease(h, owner string, epoch int64) error {
	top, err := s.topEpoch(h)
	if err != nil {
		return err
	}
	if top != epoch {
		return errLeaseLost
	}
	lr := leaseRecord{Owner: owner, Epoch: epoch, Renewed: time.Now().UnixNano()}
	data, err := json.Marshal(lr)
	if err != nil {
		return err
	}
	return campaign.WriteAtomic(filepath.Join(s.leaseDir(h), "lease.json"), data)
}

// releaseLease marks the epoch cleanly released: the next claim is a plain
// resume, not a steal, and counts no death. A release attempt after the
// lease was already stolen is a no-op.
func (s *stateStore) releaseLease(h, owner string, epoch int64) error {
	top, err := s.topEpoch(h)
	if err != nil || top != epoch {
		return err
	}
	lr := leaseRecord{Owner: owner, Epoch: epoch, Renewed: time.Now().UnixNano(), Released: true}
	data, err := json.Marshal(lr)
	if err != nil {
		return err
	}
	return campaign.WriteAtomic(filepath.Join(s.leaseDir(h), "lease.json"), data)
}

// quarantine parks the execution as poisoned with a classified error.
func (s *stateStore) quarantine(h string, deaths int) (poisonRecord, error) {
	// The text is the classification only; callers wrap it with ErrPoisoned.
	pr := poisonRecord{
		Deaths: deaths,
		Error:  fmt.Sprintf("%d owner(s) died mid-run; parked with its last park record", deaths),
	}
	data, err := json.Marshal(pr)
	if err != nil {
		return poisonRecord{}, err
	}
	if err := campaign.WriteAtomic(s.poisonPath(h), data); err != nil {
		return poisonRecord{}, err
	}
	return pr, nil
}

// poisonInfo reads the quarantine verdict; ok is false when the execution
// is not poisoned (a torn record reads as not poisoned — the next claim
// over the threshold re-quarantines it).
func (s *stateStore) poisonInfo(h string) (poisonRecord, bool) {
	data, err := os.ReadFile(s.poisonPath(h))
	if err != nil {
		return poisonRecord{}, false
	}
	var pr poisonRecord
	if json.Unmarshal(data, &pr) != nil || pr.Deaths < 0 || pr.Error == "" {
		return poisonRecord{}, false
	}
	return pr, true
}
