// Package membership implements the group-membership protocol the
// paper's §5 names as the authors' follow-on direction: "adapting group
// membership management techniques to the applications in the
// environments of distributed autonomous mobile computing" — i.e.
// letting the satellites of an orbital plane maintain an agreed view of
// which peers are alive, over the same crosslinks the OAQ protocol
// coordinates on, with no ground intervention and no leader.
//
// The protocol is round-based, exploiting the property that satellites
// share a synchronized clock (GPS time) and that crosslink delay is
// bounded by δ well below the round length:
//
//   - every live member broadcasts a heartbeat each round, carrying its
//     current suspect set and view number;
//   - a member suspects a peer it has not heard from within the suspect
//     timeout, and adopts the suspicions carried by heartbeats (with
//     fail-silent faults, suspicion is accurate once timeouts exceed
//     the heartbeat period plus δ, so the union is safe);
//   - when a member's suspect set has been stable for a full round and
//     disagrees with its installed view, it installs the next view
//     (candidates minus suspects) — all live members converge on the
//     same view content within one round of each other; and
//   - a recovering satellite broadcasts a join announcement; receivers
//     clear its suspicion and the next view re-admits it.
//
// The properties a membership service owes its clients — agreement on
// view contents, completeness (a fail-silent member is eventually
// excluded), accuracy (no live member is excluded when timing bounds
// hold), and monotone view numbers — are asserted in the package tests.
package membership

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"satqos/internal/crosslink"
	"satqos/internal/des"
)

// Config parameterizes the protocol. Times are in minutes, matching the
// rest of the repository.
type Config struct {
	// RoundEvery is the heartbeat period.
	RoundEvery float64
	// SuspectAfter is the silence threshold beyond which a peer is
	// suspected. It must exceed RoundEvery plus the crosslink delay
	// bound for the accuracy property to hold.
	SuspectAfter float64
}

// DefaultConfig returns a configuration suited to the reference
// crosslink delay bound δ = 0.01 min.
func DefaultConfig() Config {
	return Config{RoundEvery: 0.1, SuspectAfter: 0.35}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.RoundEvery <= 0 || math.IsNaN(c.RoundEvery) {
		return fmt.Errorf("membership: round period %g must be positive", c.RoundEvery)
	}
	if math.IsNaN(c.SuspectAfter) || c.SuspectAfter <= c.RoundEvery {
		return fmt.Errorf("membership: suspect timeout %g must exceed the round period %g",
			c.SuspectAfter, c.RoundEvery)
	}
	return nil
}

// View is one installed membership view.
type View struct {
	// Number increases by one per installation at each member.
	Number int
	// Members is the sorted live set.
	Members []crosslink.NodeID
	// InstalledAt is the simulation time of installation.
	InstalledAt float64
}

// Includes reports whether the view contains the node.
func (v View) Includes(id crosslink.NodeID) bool {
	for _, m := range v.Members {
		if m == id {
			return true
		}
	}
	return false
}

// String renders the view compactly.
func (v View) String() string {
	parts := make([]string, len(v.Members))
	for i, m := range v.Members {
		parts[i] = fmt.Sprintf("%d", m)
	}
	return fmt.Sprintf("view#%d{%s}", v.Number, strings.Join(parts, ","))
}

// Equal reports whether two views have identical membership content
// (numbers may differ across members that skipped intermediate views).
func (v View) Equal(o View) bool {
	if len(v.Members) != len(o.Members) {
		return false
	}
	for i := range v.Members {
		if v.Members[i] != o.Members[i] {
			return false
		}
	}
	return true
}

// heartbeat is the per-round broadcast payload.
type heartbeat struct {
	round    int
	suspects []crosslink.NodeID
	view     int
}

type joinAnnouncement struct{}

// Message kinds.
const (
	kindHeartbeat = "membership-heartbeat"
	kindJoin      = "membership-join"
)

// member is one protocol participant.
type member struct {
	g         *Group
	id        crosslink.NodeID
	lastHeard map[crosslink.NodeID]float64
	suspects  map[crosslink.NodeID]bool
	// pendingSince is the time the current suspect set last changed;
	// views install after it has been stable for a full round.
	pendingSince float64
	view         View
	history      []View
	alive        bool
	round        int
}

// Group runs the membership protocol for a fixed candidate set over a
// crosslink network bound to a discrete-event simulation.
type Group struct {
	sim        *des.Simulation
	net        *crosslink.Network
	cfg        Config
	candidates []crosslink.NodeID
	members    map[crosslink.NodeID]*member
}

// NewGroup wires the protocol for the candidate set. Start must be
// called to begin heartbeating.
func NewGroup(sim *des.Simulation, net *crosslink.Network, candidates []crosslink.NodeID, cfg Config) (*Group, error) {
	if sim == nil || net == nil {
		return nil, fmt.Errorf("membership: simulation and network are required")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(candidates) < 2 {
		return nil, fmt.Errorf("membership: need at least 2 candidates, got %d", len(candidates))
	}
	seen := make(map[crosslink.NodeID]bool, len(candidates))
	for _, id := range candidates {
		if seen[id] {
			return nil, fmt.Errorf("membership: duplicate candidate %d", id)
		}
		seen[id] = true
	}
	sorted := append([]crosslink.NodeID(nil), candidates...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	g := &Group{
		sim:        sim,
		net:        net,
		cfg:        cfg,
		candidates: sorted,
		members:    make(map[crosslink.NodeID]*member, len(sorted)),
	}
	for _, id := range sorted {
		m := &member{
			g:         g,
			id:        id,
			lastHeard: make(map[crosslink.NodeID]float64),
			suspects:  make(map[crosslink.NodeID]bool),
			alive:     true,
			view: View{
				Number:  1,
				Members: append([]crosslink.NodeID(nil), sorted...),
			},
		}
		m.history = []View{m.view}
		g.members[id] = m
		if err := net.Register(id, m.onMessage); err != nil {
			return nil, fmt.Errorf("membership: register %d: %w", id, err)
		}
	}
	return g, nil
}

// Start begins the heartbeat rounds.
func (g *Group) Start() {
	now := g.sim.Now()
	for _, m := range g.members {
		m.pendingSince = now
		for _, peer := range g.candidates {
			m.lastHeard[peer] = now
		}
	}
	for _, id := range g.candidates {
		g.sim.Ticker(g.cfg.RoundEvery, "membership-round", roundEvent, g.members[id])
	}
}

// roundEvent is the heartbeat Ticker's handler; arg is the *member.
func roundEvent(now float64, arg any) { arg.(*member).tick(now) }

// Fail makes the node fail-silent: it stops heartbeating and processing
// (driven through the crosslink fail-silent mechanism).
func (g *Group) Fail(id crosslink.NodeID) error {
	m, ok := g.members[id]
	if !ok {
		return fmt.Errorf("membership: unknown node %d", id)
	}
	m.alive = false
	g.net.SetFailSilent(id, true)
	return nil
}

// Recover revives a failed node: it resumes processing, clears its own
// stale state, and announces itself to the group.
func (g *Group) Recover(id crosslink.NodeID) error {
	m, ok := g.members[id]
	if !ok {
		return fmt.Errorf("membership: unknown node %d", id)
	}
	g.net.SetFailSilent(id, false)
	m.alive = true
	now := g.sim.Now()
	// Fresh local state: it trusts nobody's staleness against itself.
	for _, peer := range g.candidates {
		m.lastHeard[peer] = now
	}
	m.suspects = make(map[crosslink.NodeID]bool)
	m.pendingSince = now
	for _, peer := range g.candidates {
		if peer == id {
			continue
		}
		if err := g.net.Send(id, peer, kindJoin, joinAnnouncement{}); err != nil {
			return fmt.Errorf("membership: join announcement to %d: %w", peer, err)
		}
	}
	return nil
}

// ViewOf returns the node's current view.
func (g *Group) ViewOf(id crosslink.NodeID) (View, error) {
	m, ok := g.members[id]
	if !ok {
		return View{}, fmt.Errorf("membership: unknown node %d", id)
	}
	return m.view, nil
}

// tick runs one heartbeat round at a member.
func (m *member) tick(now float64) {
	if !m.alive {
		return
	}
	m.round++
	m.refreshSuspicions(now)
	hb := heartbeat{
		round:    m.round,
		suspects: m.suspectList(),
		view:     m.view.Number,
	}
	for _, peer := range m.g.candidates {
		if peer == m.id {
			continue
		}
		// Send errors cannot occur for registered candidates; the
		// network swallows fail-silent destinations by design.
		_ = m.g.net.Send(m.id, peer, kindHeartbeat, hb)
	}
	m.maybeInstall(now)
}

// refreshSuspicions applies the silence timeout.
func (m *member) refreshSuspicions(now float64) {
	for _, peer := range m.g.candidates {
		if peer == m.id || m.suspects[peer] {
			continue
		}
		if now-m.lastHeard[peer] > m.g.cfg.SuspectAfter {
			m.suspects[peer] = true
			m.pendingSince = now
		}
	}
}

func (m *member) suspectList() []crosslink.NodeID {
	out := make([]crosslink.NodeID, 0, len(m.suspects))
	for id := range m.suspects {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// maybeInstall installs a new view once the suspect set has been stable
// for a full round and differs from the installed view.
func (m *member) maybeInstall(now float64) {
	if now-m.pendingSince < m.g.cfg.RoundEvery {
		return
	}
	proposed := make([]crosslink.NodeID, 0, len(m.g.candidates))
	for _, id := range m.g.candidates {
		if !m.suspects[id] {
			proposed = append(proposed, id)
		}
	}
	next := View{Number: m.view.Number + 1, Members: proposed, InstalledAt: now}
	if next.Equal(m.view) {
		return
	}
	m.view = next
	m.history = append(m.history, next)
}

// onMessage handles protocol traffic at a member.
func (m *member) onMessage(now float64, msg crosslink.Message) {
	if !m.alive {
		return
	}
	switch msg.Kind {
	case kindHeartbeat:
		hb, ok := msg.Payload.(heartbeat)
		if !ok {
			return
		}
		m.lastHeard[msg.From] = now
		if m.suspects[msg.From] {
			// A suspected peer speaking again is alive (it may have
			// recovered without the join reaching us first).
			delete(m.suspects, msg.From)
			m.pendingSince = now
		}
		// Adopt carried suspicions (accurate under fail-silent faults),
		// except about ourselves, the (evidently live) sender, or a peer
		// we have heard from within the last round — fresh first-hand
		// evidence beats gossip, which would otherwise livelock rejoin
		// (a stale suspicion bouncing between members each round).
		for _, s := range hb.suspects {
			if s == m.id || s == msg.From || m.suspects[s] {
				continue
			}
			if now-m.lastHeard[s] <= m.g.cfg.RoundEvery {
				continue
			}
			m.suspects[s] = true
			m.pendingSince = now
		}
	case kindJoin:
		m.lastHeard[msg.From] = now
		if m.suspects[msg.From] {
			delete(m.suspects, msg.From)
			m.pendingSince = now
		}
	}
}
