package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"
)

// The fleet status plane: GET /v1/status is one node's self-contained
// status document, and GET /v1/fleet/status fans out over the fabric's
// peer list, fetches every peer's /v1/status, and merges them into one
// fleet-wide document. Aggregation follows the fabric's
// degrade-to-local philosophy: an unreachable peer shrinks the
// response (it moves to the `unreachable` list), it never fails it.

// statusProbeTimeout bounds each peer probe in the fleet fan-out, so
// one hung node delays the merged document, it does not wedge it.
const statusProbeTimeout = 2 * time.Second

// NodeStatus is one node's status document, served by GET /v1/status:
// identity and health, admission load, the routing counters, cache and
// store sizes, and the flight recorder's summary.
type NodeStatus struct {
	Status string `json:"status"`
	Node   string `json:"node"`

	// Admission-controller load.
	Inflight    int `json:"inflight"`
	Queued      int `json:"queued"`
	MaxInflight int `json:"maxInflight"`
	MaxQueued   int `json:"maxQueued"`

	// Lifetime request/routing counters (the /metrics counters an
	// operator reads first, snapshotted as plain numbers).
	Requests  uint64 `json:"requests"`
	Forwarded uint64 `json:"forwarded"`
	Coalesced uint64 `json:"coalesced"`
	Degraded  uint64 `json:"degraded"`
	Rejected  uint64 `json:"rejected"`

	// Estimate-tier counters (all zero without a trace library):
	// answers served at replay speed, estimate attempts that fell
	// through to a compute, and the drift validator's work.
	Estimated           uint64 `json:"estimated,omitempty"`
	EstimateMisses      uint64 `json:"estimateMisses,omitempty"`
	EstimateValidations uint64 `json:"estimateValidations,omitempty"`
	EstimateRefreshes   uint64 `json:"estimateRefreshes,omitempty"`

	// Result-cache and durable-store sizes.
	CacheEntries int   `json:"cacheEntries"`
	StoreRecords int   `json:"storeRecords,omitempty"`
	StoreBytes   int64 `json:"storeBytes,omitempty"`

	// Ring is this node's view of the fabric membership (empty without
	// a fabric).
	Ring []string `json:"ring"`

	// Runs is the flight recorder's aggregate view, including the
	// node's active runs.
	Runs RunSummary `json:"runs"`
}

// nodeStatus snapshots this node's status document.
func (s *Server) nodeStatus() NodeStatus {
	inflight, queued := s.adm.Depth()
	maxInflight, maxQueued := s.adm.Capacity()
	st := NodeStatus{
		Status:      "ok",
		Node:        s.node,
		Inflight:    inflight,
		Queued:      queued,
		MaxInflight: maxInflight,
		MaxQueued:   maxQueued,
		Requests:    s.requests.Load(),
		Forwarded:   s.forwarded.Load(),
		Coalesced:   s.coalesced.Load(),
		Degraded:    s.degraded.Load(),
		Rejected:    uint64(s.adm.Rejected()),
		Estimated:   s.estimated.Load(),
		Ring:        []string{},
		Runs:        s.runs.Summary(),
	}
	st.EstimateMisses = s.estMisses.Load()
	st.EstimateValidations, st.EstimateRefreshes = s.EstimateValidations()
	st.CacheEntries = s.p.CacheStats().Entries
	if store, err := s.p.Store(); err == nil && store != nil {
		stats := store.Stats()
		st.StoreRecords = stats.Records
		st.StoreBytes = stats.Bytes
	}
	if s.fab != nil {
		st.Ring = s.fab.Members()
	}
	return st
}

// handleStatus serves GET /v1/status.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.nodeStatus())
}

// FleetSummary is the merged headline of a fleet status document: sums
// over every reachable node.
type FleetSummary struct {
	// Nodes counts the fleet membership; Healthy the nodes that
	// answered the probe; Unreachable the nodes that did not.
	Nodes       int `json:"nodes"`
	Healthy     int `json:"healthy"`
	Unreachable int `json:"unreachable"`

	// ActiveRuns counts runs executing fleet-wide right now. Each run
	// is counted exactly once: a node's forwarded shadow records are
	// excluded, only the executing node reports it.
	ActiveRuns int `json:"activeRuns"`

	Inflight int `json:"inflight"`
	Queued   int `json:"queued"`

	Started uint64 `json:"started"`
	Done    uint64 `json:"done"`
	Failed  uint64 `json:"failed"`

	Forwarded uint64 `json:"forwarded"`
	Coalesced uint64 `json:"coalesced"`
	Degraded  uint64 `json:"degraded"`
	Rejected  uint64 `json:"rejected"`

	// Estimate-tier totals across the fleet.
	Estimated         uint64 `json:"estimated"`
	EstimateRefreshes uint64 `json:"estimateRefreshes"`

	StoreRecords int   `json:"storeRecords"`
	StoreBytes   int64 `json:"storeBytes"`
}

// FleetStatus is the GET /v1/fleet/status response: the merged
// summary, every reachable node's full status document (sorted by node
// name), and the peers that could not be probed. Unreachable is always
// present — an empty list is the all-healthy signal.
type FleetStatus struct {
	Fleet       FleetSummary `json:"fleet"`
	Nodes       []NodeStatus `json:"nodes"`
	Unreachable []string     `json:"unreachable"`
}

// handleFleetStatus serves GET /v1/fleet/status: it fans out over the
// fabric's member list (peer names are base URLs), fetches each peer's
// /v1/status concurrently under statusProbeTimeout, answers for itself
// locally, and merges the results. A peer that cannot be reached — or
// answers garbage — lands in `unreachable`; the response itself is
// always 200 with whatever subset of the fleet answered, matching the
// fabric's degrade-to-local philosophy. Without a fabric the fleet is
// this one node.
func (s *Server) handleFleetStatus(w http.ResponseWriter, r *http.Request) {
	members := []string{}
	self := ""
	if s.fab != nil {
		members = s.fab.Members()
		self = s.fab.Self()
	}
	var (
		mu          sync.Mutex
		nodes       []NodeStatus
		unreachable []string
		wg          sync.WaitGroup
	)
	// Self answers locally — its status never depends on its own
	// listener being reachable from itself.
	nodes = append(nodes, s.nodeStatus())
	for _, peer := range members {
		if peer == self {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := s.probeStatus(r, peer)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				s.log.Warn("fleet status probe failed", "peer", peer, "err", err)
				unreachable = append(unreachable, peer)
				return
			}
			nodes = append(nodes, st)
		}()
	}
	wg.Wait()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Node < nodes[j].Node })
	sort.Strings(unreachable)
	if unreachable == nil {
		unreachable = []string{}
	}
	sum := FleetSummary{
		Nodes:       max(len(members), 1),
		Healthy:     len(nodes),
		Unreachable: len(unreachable),
	}
	for _, st := range nodes {
		sum.ActiveRuns += len(st.Runs.Active)
		sum.Inflight += st.Inflight
		sum.Queued += st.Queued
		sum.Started += st.Runs.Started
		sum.Done += st.Runs.Done
		sum.Failed += st.Runs.Failed
		sum.Forwarded += st.Forwarded
		sum.Coalesced += st.Coalesced
		sum.Degraded += st.Degraded
		sum.Rejected += st.Rejected
		sum.Estimated += st.Estimated
		sum.EstimateRefreshes += st.EstimateRefreshes
		sum.StoreRecords += st.StoreRecords
		sum.StoreBytes += st.StoreBytes
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(FleetStatus{Fleet: sum, Nodes: nodes, Unreachable: unreachable})
}

// probeStatus fetches one peer's /v1/status. Peer names are base URLs,
// the same convention the fabric transport forwards runs with.
func (s *Server) probeStatus(r *http.Request, peer string) (NodeStatus, error) {
	ctx, cancel := context.WithTimeout(r.Context(), statusProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/status", nil)
	if err != nil {
		return NodeStatus{}, err
	}
	resp, err := s.probe.Do(req)
	if err != nil {
		return NodeStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return NodeStatus{}, fmt.Errorf("peer %s answered status %s", peer, http.StatusText(resp.StatusCode))
	}
	var st NodeStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return NodeStatus{}, err
	}
	return st, nil
}
