package vtpm

import (
	"encoding/json"
	"net/http"
	"strconv"

	"xvtpm/internal/faults"
	"xvtpm/internal/metrics"
	"xvtpm/internal/store/logstore"
	"xvtpm/internal/trace"
)

// Runtime introspection: the JSON report behind the host daemon's
// /debug/vtpm endpoint and vtpmctl's `top`. Everything here is a read-only
// snapshot assembled from the same instruments the dispatch path feeds
// (observe.go); building a report takes registry read locks and per-instance
// leaf locks only, so it is safe to hit on a live, loaded manager.

// DebugInstance is one instance's row in a DebugReport.
type DebugInstance struct {
	ID            InstanceID               `json:"id"`
	Profile       string                   `json:"profile"`
	BoundDom      uint32                   `json:"bound_dom"`
	Health        string                   `json:"health"`
	Dispatches    uint64                   `json:"dispatches"`
	Failures      uint64                   `json:"failures"`
	PendingDirty  uint64                   `json:"pending_dirty"`
	Latency       metrics.HistogramSummary `json:"latency"`
	SpansRecorded uint64                   `json:"spans_recorded"`
	Spans         []trace.Span             `json:"spans,omitempty"`
}

// StoreDebug is the persistence-backend section of a DebugReport, present
// when the manager writes through the log-structured store (possibly under
// fault-injection wrappers).
type StoreDebug struct {
	Backend            string  `json:"backend"`
	Segments           int     `json:"segments"`
	Commits            uint64  `json:"commits"`
	CoalesceRatio      float64 `json:"coalesce_ratio"`
	BytesAppended      uint64  `json:"bytes_appended"`
	BytesLive          uint64  `json:"bytes_live"`
	BytesOnDisk        uint64  `json:"bytes_on_disk"`
	CompactionDebt     uint64  `json:"compaction_debt"`
	Compactions        uint64  `json:"compactions"`
	WriteAmplification float64 `json:"write_amplification"`
}

// DebugReport is the full /debug/vtpm document.
type DebugReport struct {
	Dispatch   DispatchStats    `json:"dispatch"`
	Checkpoint CheckpointStats  `json:"checkpoint"`
	Sign       *SignDebug       `json:"sign,omitempty"`
	Store      *StoreDebug      `json:"store,omitempty"`
	Health     []InstanceHealth `json:"health"`
	Instances  []DebugInstance  `json:"instances"`
}

// UnwrapLogStore digs through fault-injection wrappers to the
// log-structured backend, if one is at the bottom of the stack.
func UnwrapLogStore(s Store) (*logstore.Store, bool) {
	var cur faults.BlobStore = s
	for {
		switch st := cur.(type) {
		case *logstore.Store:
			return st, true
		case *faults.Store:
			cur = st.Inner()
		default:
			return nil, false
		}
	}
}

// StoreDebug snapshots the log store's counters, or returns nil when the
// manager persists through a flat backend.
func (m *Manager) StoreDebug() *StoreDebug {
	ls, ok := UnwrapLogStore(m.store)
	if !ok {
		return nil
	}
	st := ls.Stats()
	return &StoreDebug{
		Backend:            "log",
		Segments:           st.Segments,
		Commits:            st.Commits,
		CoalesceRatio:      st.CoalesceRatio(),
		BytesAppended:      st.BytesAppended,
		BytesLive:          st.BytesLive,
		BytesOnDisk:        st.BytesOnDisk,
		CompactionDebt:     st.CompactionDebt,
		Compactions:        st.Compactions,
		WriteAmplification: st.WriteAmplification(),
	}
}

// DebugReport assembles the introspection document. withSpans additionally
// dumps each instance's recent-span ring (bounded per instance by the
// configured trace depth).
func (m *Manager) DebugReport(withSpans bool) DebugReport {
	rep := DebugReport{
		Dispatch:   m.DispatchStats(),
		Checkpoint: m.CheckpointStats(),
		Sign:       m.SignDebug(),
		Store:      m.StoreDebug(),
		Health:     m.HealthAll(),
	}
	for _, s := range m.InstanceStatsAll() {
		di := DebugInstance{
			ID:            s.ID,
			Profile:       s.Profile.String(),
			BoundDom:      uint32(s.BoundDom),
			Health:        s.Health.String(),
			Dispatches:    s.Dispatches,
			Failures:      s.Failures,
			PendingDirty:  s.PendingDirty,
			Latency:       s.Latency,
			SpansRecorded: s.SpansRecorded,
		}
		if withSpans {
			di.Spans, _ = m.Spans(s.ID)
		}
		rep.Instances = append(rep.Instances, di)
	}
	return rep
}

// DebugHandler serves DebugReport as indented JSON. Spans are included by
// default; ?spans=0 trims the document to the digests.
func (m *Manager) DebugHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		withSpans := true
		if v := r.URL.Query().Get("spans"); v != "" {
			if b, err := strconv.ParseBool(v); err == nil {
				withSpans = b
			}
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(m.DebugReport(withSpans)); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
