// Kernel-granular execution profiles at the job layer. A profiled job
// (SubmitOptions.Profile, or "profile": true in the POST /v1/jobs body)
// runs with the simulator's per-kernel profiler on; the backend stores
// the resulting sim.Profile under the result's Meta["profile"], and the
// pool lifts it into the job's status document next to the span log so
// operators can see where the execute stage's time went — per kernel,
// with per-shard min/max and the imbalance ratio — without fetching the
// full result.
//
// Profiled submissions get a distinct cache key (CacheKey + "+profile"),
// so whether a status document carries a kernel table is deterministic in
// the submission: a profiled job never silently reuses an unprofiled
// run's cached result, and vice versa. Everything else — counts,
// fingerprints, shard grants — is bit-identical either way.

package jobs

import (
	"encoding/json"
	"sort"

	"repro/internal/result"
)

// profiledKeySuffix distinguishes a profiled submission's cache key from
// its unprofiled twin's.
const profiledKeySuffix = "+profile"

// profiledKey derives the content address of a profiled submission.
func profiledKey(key string, profile bool) string {
	if profile {
		return key + profiledKeySuffix
	}
	return key
}

// profileRaw extracts the result's Meta["profile"] as canonical JSON, or
// nil when the result carries none. The value is a typed *sim.Profile on
// the fresh-execution path and a generic map on results reloaded from
// disk; marshaling normalizes both into the same document.
func profileRaw(res *result.Result) json.RawMessage {
	if res == nil || res.Meta == nil {
		return nil
	}
	v, ok := res.Meta["profile"]
	if !ok || v == nil {
		return nil
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return nil
	}
	return raw
}

// profileView mirrors sim.Profile's JSON shape for decoding per-point
// profiles out of sweep results without importing the simulator.
type profileView struct {
	Shards  int   `json:"shards"`
	TotalNs int64 `json:"total_ns"`
	Kernels []struct {
		Kind string `json:"kind"`
		Ns   int64  `json:"ns"`
	} `json:"kernels"`
}

// sweepKindJSON is one kernel-kind row of an aggregated sweep profile.
type sweepKindJSON struct {
	Kind    string `json:"kind"`
	Kernels int    `json:"kernels"`
	Ns      int64  `json:"ns"`
}

// sweepProfileJSON is the aggregated profile of a profiled sweep job:
// per-point kernel tables folded into per-kind totals (points share one
// compiled plan, so per-kernel rows across points would only repeat the
// same structure N times).
type sweepProfileJSON struct {
	Points         int             `json:"points"`
	PointsProfiled int             `json:"points_profiled"`
	TotalNs        int64           `json:"total_ns"`
	Kinds          []sweepKindJSON `json:"kinds"`
}

// aggregateSweepProfiles folds the per-point Meta["profile"] tables of a
// completed sweep into one per-kind summary document. Each point becomes
// a one-point partial table; points served from the cache of an
// unprofiled run carry no profile and are counted out via PointsProfiled.
// Nil when no point carried a profile.
func aggregateSweepProfiles(results []*result.Result) json.RawMessage {
	parts := make([]sweepProfileJSON, len(results))
	for i, res := range results {
		parts[i].Points = 1
		raw := profileRaw(res)
		if raw == nil {
			continue
		}
		var pv profileView
		if err := json.Unmarshal(raw, &pv); err != nil {
			continue
		}
		parts[i].PointsProfiled = 1
		parts[i].TotalNs = pv.TotalNs
		for _, k := range pv.Kernels {
			parts[i].Kinds = append(parts[i].Kinds, sweepKindJSON{Kind: k.Kind, Kernels: 1, Ns: k.Ns})
		}
	}
	return mergeSweepProfiles(parts)
}

// MergeSweepProfiles folds aggregated sweep profile documents — such as
// the per-range tables a fleet dispatcher collects from the workers that
// ran a scattered sweep — into one document of the same shape. Empty or
// unreadable documents are skipped; nil when no point was profiled.
func MergeSweepProfiles(docs []json.RawMessage) json.RawMessage {
	parts := make([]sweepProfileJSON, 0, len(docs))
	for _, raw := range docs {
		var part sweepProfileJSON
		if len(raw) > 0 && json.Unmarshal(raw, &part) == nil {
			parts = append(parts, part)
		}
	}
	return mergeSweepProfiles(parts)
}

// mergeSweepProfiles is the one per-kind fold behind every sweep profile
// document: point counts and totals add up, rows of the same kernel kind
// merge, and kinds sort by time, ties by name, so the document never
// depends on map iteration order. Nil when no point was profiled.
func mergeSweepProfiles(parts []sweepProfileJSON) json.RawMessage {
	var out sweepProfileJSON
	idx := map[string]int{}
	for _, part := range parts {
		out.Points += part.Points
		out.PointsProfiled += part.PointsProfiled
		out.TotalNs += part.TotalNs
		for _, k := range part.Kinds {
			i, ok := idx[k.Kind]
			if !ok {
				idx[k.Kind] = len(out.Kinds)
				out.Kinds = append(out.Kinds, k)
				continue
			}
			out.Kinds[i].Kernels += k.Kernels
			out.Kinds[i].Ns += k.Ns
		}
	}
	if out.PointsProfiled == 0 {
		return nil
	}
	sort.Slice(out.Kinds, func(a, b int) bool {
		if out.Kinds[a].Ns != out.Kinds[b].Ns {
			return out.Kinds[a].Ns > out.Kinds[b].Ns
		}
		return out.Kinds[a].Kind < out.Kinds[b].Kind
	})
	raw, err := json.Marshal(out)
	if err != nil {
		return nil
	}
	return raw
}
