package history

import "warp/internal/obs"

// History size gauges (docs/observability.md): how much history is live.
// Every Graph sets them on each structural change (Append, AddDeps,
// RestoreAction, GC), so with one deployment per process they describe
// that deployment's graph.
var (
	// historyActions is the number of live actions in the graph.
	historyActions = obs.NewGauge("warp_history_actions")
	// historyNodes is the number of distinct nodes with at least one
	// dependency edge.
	historyNodes = obs.NewGauge("warp_history_nodes")
)
