// Package rel executes the aggregation stage of a Privid query: the
// SQL-like SELECT over untrusted intermediate tables. Each relational
// operator simultaneously produces rows and propagates the privacy
// constraints of Fig. 10 — ΔP (the maximum rows a (ρ, K)-bounded event
// can influence), per-column range constraints C̃r, and the size
// constraint C̃s — so that the engine can bound the sensitivity of the
// final aggregate without ever trusting table contents.
package rel

import (
	"math"
	"time"

	"privid/internal/policy"
	"privid/internal/table"
	"privid/internal/vtime"
)

// TableMeta is the *trusted* metadata of one intermediate table: every
// field is fixed by the query text and the camera registration, never
// by the analyst's executable output.
type TableMeta struct {
	Name         string
	Camera       string
	MaxRows      int             // PRODUCING max rows per chunk
	ChunkFrames  int64           // chunk duration in frames
	StrideFrames int64           // stride between chunks in frames
	FPS          vtime.FrameRate // camera frame rate
	NumChunks    int64           // chunks in the queried window
	Begin, End   time.Time       // wall-clock window
	Policy       policy.Policy   // effective (ρ, K) (mask-adjusted)
	// Regions is the number of spatial regions when the SPLIT used BY
	// REGION (0 otherwise). Each chunk then yields up to
	// MaxRows*Regions rows, but an individual occupies one region at a
	// time, so ΔP is unchanged (§7.2).
	Regions int
	// RegionsPerEvent is the maximum number of region-chunks a single
	// individual can influence within one temporal chunk. It is 1 for
	// plain and hard/soft boundary splits; the Grid Split extension
	// (§7.2 future work) derives a larger value from the owner's
	// object-size and speed bounds.
	RegionsPerEvent int
}

// Equal reports whether m and o are the same metadata, with the
// window's times compared by time.Time.Equal.
func (m TableMeta) Equal(o TableMeta) bool {
	same := m.Begin.Equal(o.Begin) && m.End.Equal(o.End)
	m.Begin, m.End = o.Begin, o.End
	return same && m == o
}

// Delta returns ΔP(t) for this table per Eq. 6.2:
// max_rows · K · max_chunks(ρ), with max_chunks generalized to the
// split's stride and multiplied by the per-event region count under
// Grid Split.
func (m TableMeta) Delta() float64 {
	perEvent := m.RegionsPerEvent
	if perEvent < 1 {
		perEvent = 1
	}
	return float64(m.MaxRows) * float64(m.Policy.K) *
		float64(m.Policy.MaxChunksStrided(m.FPS, m.ChunkFrames, m.StrideFrames)) *
		float64(perEvent)
}

// Size returns C̃s(t): the maximum number of rows the table can hold,
// which is fixed by the chunking plan and max_rows.
func (m TableMeta) Size() float64 {
	regions := m.Regions
	if regions < 1 {
		regions = 1
	}
	return float64(m.NumChunks) * float64(m.MaxRows) * float64(regions)
}

// Instance pairs a materialized table with its trusted metadata: one
// TableMeta per contributing camera shard. Single-camera tables have
// exactly one; multi-camera tables (SPLIT with a camera list, or
// MERGE) have one per shard, and their rows carry the trusted implicit
// camera column attributing each row to its shard.
type Instance struct {
	Metas []TableMeta
	Data  *table.Table
}

// NewInstance builds an instance over one or more shard metas.
func NewInstance(data *table.Table, metas ...TableMeta) *Instance {
	return &Instance{Metas: metas, Data: data}
}

// Env resolves table names for a SELECT.
type Env map[string]*Instance

// Range is a closed numeric interval [Lo, Hi].
type Range struct {
	Lo, Hi float64
}

// clamp enforces the range on one value an executable produced. The
// range is a privacy constraint, so it holds whatever the untrusted
// rows contain: NaN maps to Lo, a constant that does not depend on the
// data, and ±Inf clamp to the nearer bound like any value outside.
func (r Range) clamp(x float64) float64 {
	if !(x >= r.Lo) { // below Lo, or NaN
		x = r.Lo
	}
	if x > r.Hi {
		x = r.Hi
	}
	return x
}

// width returns the conservative per-row contribution bound: the
// maximum of |Lo|, |Hi| and Hi−Lo, so that both changing a row's value
// within the range and adding/removing the row entirely are covered.
func (r Range) width() float64 {
	w := r.Hi - r.Lo
	if a := math.Abs(r.Lo); a > w {
		w = a
	}
	if a := math.Abs(r.Hi); a > w {
		w = a
	}
	return w
}

// BucketSpec describes a trusted, enumerable time-bucket column
// derived from the implicit chunk column (hour(chunk), day(chunk),
// bin(chunk, w)). Knowing the bucket function lets the engine release
// a value for *every* bucket in the window, including empty ones, so
// bucket presence cannot leak information.
type BucketSpec struct {
	// WidthSec is the bucket width in seconds (0 for HourOfDay).
	WidthSec float64
	// HourOfDay buckets by hour-of-day (0–23) rather than absolute
	// time.
	HourOfDay bool
}

// Constraints is the sensitivity state propagated through relational
// operators (the ΔP / C̃r / C̃s columns of Fig. 10, plus column trust
// and bucket provenance).
type Constraints struct {
	// Delta is ΔP: the maximum number of rows any (ρ, K)-bounded event
	// can influence in the relation.
	Delta float64
	// Size is C̃s: an upper bound on the relation's row count
	// (math.Inf(1) when unbound).
	Size float64
	// Ranges maps column names to their range constraints (absent =
	// unbound, Fig. 10's ∅).
	Ranges map[string]Range
	// Trusted marks columns whose values cannot be influenced by the
	// analyst's executable: the implicit chunk/region columns,
	// literals, and stateless derivations thereof.
	Trusted map[string]bool
	// Buckets records bucket provenance for trusted chunk-derived
	// columns.
	Buckets map[string]BucketSpec
	// Metas lists the tables contributing to the relation, for budget
	// accounting and bucket enumeration.
	Metas []TableMeta
	// DedupKeys is non-nil when the relation is known to contain at
	// most one row per value of these columns (the output of a GROUP
	// BY dedup). JOINs require both inputs to be deduped on the join
	// keys (Fig. 10).
	DedupKeys []string
	// LiteralCols maps column names to their constant value when every
	// row of the relation carries the same trusted literal in that
	// column (a projected string literal, e.g. a camera tag).
	LiteralCols map[string]string
	// KeyDeltas, when set for a column, partitions the relation: rows
	// with each recorded value come from branches whose combined ΔP is
	// the mapped value. This implements Fig. 10's per-key ARGMAX
	// sensitivity max_k Δ(σ_a=k(R)) across a UNION of tagged tables,
	// and per-release sensitivity for SELECTs grouped by the trusted
	// camera column of a multi-camera table.
	KeyDeltas map[string]map[string]float64
	// KeyCams mirrors KeyDeltas with camera attribution: rows carrying
	// each recorded value can only have come from the listed cameras,
	// so a release keyed on that value charges only those cameras'
	// budgets.
	KeyCams map[string]map[string][]string
}

// window returns the earliest begin and latest end over the
// contributing tables.
func (c Constraints) window() (time.Time, time.Time) {
	var begin, end time.Time
	for i, m := range c.Metas {
		if i == 0 || m.Begin.Before(begin) {
			begin = m.Begin
		}
		if i == 0 || m.End.After(end) {
			end = m.End
		}
	}
	return begin, end
}
