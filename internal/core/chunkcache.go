package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"time"

	"privid/internal/query"
	"privid/internal/rel"
	"privid/internal/table"
	"privid/internal/vtime"
)

// chunkIdentity renders the content identity shared by every chunk of
// one (SPLIT, PROCESS) pair over one region source. Together with the
// chunk's absolute frame interval it captures everything the sandbox's
// output may legitimately depend on:
//
//   - the frames the executable sees: camera, mask, region scheme and
//     region name, and (per chunk) the absolute frame interval;
//   - the executable itself and its contract limits: TIMEOUT, max
//     rows, and the declared schema (types and default values shape
//     conformed rows).
//
// Chunk and stride lengths are included conservatively even though the
// absolute frame interval already pins the content, so distinct
// chunking grids never share entries. The one chunk field deliberately
// excluded is Ordinal: it is positional metadata whose numbering
// shifts between overlapping SPLIT windows covering identical frames,
// and a conforming ProcessFunc (a pure function of the chunk's frames,
// Appendix B) cannot encode it in its rows. Keying on content rather
// than position is what lets overlapping windows reuse each other's
// work.
func chunkIdentity(camera, maskID, schemeName, region, using string,
	timeout time.Duration, maxRows int, schema table.Schema,
	chunkF, strideF int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%q|%q|%q|%q|%q|%d|%d|%d|%d|",
		camera, maskID, schemeName, region, using,
		timeout, maxRows, chunkF, strideF)
	for _, c := range schema.Cols {
		fmt.Fprintf(&b, "%q:%d:%q;", c.Name, c.Type, c.Default.Key())
	}
	return b.String()
}

// Cache keys are compact and exact: a kind tag, the SHA-256 of the
// rendered identity, and the chunk's fixed-width frame interval. The
// digest is computed once per shard × region split (× plan for states)
// when a statement is planned (planFor); per chunk the worker fills 49
// bytes on its own stack, which the cache hashes and compares (a warm
// chunk makes no key string; a stored entry makes one). The tag keeps
// the two kinds the chunk cache stores in disjoint namespaces by
// construction: a table key can never equal a state key.
const (
	tableKeyKind = 'T' // digest of chunkIdentity
	stateKeyKind = 'S' // digest of rel.PartialPlan.ID + chunkIdentity

	keyPrefixLen = 1 + sha256.Size
	chunkKeyLen  = keyPrefixLen + 16 // + start, end
)

// keyPrefix compacts a rendered identity into the per-split part of a
// cache key. For state keys planID is the aggregation plan's versioned
// identity: two queries share a state entry exactly when the same chunk
// content would feed the same fold — same executable/contract (the
// identity) and same canonical aggregation chain (the plan ID).
func keyPrefix(kind byte, planID, identity string) string {
	sum := sha256.Sum256([]byte(planID + identity))
	return string(append([]byte{kind}, sum[:]...))
}

// chunkKey completes a key prefix with one chunk's absolute frame
// interval, in the caller's frame: it allocates nothing.
func chunkKey(prefix string, iv vtime.Interval) (k [chunkKeyLen]byte) {
	copy(k[:], prefix)
	binary.BigEndian.PutUint64(k[keyPrefixLen:], uint64(iv.Start))
	binary.BigEndian.PutUint64(k[keyPrefixLen+8:], uint64(iv.End))
	return k
}

// planMemo is a PROCESS statement's pushdown plans (nil when
// materialised) and its key prefixes per shard and region split (table,
// then one per plan), beside the inputs they were derived from.
type planMemo struct {
	full  table.Schema
	cands []*query.SelectStmt
	metas []rel.TableMeta
	views [][2]string // per shard: mask id, scheme name
	plans []*rel.PartialPlan
	keys  [][][]string
}

// planFor sets run's plans and key prefixes, memoised by statement
// (a resubmitted text shares its program via the parse cache; a standing
// query re-runs one). A hit must match every other planner input —
// candidates, stamped schema, each shard's metadata, mask and scheme —
// else, say when a source's bounds grew, it re-plans in place.
func (e *Engine) planFor(run *processRun, plan *splitPlan, cands []*query.SelectStmt, metas []rel.TableMeta) {
	sameView := func(v [2]string, sh *splitShard) bool { return v == [2]string{sh.maskID, sh.schemeName} }
	m, _ := e.memo.Load(run.st, func(m *planMemo) bool {
		return slices.Equal(m.cands, cands) && slices.Equal(m.full.Cols, run.full.Cols) &&
			slices.EqualFunc(m.metas, metas, rel.TableMeta.Equal) && slices.EqualFunc(m.views, plan.shards, sameView)
	}, func() (*planMemo, int, error) {
		m := &planMemo{full: run.full, cands: cands, metas: metas}
		for _, sel := range cands {
			pp := rel.PlanPartial(sel, run.st.Into, run.full, metas)
			if pp == nil {
				m.plans = nil
				break
			}
			m.plans = append(m.plans, pp)
		}
		for _, sh := range plan.shards {
			m.views = append(m.views, [2]string{sh.maskID, sh.schemeName})
			keys := make([][]string, len(sh.splits)) // splits follow the scheme's region order
			for s, split := range sh.splits {
				identity := chunkIdentity(sh.cam.cfg.Name, sh.maskID, sh.schemeName, split.Region,
					run.st.Using, run.st.Timeout, run.st.MaxRows, run.exec.Schema, sh.chunkF, sh.strideF)
				keys[s] = append(make([]string, 0, 1+len(m.plans)), keyPrefix(tableKeyKind, "", identity))
				for _, pp := range m.plans {
					keys[s] = append(keys[s], keyPrefix(stateKeyKind, pp.ID(), identity))
				}
			}
			m.keys = append(m.keys, keys)
		}
		return m, len(metas), nil
	})
	run.planMemo = m
}
