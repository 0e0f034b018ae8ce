package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strings"
	"time"

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
// when a program is planned (keyPrefixes); per chunk the worker fills 49
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
