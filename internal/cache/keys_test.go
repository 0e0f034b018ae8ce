package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"privid/internal/table"
)

// engineKey builds a key in the engine's layout: a kind tag, a SHA-256
// digest and a big-endian (start, end) frame interval — 49 bytes.
func engineKey(kind byte, n int) []byte {
	digest := sha256.Sum256([]byte(fmt.Sprintf("identity %d", n%3)))
	k := append([]byte{kind}, digest[:]...)
	k = binary.BigEndian.AppendUint64(k, uint64(n*60))
	return binary.BigEndian.AppendUint64(k, uint64(n*60+60))
}

// Byte-keyed and string-keyed verbs reach the same entries, in RAM and
// on disk, and no verb keeps the caller's key buffer: scribbling over
// it after every call leaves every entry reachable.
func TestByteAndStringKeysShareEntries(t *testing.T) {
	eachTiering(t, func(t *testing.T, c *Tiered) {
		buf := make([]byte, 49)
		use := func(k []byte) []byte { return append(buf[:0], k...) }
		scribble := func() {
			for i := range buf {
				buf[i] = ^buf[i]
			}
		}
		const n = 8
		for i := 0; i < n; i++ {
			state, tbl := engineKey('S', i), engineKey('T', i)
			if i%2 == 0 {
				c.PutState(use(state), []byte{byte(i)})
				scribble()
				c.Do(use(tbl), 0, func() (*table.Table, bool) { return mixedTbl(i + 1), true })
			} else {
				c.PutRaw(string(state), []byte{byte(i)})
				c.put(string(tbl), mixedTbl(i+1))
			}
			scribble()
		}
		for i := 0; i < n; i++ {
			state, tbl := engineKey('S', i), engineKey('T', i)
			if raw, ok := c.GetState(use(state)); !ok || !slices.Equal(raw, []byte{byte(i)}) {
				t.Fatalf("GetState(%d) = %v, %v", i, raw, ok)
			}
			scribble()
			if raw, ok := c.GetRaw(string(state)); !ok || !slices.Equal(raw, []byte{byte(i)}) {
				t.Fatalf("GetRaw(%d) = %v, %v", i, raw, ok)
			}
			if got, _, outcome := c.Do(use(tbl), 0, mustNotCompute(t)); outcome != Hit || got.Len() != i+1 {
				t.Fatalf("Do(%d) = %v rows, %v", i, got.Len(), outcome)
			}
			scribble()
			if got, ok := c.get(string(tbl)); !ok || got.Len() != i+1 {
				t.Fatalf("get(%d) = %v", i, ok)
			}
		}
	})
}

// writeSegment frames entries into a segment file by the documented
// format, independently of Disk's writer:
// magic | keyLen u32 | payLen u32 | key | payload | crc32.
func writeSegment(t *testing.T, dir string, keys, payloads [][]byte) {
	t.Helper()
	var seg []byte
	for i, k := range keys {
		start := len(seg)
		seg = binary.LittleEndian.AppendUint32(seg, segMagic)
		seg = binary.LittleEndian.AppendUint32(seg, uint32(len(k)))
		seg = binary.LittleEndian.AppendUint32(seg, uint32(len(payloads[i])))
		seg = append(append(seg, k...), payloads[i]...)
		seg = binary.LittleEndian.AppendUint32(seg, crc32.ChecksumIEEE(seg[start+4:]))
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-000000000000.pvc"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
}

// A segment directory whose frames carry 49-byte engine keys — the
// layout string keys wrote before keys were built as bytes — reopens
// with every entry reachable by both verbs, and promotes under either.
func TestSegmentWithEngineKeysReopens(t *testing.T) {
	for _, withRAM := range []bool{false, true} {
		dir := t.TempDir()
		writeSegment(t, dir,
			[][]byte{engineKey('T', 1), engineKey('S', 1), engineKey('S', 2)},
			[][]byte{mixedTbl(3).EncodeBinary(), {1, 2, 3}, {4}})
		disk, err := OpenDisk(dir, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		var mem *LRU
		if withRAM {
			mem = New(1 << 20)
		}
		c := NewTiered(mem, disk)
		if got, _, outcome := c.Do(engineKey('T', 1), 0, mustNotCompute(t)); outcome != Hit || got.Len() != 3 {
			t.Fatalf("Do = %v rows, %v", got.Len(), outcome)
		}
		if got, ok := c.get(string(engineKey('T', 1))); !ok || got.Len() != 3 {
			t.Fatal("get missed the table entry")
		}
		if raw, ok := c.GetState(engineKey('S', 1)); !ok || !slices.Equal(raw, []byte{1, 2, 3}) {
			t.Fatalf("GetState = %v, %v", raw, ok)
		}
		if raw, ok := c.GetRaw(string(engineKey('S', 2))); !ok || !slices.Equal(raw, []byte{4}) {
			t.Fatalf("GetRaw = %v, %v", raw, ok)
		}
		if st := c.Stats(); withRAM && (st.Promotions != 3 || st.Entries != 3) {
			t.Fatalf("stats = %+v, want 3 promotions resident", st)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// A put at capacity evicts first and reuses the node it freed, so it
// allocates only the key string it keeps: none for a caller's string,
// one for a caller's bytes. A disk→RAM promotion at capacity takes the
// disk index's key string and allocates only the payload copy it keeps.
func TestPutAtCapacityAllocatesOnlyTheKey(t *testing.T) {
	const resident = 64
	payload := make([]byte, 8)
	mem := New(resident * (entryOverhead + 49 + 8))
	c := NewTiered(mem, nil)
	i := 0
	next := func() []byte { i++; return engineKey('S', i) }
	for mem.Stats().Evictions == 0 {
		c.PutState(next(), payload)
	}
	key := next()
	bytesPut := testing.AllocsPerRun(200, func() {
		binary.BigEndian.PutUint64(key[33:], uint64(i))
		i++
		c.PutState(key, payload)
	})
	strs := make([]string, 256)
	for k := range strs {
		strs[k] = string(next())
	}
	k := 0
	stringPut := testing.AllocsPerRun(200, func() {
		mem.PutRaw(strs[k], payload)
		k++
	})
	if bytesPut > 1 || stringPut > 0 {
		t.Fatalf("a put at capacity allocates %v times by bytes, %v by string; want 1 and 0", bytesPut, stringPut)
	}

	disk, err := OpenDisk(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	mem = New(resident * (entryOverhead + 49 + 8))
	c = NewTiered(mem, disk)
	keys := make([][]byte, 4*resident)
	for k := range keys {
		keys[k] = engineKey('S', k)
		c.PutState(keys[k], payload)
	}
	k = 0
	promote := testing.AllocsPerRun(200, func() {
		if _, ok := c.GetState(keys[k%len(keys)]); !ok {
			t.Fatal("disk tier lost an entry")
		}
		k++
	})
	if st := c.Stats(); promote > 1 || st.Promotions < 200 {
		t.Fatalf("a promotion at capacity allocates %v times (%d promotions); want 1, the payload", promote, st.Promotions)
	}
}

// Evicting before inserting and reusing the freed node keeps the
// eviction order, byte accounting and counters of inserting first and
// then evicting down to the bound: the cache matches a list model over
// random puts, overwrites, oversize entries and lookups.
func TestLRUMatchesListModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := New(40 * (entryOverhead + 16))
	type entry struct {
		key  string
		cost int64
	}
	var model []entry // most recent first
	var bytes int64
	var evictions uint64
	find := func(k string) int {
		return slices.IndexFunc(model, func(e entry) bool { return e.key == k })
	}
	for op := 0; op < 20000; op++ {
		k := fmt.Sprintf("k%03d", rng.Intn(150))
		if rng.Intn(3) == 0 {
			_, ok := c.GetRaw(k)
			if j := find(k); ok != (j >= 0) {
				t.Fatalf("op %d: GetRaw(%s) = %v, model has it at %d", op, k, ok, j)
			} else if ok {
				e := model[j]
				model = slices.Insert(slices.Delete(model, j, j+1), 0, e)
			}
			continue
		}
		raw := make([]byte, rng.Intn(4*entryOverhead))
		c.PutRaw(k, raw)
		cost := int64(entryOverhead + len(k) + len(raw))
		if cost > c.maxBytes {
			continue
		}
		if j := find(k); j >= 0 {
			bytes -= model[j].cost
			model = slices.Delete(model, j, j+1)
		}
		model = slices.Insert(model, 0, entry{k, cost})
		for bytes += cost; bytes > c.maxBytes; evictions++ {
			bytes -= model[len(model)-1].cost
			model = model[:len(model)-1]
		}
		st := c.Stats()
		if st.Bytes != bytes || st.Evictions != evictions || st.Entries != len(model) {
			t.Fatalf("op %d: stats %+v, model bytes %d, evictions %d, entries %d", op, st, bytes, evictions, len(model))
		}
		got := []string{}
		for e := c.root.next; e != &c.root; e = e.next {
			got = append(got, e.key)
		}
		for j, e := range model {
			if got[j] != e.key {
				t.Fatalf("op %d: recency order %v, model %v", op, got, model)
			}
		}
	}
}
