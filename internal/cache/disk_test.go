package cache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"privid/internal/table"
)

func mixedTbl(n int) *table.Table {
	s := table.MustSchema(
		table.Column{Name: "plate", Type: table.DString, Default: table.S("")},
		table.Column{Name: "speed", Type: table.DNumber, Default: table.N(0)},
	)
	t := table.New(s)
	for i := 0; i < n; i++ {
		t.Append(table.Row{table.S(fmt.Sprintf("P%03d", i)), table.N(float64(i) / 2)})
	}
	return t
}

// get and getRaw are the counted disk-tier lookups the tests read
// entries back with.
func (d *Disk) get(key string) (*table.Table, bool) {
	tbl, _, ok := diskLookup(d, key, true)
	return tbl, ok
}

func (d *Disk) getRaw(key string) ([]byte, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, raw, ok := diskGet(d, key, true, true, nil)
	return raw, ok
}

func TestDiskRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	want := mixedTbl(10)
	d.put("k1", want)
	d.put("k2", mixedTbl(3))
	if got, ok := d.get("k1"); !ok || got.String() != want.String() {
		t.Fatalf("get before close: ok=%v", ok)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got, ok := d2.get("k1")
	if !ok {
		t.Fatal("k1 lost across reopen")
	}
	if got.String() != want.String() {
		t.Fatalf("k1 corrupted across reopen:\n%s\nvs\n%s", got.String(), want.String())
	}
	if !got.Frozen() {
		t.Fatal("disk Get must return a frozen table")
	}
	if d2.Stats().Entries != 2 {
		t.Fatalf("len = %d, want 2", d2.Stats().Entries)
	}
}

func TestDiskOverwriteLatestWins(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	d.put("k", mixedTbl(1))
	want := mixedTbl(5)
	d.put("k", want)
	d.Close()

	d2, err := OpenDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got, ok := d2.get("k")
	if !ok || got.Len() != 5 {
		t.Fatalf("latest overwrite not recovered: ok=%v", ok)
	}
}

// TestDiskTornWriteRecovery simulates a crash mid-append: the segment
// ends with a partial frame. Reopen must recover every entry before
// the tear, drop the torn frame, and accept new appends.
func TestDiskTornWriteRecovery(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	d.put("good1", mixedTbl(4))
	d.put("good2", mixedTbl(2))
	d.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.pvc"))
	if len(segs) != 1 {
		t.Fatalf("segments = %d, want 1", len(segs))
	}
	// Append a torn frame: a valid header promising more bytes than
	// are written.
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var head []byte
	head = binary.LittleEndian.AppendUint32(head, segMagic)
	head = binary.LittleEndian.AppendUint32(head, 4)
	head = binary.LittleEndian.AppendUint32(head, 1000)
	head = append(head, "torn"...)
	if _, err := f.Write(head); err != nil {
		t.Fatal(err)
	}
	f.Close()

	d2, err := OpenDisk(dir, 1<<20)
	if err != nil {
		t.Fatalf("reopen after torn write: %v", err)
	}
	if _, ok := d2.get("good1"); !ok {
		t.Fatal("good1 lost to a later torn write")
	}
	if _, ok := d2.get("good2"); !ok {
		t.Fatal("good2 lost to a later torn write")
	}
	if _, ok := d2.get("torn"); ok {
		t.Fatal("torn frame must not be indexed")
	}
	// The file must have been truncated back to a clean boundary so
	// new appends survive the next reopen.
	d2.put("after", mixedTbl(1))
	d2.Close()
	d3, err := OpenDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	for _, k := range []string{"good1", "good2", "after"} {
		if _, ok := d3.get(k); !ok {
			t.Fatalf("%s lost after post-tear append", k)
		}
	}
}

// TestDiskCorruptPayloadRecovery flips a byte inside a stored payload:
// the CRC must reject the frame on reopen and scanning must stop
// cleanly instead of indexing garbage.
func TestDiskCorruptPayloadRecovery(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	d.put("a", mixedTbl(4))
	d.put("b", mixedTbl(4))
	d.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.pvc"))
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a byte inside the second frame's payload.
	kLen := binary.LittleEndian.Uint32(raw[4:8])
	pLen := binary.LittleEndian.Uint32(raw[8:12])
	second := segHeaderBytes + int(kLen) + int(pLen) + segTrailer
	raw[second+segHeaderBytes+10] ^= 0xff
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDisk(dir, 1<<20)
	if err != nil {
		t.Fatalf("reopen after corruption: %v", err)
	}
	defer d2.Close()
	if _, ok := d2.get("a"); !ok {
		t.Fatal("entry before the corruption must survive")
	}
	if _, ok := d2.get("b"); ok {
		t.Fatal("corrupt entry must not be served")
	}
}

func TestDiskSegmentEviction(t *testing.T) {
	dir := t.TempDir()
	// Bound small enough that a few entries exceed it and force
	// oldest-segment eviction once the active segment rotates.
	d, err := OpenDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	big := mixedTbl(20000) // several hundred KB encoded
	for i := 0; i < 40; i++ {
		d.put(fmt.Sprintf("k%02d", i), big)
	}
	st := d.Stats()
	if st.DiskEvictions == 0 {
		t.Fatalf("no segment evictions at %d bytes over a %d bound", st.DiskBytes, st.DiskMaxBytes)
	}
	// The newest entry is always retained.
	if _, ok := d.get("k39"); !ok {
		t.Fatal("newest entry evicted")
	}
	if st.DiskBytes > st.DiskMaxBytes+segmentTarget {
		t.Fatalf("disk bytes %d far exceeds bound %d", st.DiskBytes, st.DiskMaxBytes)
	}
}

// The unsealed segment OpenDisk finds stays the append target, its
// bytes loaded into the mirror that reads copy from: entries written
// before and after the reopen both read back from the one segment.
func TestDiskReopenedTailStaysActive(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	d.PutRaw("before", []byte("one"))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err = OpenDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.PutRaw("after", []byte("two"))
	for key, want := range map[string]string{"before": "one", "after": "two"} {
		if got, ok := d.getRaw(key); !ok || string(got) != want {
			t.Fatalf("GetRaw(%q) = %q, %v; want %q", key, got, ok, want)
		}
	}
	if segs := d.Stats().DiskSegments; segs != 1 {
		t.Fatalf("%d segments, want the reopened one only", segs)
	}
}

func TestTieredPromotion(t *testing.T) {
	dir := t.TempDir()
	disk, err := OpenDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	mem := New(1 << 20)
	c := NewTiered(mem, disk)
	defer c.Close()

	c.put("k", mixedTbl(5), false)
	// Drop the RAM copy, keep disk.
	mem.mu.Lock()
	for len(mem.items) > 0 {
		mem.evictOldest()
	}
	mem.mu.Unlock()

	got, ok := c.get("k")
	if !ok || got.Len() != 5 {
		t.Fatalf("tiered get after RAM flush: ok=%v", ok)
	}
	st := c.Stats()
	if st.DiskHits != 1 || st.Promotions != 1 {
		t.Fatalf("stats = %+v, want 1 disk hit + 1 promotion", st)
	}
	// Now it's back in RAM: the next Get must not touch disk.
	before := c.Stats().DiskHits
	if _, ok := c.get("k"); !ok {
		t.Fatal("promoted entry missing from RAM")
	}
	if c.Stats().DiskHits != before {
		t.Fatal("promoted entry still served from disk")
	}
}

// TestTieredPromotionDoesNotInflatePuts: a disk→RAM promotion must be
// counted only by Promotions — never by the tier-1 Puts counter (and
// therefore never by privid_chunk_cache_puts_total) — so operators can
// tell real write-through traffic from tier migrations.
func TestTieredPromotionDoesNotInflatePuts(t *testing.T) {
	dir := t.TempDir()
	disk, err := OpenDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	mem := New(1 << 20)
	c := NewTiered(mem, disk)
	defer c.Close()

	c.put("k", mixedTbl(3), false)
	if st := c.Stats(); st.Puts != 1 || st.DiskPuts != 1 {
		t.Fatalf("after write-through: Puts=%d DiskPuts=%d, want 1/1", st.Puts, st.DiskPuts)
	}
	// Drop the RAM copy, keep disk, then promote it back via Get.
	mem.mu.Lock()
	for len(mem.items) > 0 {
		mem.evictOldest()
	}
	mem.mu.Unlock()
	if _, ok := c.get("k"); !ok {
		t.Fatal("disk tier lost the entry")
	}
	st := c.Stats()
	if st.Promotions != 1 {
		t.Fatalf("Promotions = %d, want 1", st.Promotions)
	}
	if st.Puts != 1 {
		t.Fatalf("Puts = %d after a promotion, want 1 (promotions must not inflate puts)", st.Puts)
	}
	// The promoted entry really is resident in RAM (same accounting
	// rules: it occupies bytes and serves hits).
	if mem.Stats().Entries != 1 {
		t.Fatalf("RAM tier holds %d entries after promotion, want 1", mem.Stats().Entries)
	}
}

// fullTiered returns a two-tier cache whose RAM tier is full of
// resident 8-byte states of other keys, and the keys of n 8-byte states
// held on disk only.
func fullTiered(t *testing.T, resident, n int) (*Tiered, *LRU, [][]byte) {
	t.Helper()
	disk, err := OpenDisk(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	mem := New(int64(resident) * (entryOverhead + 49 + 8))
	for i := 0; mem.Stats().Evictions == 0; i++ {
		mem.PutRaw(string(engineKey('R', i)), make([]byte, 8))
	}
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = engineKey('S', i)
		disk.PutRaw(string(keys[i]), statePayload(i))
	}
	c := NewTiered(mem, disk)
	t.Cleanup(func() { c.Close() })
	return c, mem, keys
}

func statePayload(i int) []byte { return binary.LittleEndian.AppendUint64(nil, uint64(i)) }

// passes looks every key up n times in order, checking each payload.
func passes(t *testing.T, c *Tiered, keys [][]byte, n int) {
	t.Helper()
	var dst []byte
	for range n {
		for i, k := range keys {
			if got, ok := c.GetState(k, &dst); !ok || !slices.Equal(got, statePayload(i)) {
				t.Fatalf("GetState(%d) = %v, %v", i, got, ok)
			}
		}
	}
}

// A hot set smaller than a RAM tier full of other entries is promoted
// on its second disk hit and then served from RAM alone.
func TestTieredAdmitsHotSetOnSecondHit(t *testing.T) {
	c, _, keys := fullTiered(t, 16, 4)
	passes(t, c, keys, 1)
	if st := c.Stats(); st.Promotions != 0 || st.DiskStateHits != 4 {
		t.Fatalf("first pass: %+v, want 4 disk hits and no promotion into a full RAM tier", st)
	}
	passes(t, c, keys, 1)
	if st := c.Stats(); st.Promotions != 4 || st.DiskStateHits != 8 {
		t.Fatalf("second pass: %+v, want each key promoted on its second disk hit", st)
	}
	passes(t, c, keys, 1)
	if st := c.Stats(); st.DiskStateHits != 8 {
		t.Fatalf("third pass made %d disk hits, want 0", st.DiskStateHits-8)
	}
}

// A key cycle longer than the RAM tier is never promoted: it evicts
// nothing and leaves RAM's entries as they were.
func TestTieredDeclinesCycleLargerThanRAM(t *testing.T) {
	c, mem, keys := fullTiered(t, 16, 24)
	resident := slices.Sorted(maps.Keys(mem.items))
	evictions := mem.Stats().Evictions
	passes(t, c, keys, 3)
	if st := c.Stats(); st.Promotions != 0 || st.Evictions != evictions || st.DiskStateHits != 3*24 {
		t.Fatalf("stats = %+v, want 72 disk hits, no promotion and no eviction", st)
	}
	if got := slices.Sorted(maps.Keys(mem.items)); !slices.Equal(got, resident) {
		t.Fatal("a declined cycle changed RAM's entries")
	}
}

// A payload read into the caller's buffer is never RAM's copy: an
// unpromoted hit lands in dst, a promoted one does not, and scribbling
// over dst after either leaves what RAM serves intact.
func TestOwnedReadNeverAliasesRAM(t *testing.T) {
	c, _, keys := fullTiered(t, 16, 1)
	want := statePayload(0)
	dst := make([]byte, 0, 64)
	scribble := func() {
		for i := range cap(dst) {
			dst[:cap(dst)][i] = 0xff
		}
	}
	for hit, wantPromotions := range []uint64{0, 1, 1} {
		got, ok := c.GetState(keys[0], &dst)
		if !ok || !slices.Equal(got, want) {
			t.Fatalf("hit %d = %v, %v; want %v", hit, got, ok, want)
		}
		if st := c.Stats(); st.Promotions != wantPromotions {
			t.Fatalf("hit %d: %d promotions, want %d", hit, st.Promotions, wantPromotions)
		}
		if owned := &got[0] == &dst[:1][0]; owned != (hit == 0) {
			t.Fatalf("hit %d: payload in the caller's buffer = %v", hit, owned)
		}
		scribble()
	}
}

// A covered put into a full RAM-only tier and a counted disk hit into
// the same full RAM tier in front of a disk are one kind of candidate
// to LRU.admit: fed the same key sequence, the two get the same
// decisions, step by step. Each step reads 'H' (RAM held the key, no
// ruling), 'A' (admitted) or 'D' (declined).
func TestTieredPromotionRuledLikeCoveredPut(t *testing.T) {
	span := func(from, to, times int) []int {
		var seq []int
		for range times {
			for k := from; k < to; k++ {
				seq = append(seq, k)
			}
		}
		return seq
	}
	rng := rand.New(rand.NewSource(1))
	skewed := make([]int, 400)
	for i := range skewed {
		skewed[i] = int(rng.ExpFloat64() * 8)
	}
	for _, tc := range []struct {
		name string
		seq  []int
		want string // "" when only the two sides' agreement is checked
	}{
		{"hot set", span(0, 4, 3), "DDDDAAAAHHHH"},
		{"cycle larger than RAM", span(0, 24, 2), strings.Repeat("D", 48)},
		// A key pushed out of RAM by two hot sets admitted after it is
		// declined once more before it comes back.
		{"evicted key recurs again", slices.Concat([]int{0, 0}, span(1, 9, 2), span(9, 17, 2), []int{0, 0}),
			"DA" + strings.Repeat(strings.Repeat("D", 8)+strings.Repeat("A", 8), 2) + "DA"},
		{"skewed", skewed, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const resident = 16
			fill := func() *LRU {
				mem := New(resident * (entryOverhead + 49 + 8))
				for i := 0; mem.Stats().Evictions == 0; i++ {
					mem.PutRaw(string(engineKey('R', i)), make([]byte, 8))
				}
				return mem
			}
			memPut, memHit := fill(), fill()
			puts := NewTiered(memPut, nil)
			disk, err := OpenDisk(t.TempDir(), 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			hits := NewTiered(memHit, disk)
			defer hits.Close()
			for _, k := range tc.seq {
				disk.put(string(engineKey('T', k)), tbl(float64(k)))
			}
			step := func(ruled, admitted bool) byte {
				switch {
				case !ruled:
					return 'H'
				case admitted:
					return 'A'
				}
				return 'D'
			}
			var byPut, byHit []byte
			for _, k := range tc.seq {
				key := engineKey('T', k)
				before := memPut.Stats()
				_, _, outcome := puts.DoCovered(key, 0, func() (*table.Table, bool) { return tbl(float64(k)), true })
				byPut = append(byPut, step(outcome != Hit, memPut.Stats().Puts > before.Puts))
				hb := hits.Stats()
				got, _, outcome := hits.Do(key, 0, mustNotCompute(t))
				if outcome != Hit || got.At(0, 0).Num() != float64(k) {
					t.Fatalf("Do(%d) = %v, %v; want the disk tier's table", k, got, outcome)
				}
				ha := hits.Stats()
				byHit = append(byHit, step(ha.DiskHits > hb.DiskHits, ha.Promotions > hb.Promotions))
			}
			if string(byPut) != string(byHit) {
				t.Fatalf("decisions differ:\ncovered puts %s\ndisk hits    %s", byPut, byHit)
			}
			if tc.want != "" && string(byHit) != tc.want {
				t.Fatalf("decisions %s, want %s", byHit, tc.want)
			}
			if sp, sh := memPut.Stats(), memHit.Stats(); sp.Entries != sh.Entries || sp.Evictions != sh.Evictions || sp.Bytes != sh.Bytes {
				t.Fatalf("RAM after covered puts %+v, after disk hits %+v", sp, sh)
			}
			if sh := memHit.Stats(); sh.Declined != 0 {
				t.Fatalf("declined promotions counted in Declined: %+v", sh)
			}
		})
	}
}

// Concurrent counted hits on a few disk keys through a full RAM tier
// promote and evict all the time. Every caller reads the stored bytes,
// scribbling over its own buffer after each lookup; RAM's entries never
// alias a caller's buffer; and Promotions counts exactly the entries
// the promotions inserted, since nothing else stores into RAM meanwhile.
// Run under -race.
func TestTieredConcurrentPromotionsOwnTheirCopies(t *testing.T) {
	c, mem, keys := fullTiered(t, 4, 6)
	before := mem.Stats()
	const callers, rounds = 8, 400
	bufs := make([][]byte, callers)
	var wg sync.WaitGroup
	for g := range callers {
		bufs[g] = make([]byte, 0, 64)
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := bufs[g]
			for r := range rounds {
				i := (g*5 + r*r) % len(keys)
				if got, ok := c.GetState(keys[i], &dst); !ok || !slices.Equal(got, statePayload(i)) {
					t.Errorf("caller %d: GetState(%d) = %v, %v", g, i, got, ok)
					return
				}
				for j := range cap(dst) {
					dst[:cap(dst)][j] = 0xff
				}
			}
		}()
	}
	wg.Wait()
	st, after := c.Stats(), mem.Stats()
	inserted := after.Entries - before.Entries + int(after.Evictions-before.Evictions)
	if st.Promotions != uint64(inserted) || st.Promotions == 0 || st.Promotions >= st.DiskStateHits {
		t.Fatalf("%d promotions inserted %d entries over %d disk hits; want them equal, with some hits declined",
			st.Promotions, inserted, st.DiskStateHits)
	}
	mem.mu.Lock()
	defer mem.mu.Unlock()
	for _, e := range mem.items {
		for g, b := range bufs {
			if shareBytes(e.raw, b[:cap(b)]) {
				t.Fatalf("RAM's entry %x aliases caller %d's buffer", e.key, g)
			}
		}
	}
}

// shareBytes reports whether a and b share any byte.
func shareBytes(a, b []byte) bool {
	for i := range a {
		for j := range b {
			if &a[i] == &b[j] {
				return true
			}
		}
	}
	return false
}

func TestTieredWriteThroughSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	disk, err := OpenDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	c := NewTiered(New(1<<20), disk)
	want := mixedTbl(7)
	c.put("k", want, false)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	disk2, err := OpenDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewTiered(New(1<<20), disk2)
	defer c2.Close()
	got, ok := c2.get("k")
	if !ok || got.String() != want.String() {
		t.Fatalf("entry lost across restart: ok=%v", ok)
	}
}

func TestDiskConcurrentAccess(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k%d", (g+i)%10)
				if got, ok := d.get(key); ok {
					if got.Len() != (g+i)%10+1 {
						// Another goroutine may have overwritten with
						// its own size; sizes are 1..10 so any stored
						// value must be in range.
						if got.Len() < 1 || got.Len() > 10 {
							t.Errorf("key %s: bogus table len %d", key, got.Len())
						}
					}
				} else {
					d.put(key, mixedTbl((g+i)%10+1))
				}
			}
		}(g)
	}
	wg.Wait()
}

// Concurrent state puts and lookups through a small RAM tier and a disk
// tier that seals several segments: the mirror is handed from segment
// to segment, hits are promoted or declined, and every hit still reads
// the bytes its key was stored with. Run under -race.
func TestTieredConcurrentStatesAcrossSeals(t *testing.T) {
	disk, err := OpenDisk(t.TempDir(), 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	c := NewTiered(New(256<<10), disk)
	defer c.Close()
	payload := func(k int) []byte { return bytes.Repeat([]byte{byte(k)}, 64<<10) }
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var dst []byte
			for n := 0; n < 150; n++ {
				k := (g*7 + n) % 16
				key := engineKey('S', k)
				if n%3 == 0 {
					c.PutState(key, payload(k))
				} else if got, ok := c.GetState(key, &dst); ok && !bytes.Equal(got, payload(k)) {
					t.Errorf("key %d read another key's bytes", k)
				}
			}
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.DiskSegments < 2 || st.Promotions == 0 || st.DiskStateHits <= st.Promotions {
		t.Fatalf("stats = %+v, want several segments and both promoted and declined disk hits", st)
	}
}

// FuzzCacheSegmentDecode hardens the segment scanner against arbitrary
// on-disk bytes: OpenDisk over any file content must never panic and
// every entry it indexes must decode.
func FuzzCacheSegmentDecode(f *testing.F) {
	// Seed with a valid segment containing two entries.
	dir := f.TempDir()
	d, err := OpenDisk(dir, 1<<20)
	if err != nil {
		f.Fatal(err)
	}
	d.put("seed-a", mixedTbl(3))
	d.put("seed-b", mixedTbl(1))
	d.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.pvc"))
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add([]byte{})
	f.Add(raw[:len(raw)/2])
	// A header that promises an absurd payload length.
	var lie []byte
	lie = binary.LittleEndian.AppendUint32(lie, segMagic)
	lie = binary.LittleEndian.AppendUint32(lie, 1)
	lie = binary.LittleEndian.AppendUint32(lie, ^uint32(0))
	f.Add(append(lie, 'k'))
	// A CRC-valid frame whose payload is not a valid table encoding.
	var bad []byte
	bad = binary.LittleEndian.AppendUint32(bad, segMagic)
	bad = binary.LittleEndian.AppendUint32(bad, 1)
	bad = binary.LittleEndian.AppendUint32(bad, 3)
	bad = append(bad, 'k', 0xde, 0xad, 0xbf)
	sum := crc32.ChecksumIEEE(bad[4:segHeaderBytes])
	sum = crc32.Update(sum, crc32.IEEETable, bad[segHeaderBytes:])
	bad = binary.LittleEndian.AppendUint32(bad, sum)
	f.Add(bad)
	// A segment holding a block ingested from ragged, mistyped executable
	// rows, which FromRows conforms (defaults, dropped cells, coercion).
	ragged := f.TempDir()
	if d, err = OpenDisk(ragged, 1<<20); err != nil {
		f.Fatal(err)
	}
	d.put("seed-ragged", table.FromRows(mixedTbl(0).Schema, []table.Row{
		{}, {table.N(7)}, {table.N(1), table.S("2.5"), table.S("extra")}, {table.S("P"), table.S("junk")},
	}))
	d.Close()
	if segs, _ = filepath.Glob(filepath.Join(ragged, "seg-*.pvc")); len(segs) != 1 {
		f.Fatalf("ragged seed: %d segments", len(segs))
	}
	if raw, err = os.ReadFile(segs[0]); err != nil {
		f.Fatal(err)
	}
	f.Add(raw)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-000000000000.pvc"), data, 0o644); err != nil {
			t.Skip()
		}
		d, err := OpenDisk(dir, 1<<20)
		if err != nil {
			return // I/O-level errors are fine; panics are not
		}
		defer d.Close()
		// Every key the scan indexed must be readable without panic
		// (Get treats undecodable payloads as misses).
		d.mu.Lock()
		keys := make([]string, 0, len(d.index))
		for k := range d.index {
			keys = append(keys, k)
		}
		d.mu.Unlock()
		for _, k := range keys {
			d.get(k)
		}
		// And the store must still accept appends.
		d.put("post", mixedTbl(1))
		if _, ok := d.get("post"); !ok {
			t.Fatal("store rejected append after scan")
		}
	})
}

// fakePPS1 builds a plausible partial-state payload (the rel codec's
// magic plus arbitrary body bytes) without importing internal/rel: the
// disk tier treats raw payloads as opaque, so only the framing — not
// the codec — is under test here.
func fakePPS1(n int) []byte {
	b := append([]byte(nil), 'P', 'P', 'S', '1')
	for i := 0; i < n; i++ {
		b = append(b, byte(i*7+1))
	}
	return b
}

// TestDiskCorruptRawFrameRecovery interleaves table frames (Put) with
// raw partial-state frames (PutRaw) in one segment, flips a byte
// inside one of the raw frames' payloads, and reopens: the valid
// prefix of BOTH kinds must survive, everything at and after the
// corrupt frame must be dropped, the file must be truncated to the
// last good boundary, and the reopened cache must accept new entries
// that survive a further reopen. This pins the recovery contract for
// the partial-state tier, whose PPS1 payloads share segments with
// encoded tables.
func TestDiskCorruptRawFrameRecovery(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave: table, raw, table, raw, table.
	d.put("tbl1", mixedTbl(4))
	d.PutRaw("ps:one", fakePPS1(40))
	d.put("tbl2", mixedTbl(3))
	d.PutRaw("ps:two", fakePPS1(60))
	d.put("tbl3", mixedTbl(2))
	d.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.pvc"))
	if len(segs) != 1 {
		t.Fatalf("segments = %d, want 1", len(segs))
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Walk the frames to the fourth one (ps:two) and corrupt a byte in
	// the middle of its payload.
	off := 0
	for i := 0; i < 3; i++ {
		kLen := binary.LittleEndian.Uint32(raw[off+4 : off+8])
		pLen := binary.LittleEndian.Uint32(raw[off+8 : off+12])
		off += segHeaderBytes + int(kLen) + int(pLen) + segTrailer
	}
	kLen := binary.LittleEndian.Uint32(raw[off+4 : off+8])
	if got := string(raw[off+segHeaderBytes : off+segHeaderBytes+int(kLen)]); got != "ps:two" {
		t.Fatalf("frame walk landed on %q, want ps:two", got)
	}
	raw[off+segHeaderBytes+int(kLen)+20] ^= 0xa5
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDisk(dir, 1<<20)
	if err != nil {
		t.Fatalf("reopen after raw-frame corruption: %v", err)
	}
	// The valid prefix survives, both kinds.
	if _, ok := d2.get("tbl1"); !ok {
		t.Fatal("tbl1 (before corruption) lost")
	}
	if got, ok := d2.getRaw("ps:one"); !ok || string(got) != string(fakePPS1(40)) {
		t.Fatalf("ps:one (before corruption) lost or mutated (ok=%v)", ok)
	}
	if _, ok := d2.get("tbl2"); !ok {
		t.Fatal("tbl2 (before corruption) lost")
	}
	// The corrupt raw frame and everything after it are gone.
	if _, ok := d2.getRaw("ps:two"); ok {
		t.Fatal("corrupt ps:two must not be served")
	}
	if _, ok := d2.get("tbl3"); ok {
		t.Fatal("tbl3 (after corruption) must have been dropped with the scan")
	}
	// New writes land on a clean boundary and survive another reopen.
	d2.put("tbl4", mixedTbl(5))
	d2.PutRaw("ps:three", fakePPS1(10))
	d2.Close()
	d3, err := OpenDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	for _, k := range []string{"tbl1", "tbl2", "tbl4"} {
		if _, ok := d3.get(k); !ok {
			t.Fatalf("%s lost after post-corruption append", k)
		}
	}
	if got, ok := d3.getRaw("ps:three"); !ok || string(got) != string(fakePPS1(10)) {
		t.Fatal("ps:three lost after post-corruption append")
	}
}
