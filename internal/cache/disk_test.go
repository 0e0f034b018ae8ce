package cache

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
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

func TestDiskRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	want := mixedTbl(10)
	d.Put("k1", want)
	d.Put("k2", mixedTbl(3))
	if got, ok := d.Get("k1"); !ok || got.String() != want.String() {
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
	got, ok := d2.Get("k1")
	if !ok {
		t.Fatal("k1 lost across reopen")
	}
	if got.String() != want.String() {
		t.Fatalf("k1 corrupted across reopen:\n%s\nvs\n%s", got.String(), want.String())
	}
	if !got.Frozen() {
		t.Fatal("disk Get must return a frozen table")
	}
	if d2.Len() != 2 {
		t.Fatalf("len = %d, want 2", d2.Len())
	}
}

func TestDiskOverwriteLatestWins(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	d.Put("k", mixedTbl(1))
	want := mixedTbl(5)
	d.Put("k", want)
	d.Close()

	d2, err := OpenDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got, ok := d2.Get("k")
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
	d.Put("good1", mixedTbl(4))
	d.Put("good2", mixedTbl(2))
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
	if _, ok := d2.Get("good1"); !ok {
		t.Fatal("good1 lost to a later torn write")
	}
	if _, ok := d2.Get("good2"); !ok {
		t.Fatal("good2 lost to a later torn write")
	}
	if _, ok := d2.Get("torn"); ok {
		t.Fatal("torn frame must not be indexed")
	}
	// The file must have been truncated back to a clean boundary so
	// new appends survive the next reopen.
	d2.Put("after", mixedTbl(1))
	d2.Close()
	d3, err := OpenDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	for _, k := range []string{"good1", "good2", "after"} {
		if _, ok := d3.Get(k); !ok {
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
	d.Put("a", mixedTbl(4))
	d.Put("b", mixedTbl(4))
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
	if _, ok := d2.Get("a"); !ok {
		t.Fatal("entry before the corruption must survive")
	}
	if _, ok := d2.Get("b"); ok {
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
		d.Put(fmt.Sprintf("k%02d", i), big)
	}
	st := d.Stats()
	if st.DiskEvictions == 0 {
		t.Fatalf("no segment evictions at %d bytes over a %d bound", st.DiskBytes, st.DiskMaxBytes)
	}
	// The newest entry is always retained.
	if _, ok := d.Get("k39"); !ok {
		t.Fatal("newest entry evicted")
	}
	if st.DiskBytes > st.DiskMaxBytes+segmentTarget {
		t.Fatalf("disk bytes %d far exceeds bound %d", st.DiskBytes, st.DiskMaxBytes)
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

	c.put("k", mixedTbl(5))
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

	c.put("k", mixedTbl(3))
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
	if mem.Len() != 1 {
		t.Fatalf("RAM tier holds %d entries after promotion, want 1", mem.Len())
	}
}

func TestTieredWriteThroughSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	disk, err := OpenDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	c := NewTiered(New(1<<20), disk)
	want := mixedTbl(7)
	c.put("k", want)
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
				if got, ok := d.Get(key); ok {
					if got.Len() != (g+i)%10+1 {
						// Another goroutine may have overwritten with
						// its own size; sizes are 1..10 so any stored
						// value must be in range.
						if got.Len() < 1 || got.Len() > 10 {
							t.Errorf("key %s: bogus table len %d", key, got.Len())
						}
					}
				} else {
					d.Put(key, mixedTbl((g+i)%10+1))
				}
			}
		}(g)
	}
	wg.Wait()
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
	d.Put("seed-a", mixedTbl(3))
	d.Put("seed-b", mixedTbl(1))
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
			d.Get(k)
		}
		// And the store must still accept appends.
		d.Put("post", mixedTbl(1))
		if _, ok := d.Get("post"); !ok {
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
	d.Put("tbl1", mixedTbl(4))
	d.PutRaw("ps:one", fakePPS1(40))
	d.Put("tbl2", mixedTbl(3))
	d.PutRaw("ps:two", fakePPS1(60))
	d.Put("tbl3", mixedTbl(2))
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
	if _, ok := d2.Get("tbl1"); !ok {
		t.Fatal("tbl1 (before corruption) lost")
	}
	if got, ok := d2.GetRaw("ps:one"); !ok || string(got) != string(fakePPS1(40)) {
		t.Fatalf("ps:one (before corruption) lost or mutated (ok=%v)", ok)
	}
	if _, ok := d2.Get("tbl2"); !ok {
		t.Fatal("tbl2 (before corruption) lost")
	}
	// The corrupt raw frame and everything after it are gone.
	if _, ok := d2.GetRaw("ps:two"); ok {
		t.Fatal("corrupt ps:two must not be served")
	}
	if _, ok := d2.Get("tbl3"); ok {
		t.Fatal("tbl3 (after corruption) must have been dropped with the scan")
	}
	// New writes land on a clean boundary and survive another reopen.
	d2.Put("tbl4", mixedTbl(5))
	d2.PutRaw("ps:three", fakePPS1(10))
	d2.Close()
	d3, err := OpenDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	for _, k := range []string{"tbl1", "tbl2", "tbl4"} {
		if _, ok := d3.Get(k); !ok {
			t.Fatalf("%s lost after post-corruption append", k)
		}
	}
	if got, ok := d3.GetRaw("ps:three"); !ok || string(got) != string(fakePPS1(10)) {
		t.Fatal("ps:three lost after post-corruption append")
	}
}
