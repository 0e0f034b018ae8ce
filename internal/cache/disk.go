package cache

// Tier-2 chunk cache: an append-only segment store on disk. Entries
// are framed as
//
//	magic (4B) | keyLen u32 | payLen u32 | key | payload | crc32 (4B)
//
// all little-endian, where payload is table.EncodeBinary and the CRC
// (IEEE) covers keyLen|payLen|key|payload. Writes go to one active
// segment file; at segmentTarget bytes the segment is sealed (synced,
// reopened read-only and mmap'd where the platform supports it) and a
// new active segment starts. When the total size exceeds the
// configured bound, whole oldest segments are deleted — eviction is
// coarse but requires no compaction, and a deleted entry simply
// becomes a future sandbox re-execution.
//
// Crash safety: a torn final frame (partial write at crash) fails its
// length or CRC check on reopen; the scan stops at the first bad frame
// and the file is truncated to the last good entry, so one torn write
// never hides earlier valid entries. Corruption in the middle of a
// sealed segment skips that segment's remaining frames the same way.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"privid/internal/table"
)

const (
	segMagic       = 0x50564332 // "PVC2"
	segHeaderBytes = 12         // magic + keyLen + payLen
	segTrailer     = 4          // crc32
	// segmentTarget is the sealing threshold for the active segment.
	segmentTarget = 8 << 20
	// maxFrameBytes bounds one entry (key+payload); larger entries are
	// not stored rather than creating unbounded segments.
	maxFrameBytes = 64 << 20
)

// diskEntry locates one live entry inside a segment.
type diskEntry struct {
	seg  int64 // segment id
	off  int64 // offset of the frame start
	kLen uint32
	pLen uint32
}

// segment is one on-disk file, either active (being appended) or
// sealed (read-only, possibly mmap'd).
type segment struct {
	id   int64
	path string
	size int64
	f    *os.File // nil once sealed and mmap'd successfully
	mm   []byte   // non-nil when mmap'd
	live int      // live (non-superseded) entries; 0 allows deletion
}

// Disk is the tier-2 cache. It is safe for concurrent use.
type Disk struct {
	mu       sync.Mutex
	dir      string
	maxBytes int64
	index    map[string]*diskEntry
	segs     map[int64]*segment
	order    []int64 // segment ids, oldest first; last is active
	bytes    int64
	nextID   int64

	hits, misses, puts, evictions     uint64
	stateHits, stateMisses, statePuts uint64
}

// readBufPool recycles segment read buffers. The disk tier's warm path
// is otherwise dominated by one payload-sized allocation per lookup;
// pooling it makes a warm Get's allocations proportional to the decoded
// table, not the decoded table plus its encoded form. Buffers larger
// than maxPooledReadBuf are dropped instead of pooled so one giant
// entry cannot pin memory indefinitely.
var readBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

const maxPooledReadBuf = 4 << 20

func getReadBuf(n int) *[]byte {
	bp := readBufPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

func putReadBuf(bp *[]byte) {
	if cap(*bp) > maxPooledReadBuf {
		return
	}
	readBufPool.Put(bp)
}

// OpenDisk opens (or creates) a disk cache in dir bounded at maxBytes.
// Existing segments are scanned to rebuild the key index; torn or
// corrupt frames are skipped, never fatal.
func OpenDisk(dir string, maxBytes int64) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: disk tier: %w", err)
	}
	d := &Disk{
		dir:      dir,
		maxBytes: maxBytes,
		index:    map[string]*diskEntry{},
		segs:     map[int64]*segment{},
	}
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.pvc"))
	if err != nil {
		return nil, fmt.Errorf("cache: disk tier: %w", err)
	}
	var ids []int64
	for _, name := range names {
		base := strings.TrimSuffix(filepath.Base(name), ".pvc")
		id, err := strconv.ParseInt(strings.TrimPrefix(base, "seg-"), 10, 64)
		if err != nil {
			continue // not ours
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if err := d.loadSegment(id); err != nil {
			return nil, err
		}
		if id >= d.nextID {
			d.nextID = id + 1
		}
	}
	// The newest segment stays active (append target) if it is under
	// the sealing threshold; everything older is sealed.
	for i, id := range d.order {
		if i < len(d.order)-1 || d.segs[id].size >= segmentTarget {
			d.seal(d.segs[id])
		}
	}
	return d, nil
}

func (d *Disk) segPath(id int64) string {
	return filepath.Join(d.dir, fmt.Sprintf("seg-%012d.pvc", id))
}

// loadSegment scans one segment file, indexing every valid frame and
// truncating the file after the last one.
func (d *Disk) loadSegment(id int64) error {
	path := d.segPath(id)
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("cache: disk tier: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("cache: disk tier: %w", err)
	}
	seg := &segment{id: id, path: path, f: f}
	size := fi.Size()
	var off int64
	head := make([]byte, segHeaderBytes)
	for off+segHeaderBytes+segTrailer <= size {
		if _, err := f.ReadAt(head, off); err != nil {
			break
		}
		if binary.LittleEndian.Uint32(head[0:4]) != segMagic {
			break
		}
		kLen := binary.LittleEndian.Uint32(head[4:8])
		pLen := binary.LittleEndian.Uint32(head[8:12])
		if int64(kLen)+int64(pLen) > maxFrameBytes {
			break
		}
		frameEnd := off + segHeaderBytes + int64(kLen) + int64(pLen) + segTrailer
		if frameEnd > size {
			break // torn final frame
		}
		body := make([]byte, int(kLen)+int(pLen)+segTrailer)
		if _, err := f.ReadAt(body, off+segHeaderBytes); err != nil {
			break
		}
		sum := crc32.ChecksumIEEE(head[4:12])
		sum = crc32.Update(sum, crc32.IEEETable, body[:kLen+pLen])
		if sum != binary.LittleEndian.Uint32(body[kLen+pLen:]) {
			break // corrupt frame: stop scanning this segment
		}
		key := string(body[:kLen])
		if old, ok := d.index[key]; ok {
			// The superseded copy may live in this same (not yet
			// registered) segment or an older one.
			if old.seg == id {
				seg.live--
			} else if oseg, ok := d.segs[old.seg]; ok {
				oseg.live--
			}
		}
		d.index[key] = &diskEntry{seg: id, off: off, kLen: kLen, pLen: pLen}
		seg.live++
		off = frameEnd
	}
	if off < size {
		// Drop everything after the last valid frame so the next
		// append starts on a clean boundary.
		if err := f.Truncate(off); err != nil {
			f.Close()
			return fmt.Errorf("cache: disk tier: %w", err)
		}
	}
	seg.size = off
	d.segs[id] = seg
	d.order = append(d.order, id)
	d.bytes += off
	return nil
}

// seal makes a segment read-only and maps it into memory where the
// platform supports it. Caller holds d.mu (or is in OpenDisk).
func (d *Disk) seal(seg *segment) {
	if seg.f != nil {
		seg.f.Sync()
	}
	if seg.size > 0 && seg.f != nil {
		if mm, err := mmapFile(seg.f, seg.size); err == nil {
			seg.mm = mm
			seg.f.Close()
			seg.f = nil
		}
	}
}

// active returns the segment new frames are appended to, creating or
// rotating as needed. Caller holds d.mu.
func (d *Disk) active() (*segment, error) {
	if len(d.order) > 0 {
		seg := d.segs[d.order[len(d.order)-1]]
		if seg.mm == nil && seg.f != nil && seg.size < segmentTarget {
			return seg, nil
		}
	}
	id := d.nextID
	d.nextID++
	f, err := os.OpenFile(d.segPath(id), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	seg := &segment{id: id, path: d.segPath(id), f: f}
	d.segs[id] = seg
	d.order = append(d.order, id)
	return seg, nil
}

// readFrame returns the payload bytes of one indexed entry in a pooled
// buffer. The caller must hand the second return back to putReadBuf
// once it no longer references the payload (table.DecodeBinary copies
// everything out, so decoding then releasing is safe). Caller holds
// d.mu.
func (d *Disk) readFrame(e *diskEntry) ([]byte, *[]byte, bool) {
	seg, ok := d.segs[e.seg]
	if !ok {
		return nil, nil, false
	}
	start := e.off + segHeaderBytes + int64(e.kLen)
	end := start + int64(e.pLen)
	if seg.mm != nil {
		if end > int64(len(seg.mm)) {
			return nil, nil, false
		}
		// Copy out of the mapping so a later munmap cannot invalidate
		// the payload while the caller still holds it.
		bp := getReadBuf(int(e.pLen))
		copy(*bp, seg.mm[start:end])
		return *bp, bp, true
	}
	if seg.f == nil {
		return nil, nil, false
	}
	bp := getReadBuf(int(e.pLen))
	if _, err := seg.f.ReadAt(*bp, start); err != nil {
		putReadBuf(bp)
		return nil, nil, false
	}
	return *bp, bp, true
}

// Get decodes and returns the table stored under key. The returned
// table is frozen.
func (d *Disk) Get(key string) (*table.Table, bool) {
	d.mu.Lock()
	e, ok := d.index[key]
	var payload []byte
	var bp *[]byte
	if ok {
		payload, bp, ok = d.readFrame(e)
	}
	if !ok {
		d.misses++
		d.mu.Unlock()
		return nil, false
	}
	d.hits++
	d.mu.Unlock()
	// Decode outside the lock: it allocates proportionally to the
	// entry and must not serialize other lookups. DecodeBinary copies
	// everything out of the payload, so the read buffer goes back to
	// the pool immediately after.
	t, err := table.DecodeBinary(payload)
	putReadBuf(bp)
	if err != nil {
		// Bit rot after indexing; treat as a miss.
		d.mu.Lock()
		if cur, ok := d.index[key]; ok && cur == e {
			delete(d.index, key)
			if seg, ok := d.segs[e.seg]; ok {
				seg.live--
			}
		}
		d.hits--
		d.misses++
		d.mu.Unlock()
		return nil, false
	}
	return t.Freeze(), true
}

// peek returns the stored table without touching the hit/miss
// counters. Unlike Get it leaves a corrupt frame in the index (the
// next Get will collect it).
func (d *Disk) peek(key string) (*table.Table, bool) {
	d.mu.Lock()
	e, ok := d.index[key]
	var payload []byte
	var bp *[]byte
	if ok {
		payload, bp, ok = d.readFrame(e)
	}
	d.mu.Unlock()
	if !ok {
		return nil, false
	}
	t, err := table.DecodeBinary(payload)
	putReadBuf(bp)
	if err != nil {
		return nil, false
	}
	return t.Freeze(), true
}

// GetRaw returns the raw partial-state payload stored under key. The
// returned slice is a private copy.
func (d *Disk) GetRaw(key string) ([]byte, bool) {
	d.mu.Lock()
	e, ok := d.index[key]
	var payload []byte
	var bp *[]byte
	if ok {
		payload, bp, ok = d.readFrame(e)
	}
	if !ok {
		d.stateMisses++
		d.mu.Unlock()
		return nil, false
	}
	d.stateHits++
	d.mu.Unlock()
	out := append([]byte(nil), payload...)
	putReadBuf(bp)
	return out, true
}

// Put appends the table under key. Oversized entries and encode-free
// zero-bound stores are dropped silently; a failed write leaves the
// previous value (if any) intact.
func (d *Disk) Put(key string, t *table.Table) {
	t.Freeze()
	d.putFrame(key, t.EncodeBinary(), &d.puts)
}

// PutRaw appends a raw partial-state payload under key. Raw entries
// share the segment format with table entries — the payload kind is
// implied by the key namespace, so restart recovery needs no schema.
func (d *Disk) PutRaw(key string, raw []byte) {
	d.putFrame(key, raw, &d.statePuts)
}

// putFrame appends one framed entry; counter (guarded by d.mu) is
// bumped on a successful store.
func (d *Disk) putFrame(key string, payload []byte, counter *uint64) {
	if int64(len(key))+int64(len(payload)) > maxFrameBytes {
		return
	}
	frame := make([]byte, 0, segHeaderBytes+len(key)+len(payload)+segTrailer)
	frame = binary.LittleEndian.AppendUint32(frame, segMagic)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(key)))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = append(frame, key...)
	frame = append(frame, payload...)
	sum := crc32.ChecksumIEEE(frame[4:segHeaderBytes])
	sum = crc32.Update(sum, crc32.IEEETable, frame[segHeaderBytes:])
	frame = binary.LittleEndian.AppendUint32(frame, sum)
	if int64(len(frame)) > d.maxBytes {
		return
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	seg, err := d.active()
	if err != nil {
		return
	}
	off := seg.size
	if _, err := seg.f.WriteAt(frame, off); err != nil {
		// Leave size unchanged: the torn frame (if any) sits past the
		// logical end and is truncated away on next open.
		return
	}
	seg.size += int64(len(frame))
	d.bytes += int64(len(frame))
	*counter++
	if old, ok := d.index[key]; ok {
		if oseg, ok := d.segs[old.seg]; ok {
			oseg.live--
		}
	}
	d.index[key] = &diskEntry{seg: seg.id, off: off, kLen: uint32(len(key)), pLen: uint32(len(payload))}
	seg.live++
	if seg.size >= segmentTarget {
		d.seal(seg)
	}
	for d.bytes > d.maxBytes && len(d.order) > 1 {
		d.evictOldestSegment()
	}
}

// evictOldestSegment deletes the oldest segment and its index entries.
// Caller holds d.mu; the active (newest) segment is never evicted.
func (d *Disk) evictOldestSegment() {
	id := d.order[0]
	d.order = d.order[1:]
	seg := d.segs[id]
	delete(d.segs, id)
	for key, e := range d.index {
		if e.seg == id {
			delete(d.index, key)
		}
	}
	if seg.mm != nil {
		munmapFile(seg.mm)
		seg.mm = nil
	}
	if seg.f != nil {
		seg.f.Close()
		seg.f = nil
	}
	os.Remove(seg.path)
	d.bytes -= seg.size
	d.evictions++
}

// Len returns the number of live keys.
func (d *Disk) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.index)
}

// Sync flushes the active segment to stable storage.
func (d *Disk) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.order) == 0 {
		return nil
	}
	seg := d.segs[d.order[len(d.order)-1]]
	if seg.f != nil {
		return seg.f.Sync()
	}
	return nil
}

// Close syncs and releases every segment. The cache must not be used
// afterwards.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var first error
	for _, id := range d.order {
		seg := d.segs[id]
		if seg.mm != nil {
			if err := munmapFile(seg.mm); err != nil && first == nil {
				first = err
			}
			seg.mm = nil
		}
		if seg.f != nil {
			if err := seg.f.Sync(); err != nil && first == nil {
				first = err
			}
			if err := seg.f.Close(); err != nil && first == nil {
				first = err
			}
			seg.f = nil
		}
	}
	d.index = map[string]*diskEntry{}
	return first
}

// Stats reports the disk tier's counters in the Disk* fields.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Stats{
		DiskHits:        d.hits,
		DiskMisses:      d.misses,
		DiskPuts:        d.puts,
		DiskEvictions:   d.evictions,
		DiskBytes:       d.bytes,
		DiskMaxBytes:    d.maxBytes,
		DiskSegments:    len(d.order),
		Entries:         len(d.index),
		StateHits:       d.stateHits,
		StateMisses:     d.stateMisses,
		StatePuts:       d.statePuts,
		DiskStateHits:   d.stateHits,
		DiskStateMisses: d.stateMisses,
		DiskStatePuts:   d.statePuts,
	}
}
