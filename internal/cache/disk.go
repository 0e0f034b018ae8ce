package cache

// Tier-2 chunk cache: an append-only segment store on disk. Entries
// are framed as
//
//	magic (4B) | keyLen u32 | payLen u32 | key | payload | crc32 (4B)
//
// all little-endian, where payload is table.EncodeBinary and the CRC
// (IEEE) covers keyLen|payLen|key|payload. Writes go to one active
// segment file, whose bytes are mirrored in memory; at segmentTarget
// bytes the segment is sealed (synced and mmap'd where the platform
// supports it), its mirror buffer is handed to the next active segment,
// and reads copy from the mirror or the mapping, so no lookup makes a
// syscall under the lock. When the total size exceeds the
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
	"slices"
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

// diskEntry locates one live entry inside a segment, which it holds
// itself, so a read looks nothing up but the entry. key is the index's
// own key string, which a disk→RAM promotion hands to the RAM tier, so
// a promotion makes no key string. It does not change after indexing.
type diskEntry struct {
	seg  *segment
	off  int64 // offset of the frame start
	key  string
	pLen uint32
}

// segment is one on-disk file, either active (being appended) or
// sealed (read-only, possibly mmap'd).
type segment struct {
	path string
	size int64
	f    *os.File // nil once sealed and mmap'd successfully
	mm   []byte   // non-nil when mmap'd
	mem  []byte   // the active segment's bytes; nil once sealed
}

// Disk is the tier-2 cache. It is safe for concurrent use. Its mirror
// of the active segment costs at most one segment of RAM.
type Disk struct {
	mu       sync.Mutex
	dir      string
	maxBytes int64
	index    map[string]*diskEntry
	segs     []*segment // oldest first; the last is active
	bytes    int64
	nextID   int64
	spare    []byte // the mirror buffer between a seal and the next segment

	hits, misses, puts, evictions     uint64
	stateHits, stateMisses, statePuts uint64
}

// readBufPool recycles the buffers table payloads are decoded from. The
// disk tier's warm table path is otherwise dominated by one
// payload-sized allocation per lookup; pooling it makes a warm Get's
// allocations proportional to the decoded table, not the decoded table
// plus its encoded form. Buffers larger than maxPooledReadBuf are
// dropped instead of pooled so one giant entry cannot pin memory
// indefinitely.
var readBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

const maxPooledReadBuf = 4 << 20

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
	// Every segment but the newest is sealed once the next is loaded;
	// the newest stays active (append target, its bytes the mirror) if
	// it is under the sealing threshold.
	for _, id := range ids {
		if n := len(d.segs); n > 0 {
			d.seal(d.segs[n-1])
		}
		if err := d.loadSegment(id); err != nil {
			return nil, err
		}
		d.nextID = max(d.nextID, id+1)
	}
	if n := len(d.segs); n > 0 && d.segs[n-1].size >= segmentTarget {
		d.seal(d.segs[n-1])
	}
	return d, nil
}

func (d *Disk) segPath(id int64) string {
	return filepath.Join(d.dir, fmt.Sprintf("seg-%012d.pvc", id))
}

// loadSegment reads one segment file into the spare buffer, indexes
// every valid frame, truncates the file after the last one and keeps
// the bytes as the segment's mirror until it is sealed.
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
	buf := slices.Grow(d.spare[:0], int(fi.Size()))[:fi.Size()]
	d.spare = nil
	n, _ := f.ReadAt(buf, 0) // a short read ends the scan where the bytes do, like a torn tail
	buf = buf[:n]
	seg := &segment{path: path, f: f}
	size := int64(n)
	var off int64
	for off+segHeaderBytes+segTrailer <= size {
		head := buf[off:]
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
		if crc32.ChecksumIEEE(buf[off+4:frameEnd-segTrailer]) != binary.LittleEndian.Uint32(buf[frameEnd-segTrailer:]) {
			break // corrupt frame: stop scanning this segment
		}
		key := string(head[segHeaderBytes : segHeaderBytes+kLen])
		d.index[key] = &diskEntry{seg: seg, off: off, key: key, pLen: pLen}
		off = frameEnd
	}
	if off < fi.Size() {
		// Drop everything after the last valid frame so the next
		// append starts on a clean boundary.
		if err := f.Truncate(off); err != nil {
			f.Close()
			return fmt.Errorf("cache: disk tier: %w", err)
		}
	}
	seg.size, seg.mem = off, buf[:off]
	d.segs = append(d.segs, seg)
	d.bytes += off
	return nil
}

// seal makes a segment read-only and maps it into memory where the
// platform supports it; its mirror buffer becomes the spare the next
// active segment takes over. Caller holds d.mu (or is in OpenDisk).
func (d *Disk) seal(seg *segment) {
	if seg.mem != nil {
		d.spare, seg.mem = seg.mem[:0], nil
	}
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
	if n := len(d.segs); n > 0 {
		seg := d.segs[n-1]
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
	if d.spare == nil { // a segment's worth once, so appends seldom regrow it
		d.spare = make([]byte, 0, segmentTarget)
	}
	seg := &segment{path: d.segPath(id), f: f, mem: d.spare}
	d.spare = nil
	d.segs = append(d.segs, seg)
	return seg, nil
}

// readFrame copies the payload of one indexed entry into dst, which
// holds exactly its bytes, from the mirror or the mapping (the file only
// where the platform cannot map), so a later munmap or append cannot
// change the payload while the caller still holds it. Caller holds d.mu.
func (d *Disk) readFrame(e *diskEntry, dst []byte) bool {
	seg := e.seg
	start := e.off + segHeaderBytes + int64(len(e.key))
	end := start + int64(len(dst))
	src := seg.mm
	if src == nil {
		src = seg.mem
	}
	if src != nil {
		if end > int64(len(src)) {
			return false
		}
		copy(dst, src[start:end])
		return true
	}
	if seg.f == nil {
		return false
	}
	_, err := seg.f.ReadAt(dst, start)
	return err == nil
}

// diskGet is the one lookup body: the entry stored under key, its
// payload read into *dst, grown as needed, or into a fresh slice when
// dst is nil. raw names the kind whose counters a counted lookup bumps;
// an uncounted one (the flight leader's re-check) bumps none. Caller
// holds d.mu, for one table lookup (diskLookup) or for a batch of state
// lookups (Tiered.GetStates).
func diskGet[K cacheKey](d *Disk, key K, raw, count bool, dst *[]byte) (*diskEntry, []byte, bool) {
	e, ok := d.index[string(key)]
	var payload []byte
	if ok {
		if dst == nil {
			payload = make([]byte, e.pLen)
		} else {
			*dst = slices.Grow((*dst)[:0], int(e.pLen))[:e.pLen]
			payload = *dst
		}
		ok = d.readFrame(e, payload)
	}
	if count {
		hits, misses := &d.hits, &d.misses
		if raw {
			hits, misses = &d.stateHits, &d.stateMisses
		}
		if ok {
			*hits++
		} else {
			*misses++
		}
	}
	return e, payload, ok
}

// diskLookup is one table lookup, with the index's own key string,
// which a promotion stores under so that it makes none. The encoded
// form goes through a pooled buffer, since DecodeBinary copies
// everything out of it. An uncounted lookup leaves a corrupt frame
// indexed for the next counted one to collect.
func diskLookup[K cacheKey](d *Disk, key K, count bool) (*table.Table, string, bool) {
	bp := readBufPool.Get().(*[]byte)
	d.mu.Lock()
	e, payload, ok := diskGet(d, key, false, count, bp)
	d.mu.Unlock()
	if !ok {
		putReadBuf(bp)
		return nil, "", false
	}
	// Decode outside the lock: it allocates proportionally to the
	// entry and must not serialize other lookups.
	t, err := table.DecodeBinary(payload)
	putReadBuf(bp)
	if err == nil {
		return t.Freeze(), e.key, true
	}
	if count {
		// Bit rot after indexing; treat as a miss.
		d.mu.Lock()
		if cur, ok := d.index[e.key]; ok && cur == e {
			delete(d.index, e.key)
		}
		d.hits--
		d.misses++
		d.mu.Unlock()
	}
	return nil, "", false
}

// put appends the table under key, Tiered's table put. Oversized
// entries and encode-free zero-bound stores are dropped silently; a
// failed write leaves the previous value (if any) intact.
func (d *Disk) put(key string, t *table.Table) {
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
	seg.mem = append(seg.mem, frame...)
	seg.size += int64(len(frame))
	d.bytes += int64(len(frame))
	*counter++
	d.index[key] = &diskEntry{seg: seg, off: off, key: key, pLen: uint32(len(payload))}
	if seg.size >= segmentTarget {
		d.seal(seg)
	}
	for d.bytes > d.maxBytes && len(d.segs) > 1 {
		d.evictOldestSegment()
	}
}

// evictOldestSegment deletes the oldest segment and its index entries.
// Caller holds d.mu; the active (newest) segment is never evicted.
func (d *Disk) evictOldestSegment() {
	seg := d.segs[0]
	d.segs = slices.Delete(d.segs, 0, 1)
	for key, e := range d.index {
		if e.seg == seg {
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

// Close syncs and releases every segment. The cache must not be used
// afterwards.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var first error
	for _, seg := range d.segs {
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
		DiskSegments:    len(d.segs),
		Entries:         len(d.index),
		StateHits:       d.stateHits,
		StateMisses:     d.stateMisses,
		StatePuts:       d.statePuts,
		DiskStateHits:   d.stateHits,
		DiskStateMisses: d.stateMisses,
		DiskStatePuts:   d.statePuts,
	}
}
