package rel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
)

// Binary partial-state codec (version 1), the cache/wire form of a
// PartialState — the unit the chunk cache's partial-state tier stores
// and the shape a future distributed shard would ship instead of a full
// table. Layout, little-endian:
//
//	4B magic "PPS1"
//	u8  flags (bit 0: sums present)
//	u32 nslots
//	per slot: i64 count
//	if sums: per slot, 8B IEEE-754 float
//	i64 rows | i64 chunks
//	u16 ncams
//	per camera (sorted by name): u16 len(name) | name | i64 rows
//
// Encoding is deterministic (camera keys sorted) and decoding never
// panics: every length is validated against the remaining input, so the
// disk tier can feed it torn or corrupted payloads. Camera names must
// be strictly ascending — what EncodeBinary writes — so a payload has
// one decoding and adding its cameras one by one (MergeEncoded) equals
// merging its decoded map.

var partialMagic = [4]byte{'P', 'P', 'S', '1'}

// EncodeBinary serializes the state.
func (s *PartialState) EncodeBinary() []byte {
	n := len(s.Counts)
	size := 4 + 1 + 4 + 8*n + 16 + 2
	if s.Sums != nil {
		size += 8 * n
	}
	for cam := range s.CamRows {
		size += 2 + len(cam) + 8
	}
	b := make([]byte, 0, size)
	b = append(b, partialMagic[:]...)
	var flags byte
	if s.Sums != nil {
		flags |= 1
	}
	b = append(b, flags)
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	for _, c := range s.Counts {
		b = binary.LittleEndian.AppendUint64(b, uint64(c))
	}
	if s.Sums != nil {
		for _, v := range s.Sums {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(s.Rows))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.Chunks))
	cams := make([]string, 0, 8) // on the stack for up to 8 cameras
	for cam := range s.CamRows {
		cams = append(cams, cam)
	}
	sort.Strings(cams)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(cams)))
	for _, cam := range cams {
		b = binary.LittleEndian.AppendUint16(b, uint16(len(cam)))
		b = append(b, cam...)
		b = binary.LittleEndian.AppendUint64(b, uint64(s.CamRows[cam]))
	}
	return b
}

var errTruncatedState = errors.New("rel: truncated partial state")

// Fixed offsets of the PPS1 layout.
const (
	stateHeaderLen = 4 + 1 + 4 // magic | flags | nslots
	stateTallyLen  = 8 + 8 + 2 // rows | chunks | ncams
)

// encodedState is a PPS1 payload whose every length parseEncodedState
// has validated against the input, so its accessors index raw without
// further checks. It is the one validator behind DecodePartialState,
// CompatibleEncoded and MergeEncoded: the three accept exactly the
// same payloads.
type encodedState struct {
	raw    []byte
	nslots int
	sums   bool
	ncams  int
}

// parseEncodedState validates raw end to end: magic, flags, each length
// against the remaining input, camera-name order, no trailing bytes. It
// never panics and does not allocate on success.
func parseEncodedState(raw []byte) (encodedState, error) {
	if len(raw) < stateHeaderLen {
		return encodedState{}, errTruncatedState
	}
	if string(raw[:4]) != string(partialMagic[:]) {
		return encodedState{}, fmt.Errorf("rel: bad partial-state magic %q", raw[:4])
	}
	flags := raw[4]
	if flags&^1 != 0 {
		return encodedState{}, fmt.Errorf("rel: unknown partial-state flags %#x", flags)
	}
	e := encodedState{raw: raw, sums: flags&1 != 0}
	nslots := binary.LittleEndian.Uint32(raw[5:])
	perSlot := 8
	if e.sums {
		perSlot = 16
	}
	if uint64(nslots) > uint64((len(raw)-stateHeaderLen)/perSlot) {
		return encodedState{}, fmt.Errorf("rel: slot count %d exceeds payload", nslots)
	}
	e.nslots = int(nslots)
	off := e.tallyOff()
	if len(raw)-off < stateTallyLen {
		return encodedState{}, errTruncatedState
	}
	e.ncams = int(binary.LittleEndian.Uint16(raw[off+16:]))
	off += stateTallyLen
	var prev []byte
	for i := 0; i < e.ncams; i++ {
		if len(raw)-off < 2 {
			return encodedState{}, errTruncatedState
		}
		n := int(binary.LittleEndian.Uint16(raw[off:]))
		off += 2
		if len(raw)-off < n+8 {
			return encodedState{}, errTruncatedState
		}
		name := raw[off : off+n]
		if i > 0 && string(prev) >= string(name) {
			return encodedState{}, fmt.Errorf("rel: partial-state camera %q out of order", name)
		}
		prev = name
		off += n + 8
	}
	if off != len(raw) {
		return encodedState{}, fmt.Errorf("rel: %d trailing bytes in partial state", len(raw)-off)
	}
	return e, nil
}

func (e encodedState) count(i int) int64 {
	return int64(binary.LittleEndian.Uint64(e.raw[stateHeaderLen+8*i:]))
}

func (e encodedState) sum(i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(e.raw[stateHeaderLen+8*(e.nslots+i):]))
}

// tallyOff is the offset of rows | chunks | ncams.
func (e encodedState) tallyOff() int {
	if e.sums {
		return stateHeaderLen + 16*e.nslots
	}
	return stateHeaderLen + 8*e.nslots
}

func (e encodedState) rows() int64 {
	return int64(binary.LittleEndian.Uint64(e.raw[e.tallyOff():]))
}

func (e encodedState) chunks() int64 {
	return int64(binary.LittleEndian.Uint64(e.raw[e.tallyOff()+8:]))
}

// cam returns the camera entry starting at off (the first one starts
// at tallyOff()+stateTallyLen) and the offset of the next.
func (e encodedState) cam(off int) (name []byte, rows int64, next int) {
	n := int(binary.LittleEndian.Uint16(e.raw[off:]))
	off += 2
	return e.raw[off : off+n], int64(binary.LittleEndian.Uint64(e.raw[off+n:])), off + n + 8
}

// DecodePartialState deserializes a state encoded by EncodeBinary. It
// never panics on malformed input and bounds every allocation by the
// input length.
func DecodePartialState(raw []byte) (*PartialState, error) {
	e, err := parseEncodedState(raw)
	if err != nil {
		return nil, err
	}
	s := &PartialState{Counts: make([]int64, e.nslots), Rows: e.rows(), Chunks: e.chunks()}
	for i := range s.Counts {
		s.Counts[i] = e.count(i)
	}
	if e.sums {
		s.Sums = make([]float64, e.nslots)
		for i := range s.Sums {
			s.Sums[i] = e.sum(i)
		}
	}
	if e.ncams > 0 {
		s.CamRows = make(map[string]int64, e.ncams)
	}
	off := e.tallyOff() + stateTallyLen
	for i := 0; i < e.ncams; i++ {
		var name []byte
		var rows int64
		name, rows, off = e.cam(off)
		s.CamRows[string(name)] = rows
	}
	return s, nil
}

// fits reports whether the payload has this plan's shape — the encoded
// counterpart of Compatible.
func (p *PartialPlan) fits(e encodedState) bool {
	return e.nslots == p.Slots() && e.sums == p.needSum
}

// CompatibleEncoded reports whether raw is a well-formed encoded state
// of this plan's shape: exactly when DecodePartialState succeeds on it
// and Compatible accepts the result. It does not allocate on success.
func (p *PartialPlan) CompatibleEncoded(raw []byte) bool {
	e, err := parseEncodedState(raw)
	return err == nil && p.fits(e)
}

// MergeEncoded folds an encoded state into dst without decoding it:
// the result is bit-identical to Merge(dst, DecodePartialState(raw)).
// The whole payload is validated (every DecodePartialState and
// Compatible check) before anything is added, so on error dst is
// untouched. dst must be shaped by this plan (NewState). It does not
// allocate beyond dst's camera map growing.
func (p *PartialPlan) MergeEncoded(dst *PartialState, raw []byte) error {
	e, err := parseEncodedState(raw)
	if err != nil {
		return err
	}
	if !p.fits(e) || !p.Compatible(dst) {
		return fmt.Errorf("rel: encoded state (%d slots, sums=%v) does not fit plan (%d slots, sums=%v)",
			e.nslots, e.sums, p.Slots(), p.needSum)
	}
	for i := range dst.Counts {
		dst.Counts[i] += e.count(i)
	}
	for i := range dst.Sums {
		dst.Sums[i] += e.sum(i)
	}
	dst.Rows += e.rows()
	dst.Chunks += e.chunks()
	if e.ncams > 0 && dst.CamRows == nil {
		dst.CamRows = make(map[string]int64, e.ncams)
	}
	off := e.tallyOff() + stateTallyLen
	for i := 0; i < e.ncams; i++ {
		var name []byte
		var rows int64
		name, rows, off = e.cam(off)
		// The plan's own camera names are interned so the map update
		// allocates no key; any other name (a payload this plan did
		// not write) pays for its string.
		cam, ok := p.cams[string(name)]
		if !ok {
			cam = string(name)
		}
		dst.CamRows[cam] += rows
	}
	return nil
}
