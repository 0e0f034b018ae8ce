package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"
	"sync"
	"time"

	"privid/internal/obs"
)

// walMagic heads every WAL file; a file without it is not a Privid WAL.
const walMagic = "PRIVIDWAL1\n"

// maxRecordBytes caps one record's payload. Nothing legitimate (a
// charge, an audit entry, a job with a bounded query and result)
// approaches this; a larger length prefix means corruption.
const maxRecordBytes = 8 << 20

// frameHeaderLen is the per-record framing overhead: a uint32 payload
// length followed by a uint32 CRC32 (IEEE) of the payload, both
// little-endian.
const frameHeaderLen = 8

// CorruptError reports a torn or corrupt WAL. Offset is the byte
// length of the valid prefix: every record before it decoded cleanly,
// and Repair truncates the file to exactly this offset.
type CorruptError struct {
	Path   string
	Offset int64
	Reason string
}

// Error implements the error interface.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: corrupt WAL %s at offset %d: %s (run repair to truncate to the last valid record)",
		e.Path, e.Offset, e.Reason)
}

// appendFrame encodes rec and appends its framed bytes to buf.
func appendFrame(buf []byte, rec Record) ([]byte, error) {
	start := len(buf)
	buf = append(buf, make([]byte, frameHeaderLen)...)
	buf, err := appendRecord(buf, rec)
	if err != nil {
		return nil, fmt.Errorf("store: encode record: %w", err)
	}
	payload := buf[start+frameHeaderLen:]
	if len(payload) > maxRecordBytes {
		return nil, fmt.Errorf("store: record payload %d bytes exceeds limit %d", len(payload), maxRecordBytes)
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf, nil
}

// encodeRecords frames a batch of records into one exactly sized buffer
// (one Commit's append unit; retained entries are sub-slices of it).
func encodeRecords(recs []Record) ([]byte, error) {
	scratch := encodeScratch.Get().(*[]byte)
	defer encodeScratch.Put(scratch)
	buf := (*scratch)[:0]
	for _, rec := range recs {
		var err error
		if buf, err = appendFrame(buf, rec); err != nil {
			return nil, err
		}
	}
	*scratch = buf
	return bytes.Clone(buf), nil
}

var encodeScratch = sync.Pool{New: func() any { return new([]byte) }}

// recordKeyLen is the length of the {"a": or {"j": before an entry.
const recordKeyLen = len(`{"a":`)

// appendRecord appends json.Marshal(rec)'s bytes to b (FuzzRecordEncode).
// A job's Result, already JSON, is copied verbatim once checked: no
// record DecodeAll refuses is logged.
func appendRecord(b []byte, rec Record) ([]byte, error) {
	if countSet(rec) != 1 {
		return nil, errors.New("record must set exactly one field")
	}
	w := jsonw{b: b}
	switch {
	case rec.Charge != nil:
		c := rec.Charge
		w.str(`{"c":{"cam":`, c.Camera)
		w.segment(`,"s":`, c.Start, c.End, c.Eps)
		if c.Query != "" {
			w.str(`,"q":`, c.Query)
		}
	case rec.Audit != nil:
		a := rec.Audit
		w.time(`{"a":{"at":`, a.At)
		key := `,"cams":[`
		for _, cam := range a.Cameras {
			w.str(key, cam)
			key = ","
		}
		if len(a.Cameras) > 0 {
			w.b = append(w.b, ']')
		}
		if a.Releases != 0 {
			w.int(`,"rel":`, int64(a.Releases))
		}
		if a.EpsilonSpent != 0 {
			w.float(`,"eps":`, a.EpsilonSpent)
		}
		if a.Denied {
			w.b = append(w.b, `,"denied":true`...)
		}
		if a.Reason != "" {
			w.str(`,"reason":`, a.Reason)
		}
	default:
		j := rec.Job
		w.str(`{"j":{"id":`, j.ID)
		w.str(`,"analyst":`, j.Analyst)
		w.str(`,"query":`, j.Query)
		w.str(`,"state":`, j.State)
		if j.Error != "" {
			w.str(`,"error":`, j.Error)
		}
		w.time(`,"submitted_at":`, j.SubmittedAt)
		w.time(`,"started_at":`, j.StartedAt)
		w.time(`,"finished_at":`, j.FinishedAt)
		w.raw(`,"result":`, j.Result)
	}
	w.b = append(w.b, '}', '}')
	return w.b, w.err
}

// jsonw appends key/value pairs to b through the obs appenders, keeping
// the first error (where json.Marshal would have stopped).
type jsonw struct {
	b   []byte
	err error
}

func (w *jsonw) str(key, s string)            { w.b = obs.AppendJSONString(append(w.b, key...), s) }
func (w *jsonw) int(key string, n int64)      { w.b = strconv.AppendInt(append(w.b, key...), n, 10) }
func (w *jsonw) float(key string, f float64)  { w.keep(obs.AppendJSONFloat(append(w.b, key...), f)) }
func (w *jsonw) time(key string, t time.Time) { w.keep(obs.AppendJSONTime(append(w.b, key...), t)) }

func (w *jsonw) keep(b []byte, err error) {
	if w.b = b; w.err == nil {
		w.err = err
	}
}

// segment appends the fields a charge shares with a snapshot Segment.
func (w *jsonw) segment(key string, start, end int64, eps float64) {
	w.int(key, start)
	w.int(`,"e":`, end)
	w.float(`,"eps":`, eps)
}

// raw appends an omitempty json.RawMessage field verbatim.
func (w *jsonw) raw(key string, msg json.RawMessage) {
	if len(msg) > 0 {
		if !json.Valid(msg) && w.err == nil {
			w.err = fmt.Errorf("%s is not valid JSON", key[2:len(key)-2])
		}
		w.b = append(append(w.b, key...), msg...)
	}
}

// DecodeAll decodes a WAL image (magic header plus framed records). It
// returns the records of the valid prefix and that prefix's byte
// length. A torn or corrupt tail is reported as a *CorruptError whose
// Offset equals the returned length; the records decoded before the
// corruption are still returned. DecodeAll never panics, whatever the
// input (see FuzzWALDecode).
func DecodeAll(data []byte) ([]Record, int64, error) {
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != walMagic {
		return nil, 0, &CorruptError{Offset: 0, Reason: "missing WAL magic header"}
	}
	off := int64(len(walMagic))
	var recs []Record
	for off < int64(len(data)) {
		rest := data[off:]
		if len(rest) < frameHeaderLen {
			return recs, off, &CorruptError{Offset: off, Reason: "torn frame header"}
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if n > maxRecordBytes {
			return recs, off, &CorruptError{Offset: off, Reason: fmt.Sprintf("record length %d exceeds limit", n)}
		}
		if int64(len(rest)) < frameHeaderLen+int64(n) {
			return recs, off, &CorruptError{Offset: off, Reason: "torn record body"}
		}
		payload := rest[frameHeaderLen : frameHeaderLen+int64(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, off, &CorruptError{Offset: off, Reason: "checksum mismatch"}
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return recs, off, &CorruptError{Offset: off, Reason: "undecodable payload: " + err.Error()}
		}
		if countSet(rec) != 1 {
			return recs, off, &CorruptError{Offset: off, Reason: "record must set exactly one field"}
		}
		recs = append(recs, rec)
		off += frameHeaderLen + int64(n)
	}
	return recs, off, nil
}

func countSet(rec Record) int {
	n := 0
	if rec.Charge != nil {
		n++
	}
	if rec.Audit != nil {
		n++
	}
	if rec.Job != nil {
		n++
	}
	return n
}
