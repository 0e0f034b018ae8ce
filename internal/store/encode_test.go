package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// FuzzRecordEncode is the byte-identity oracle for the WAL record
// encoder: for any record, appendRecord writes exactly what
// json.Marshal(rec) writes — or fails with its error — and the framed
// record decodes back to one that encodes the same way again (what
// replay relies on when it re-encodes retained entries).
func FuzzRecordEncode(f *testing.F) {
	f.Add(uint8(0), "camA", "q", "", int64(0), int64(100), 0.5, false, int64(1615788000), int64(0), int32(0))
	f.Add(uint8(1), "<cam&>", "denied: "+string(rune(0x2028)), "", int64(3), int64(0), 1e-7, true, int64(0), int64(5), int32(-8*3600))
	f.Add(uint8(2), "q-000001", "alice\xff", `{"v":[1,"<x>"]}`, int64(0), int64(0), 1e21, false, int64(1615788000), int64(123456789), int32(19800))
	f.Add(uint8(2), "", "", "", int64(-1), int64(-1), math.Copysign(0, -1), true, int64(-62135596800), int64(0), int32(0))
	f.Fuzz(func(t *testing.T, kind uint8, s1, s2, s3 string, i1, i2 int64, fl float64, flag bool, sec, nsec int64, zone int32) {
		at := time.Unix(sec, nsec).In(time.FixedZone("z", int(zone)))
		var rec Record
		switch kind % 3 {
		case 0:
			rec.Charge = &ChargeRecord{Camera: s1, Start: i1, End: i2, Eps: fl, Query: s2}
		case 1:
			cams := []string{s1, s2}[:i1&1+i2&1]
			rec.Audit = &AuditRecord{At: at, Cameras: cams, Releases: int(i1), EpsilonSpent: fl, Denied: flag, Reason: s2}
		default:
			j := &JobRecord{ID: s1, Analyst: s2, Query: s3, State: "done", SubmittedAt: at, StartedAt: at.Add(time.Duration(i1)), FinishedAt: time.Unix(i2, 0)}
			if flag {
				j.State, j.Error = "failed", s3
			}
			// Result is json.Marshal output in service: canonical JSON.
			if i1&1 == 1 {
				j.Result, _ = json.Marshal(map[string]any{"v": s3, "n": fl})
			}
			rec.Job = j
		}
		want, werr := json.Marshal(rec)
		got, err := appendRecord(nil, rec)
		if werr != nil || err != nil {
			if werr == nil || err == nil || err.Error() != werr.Error() {
				t.Fatalf("error %v, encoding/json: %v", err, werr)
			}
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record differs from encoding/json:\n got %s\nwant %s", got, want)
		}
		frame, err := appendFrame([]byte(walMagic), rec)
		if err != nil {
			t.Fatal(err)
		}
		recs, _, err := DecodeAll(frame)
		if err != nil || len(recs) != 1 {
			t.Fatalf("framed record does not decode: %v", err)
		}
		again, err := appendRecord(nil, recs[0])
		if want, _ := json.Marshal(recs[0]); err != nil || !bytes.Equal(again, want) {
			t.Fatalf("decoded record re-encodes differently (%v):\n got %s\nwant %s", err, again, want)
		}
	})
}

// TestAppendRecordRefusesUndecodable: a record DecodeAll would refuse —
// no field or several set, or a Result that is not JSON — never reaches
// the log.
func TestAppendRecordRefusesUndecodable(t *testing.T) {
	for _, rec := range []Record{
		{},
		{Charge: &ChargeRecord{Camera: "c"}, Audit: &AuditRecord{}},
		{Job: &JobRecord{ID: "q", Result: json.RawMessage(`{"v":`)}},
	} {
		if _, err := appendRecord(nil, rec); err == nil {
			t.Errorf("record %+v encoded", rec)
		}
	}
}

// TestSnapshotMatchesEncodingJSON is the byte-identity oracle for the
// streamed snapshot: after random commits — across the points where the
// retained logs are cut back from 2×bound — snapshot.json equals
// json.Marshal of the snapshotFile holding the same generation, spent
// segments and last MaxAudit/MaxJobs records; and after a restart,
// whose replay re-encodes every entry, it still equals json.Marshal of
// the recovered state.
func TestSnapshotMatchesEncodingJSON(t *testing.T) {
	const maxJobs, maxAudit = 3, 4
	rng := rand.New(rand.NewPCG(29, 2))
	names := []string{"camA", "camB", "<cam&>", "cam" + string(rune(0x2028)), "ü"}
	epsilons := []float64{0, 0.25, 1.0 / 3, 1e-7, 2.5e-6, 1e21, 7}
	at := func() time.Time {
		return time.Unix(1615788000+rng.Int64N(1e6), rng.Int64N(1e9)).In(time.FixedZone("z", 1800*(rng.IntN(9)-4)))
	}
	opts := Options{MaxJobs: maxJobs, MaxAudit: maxAudit, SnapshotEvery: -1}
	dir := t.TempDir()
	w, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { w.Close() }()

	var audit []AuditRecord
	var jobs []JobRecord
	check := func(step int, wantAudit []AuditRecord, wantJobs []JobRecord) {
		t.Helper()
		if err := w.Snapshot(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, snapshotName))
		if err != nil {
			t.Fatal(err)
		}
		sf := snapshotFile{Version: 1, Gen: w.gen, TakenAt: w.lastSnapshot, Spent: map[string][]Segment{},
			Audit: retained(wantAudit, maxAudit), Jobs: retained(wantJobs, maxJobs)}
		for _, cam := range w.state.Cameras() {
			if segs := w.state.SpentSegments(cam); len(segs) > 0 {
				sf.Spent[cam] = segs
			}
		}
		want, err := json.Marshal(sf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("step %d: snapshot differs from encoding/json:\n got %s\nwant %s", step, got, want)
		}
	}
	check(0, nil, nil)
	for step := 1; step <= 5*maxAudit; step++ {
		var recs []Record
		for range rng.IntN(3) {
			s := rng.Int64N(1000)
			recs = append(recs, Record{Charge: &ChargeRecord{
				Camera: pick(rng, names), Start: s, End: s + 1 + rng.Int64N(500), Eps: pick(rng, epsilons), Query: "q",
			}})
		}
		a := AuditRecord{At: at(), Cameras: []string{pick(rng, names)}, Releases: rng.IntN(3),
			EpsilonSpent: pick(rng, epsilons), Denied: rng.IntN(4) == 0, Reason: pick(rng, []string{"", "budget <exhausted> & denied"})}
		audit = append(audit, a)
		recs = append(recs, Record{Audit: &a})
		if rng.IntN(3) > 0 {
			res, _ := json.Marshal(map[string]any{"releases": []float64{pick(rng, epsilons)}, "note": pick(rng, names)})
			j := JobRecord{ID: fmt.Sprintf("q-%06d", step), Analyst: pick(rng, names), Query: "SELECT <x> & y", State: "done",
				SubmittedAt: at(), StartedAt: at(), FinishedAt: at(), Result: res}
			jobs = append(jobs, j)
			recs = append(recs, Record{Job: &j})
		}
		if err := w.Commit(recs...); err != nil {
			t.Fatal(err)
		}
		check(step, audit, jobs)
	}

	// Restart onto the final snapshot, commit, crash, and restart again:
	// snapshot plus WAL replay, every retained entry re-encoded from its
	// decoded form.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(Record{Audit: &AuditRecord{At: at(), Reason: "bad \xff utf8"}}); err != nil {
		t.Fatal(err)
	}
	if w, err = Open(dir, opts); err != nil { // the first handle is abandoned, as in a crash
		t.Fatal(err)
	}
	check(-1, w.state.Audit(), w.state.Jobs())
	if got := w.state.Jobs(); len(got) != maxJobs || got[maxJobs-1].ID != jobs[len(jobs)-1].ID {
		t.Fatalf("recovered jobs %v, want the last %d of %d", got, maxJobs, len(jobs))
	}
}

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.IntN(len(xs))] }
