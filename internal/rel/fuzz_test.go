package rel

import (
	"math"
	"testing"
)

// FuzzPartialStateDecode feeds arbitrary bytes to both consumers of the
// PPS1 codec — DecodePartialState and the encoded merge the engine's
// warm path uses — which the disk cache tier can hand torn or corrupted
// payloads. Neither may panic; they must accept exactly the same
// inputs; an accepted payload must merge identically both ways and
// re-encode to itself (the encoding is canonical).
func FuzzPartialStateDecode(f *testing.F) {
	count, sum := encodedTestPlans(f)
	slots := sum.Slots()
	f.Add((&PartialState{Counts: []int64{3}, Rows: 3, Chunks: 1, CamRows: map[string]int64{"camA": 3}}).EncodeBinary())
	f.Add((&PartialState{Counts: []int64{0}, Chunks: 1}).EncodeBinary())
	f.Add((&PartialState{
		Counts: make([]int64, slots), Sums: append(make([]float64, slots-2), math.NaN(), math.Copysign(0, -1)),
		Rows: 4, Chunks: 2, CamRows: map[string]int64{"camA": 1, "camB": 2, "other": 1},
	}).EncodeBinary())
	f.Add([]byte("PPS1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkEncodedAgreesWithDecode(t, count, raw)
		checkEncodedAgreesWithDecode(t, sum, raw)
		if dec, err := DecodePartialState(raw); err == nil {
			if again := dec.EncodeBinary(); string(again) != string(raw) {
				t.Fatalf("accepted payload is not canonical:\n%x\n%x", raw, again)
			}
		}
	})
}
