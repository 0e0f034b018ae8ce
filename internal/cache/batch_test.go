package cache

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// batchTwin builds one of two identical caches for the batch tests: a
// disk tier holding 40 states, one of them rotten after indexing (a
// payload bit flipped in the active segment's mirror, which a raw read
// does not check), and a full 24-entry RAM tier holding every third of
// those states among other keys.
func batchTwin(t *testing.T, mem, disk bool) *Tiered {
	t.Helper()
	var m *LRU
	if mem {
		m = New(24 * (entryOverhead + 49 + 8))
		for i := 0; m.Stats().Evictions == 0; i++ {
			m.PutRaw(string(engineKey('R', i)), make([]byte, 8))
		}
		for i := 0; i < 40; i += 3 {
			m.PutRaw(string(engineKey('S', i)), statePayload(i))
		}
	}
	var d *Disk
	if disk {
		var err error
		if d, err = OpenDisk(t.TempDir(), 1<<20); err != nil {
			t.Fatal(err)
		}
		for i := range 40 {
			d.PutRaw(string(engineKey('S', i)), statePayload(i))
		}
		e := d.index[string(engineKey('S', rottenState))]
		e.seg.mem[e.off+segHeaderBytes+int64(len(e.key))] ^= 0x40
	}
	c := NewTiered(m, d)
	t.Cleanup(func() { c.Close() })
	return c
}

const rottenState = 7

// ringKeys lists c's keys from the most recently used on, with its
// admission history's state.
func ringKeys(c *LRU) (keys []string, history []uint64, tick uint32) {
	if c == nil {
		return nil, nil, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for e := c.root.next; e != &c.root; e = e.next {
		keys = append(keys, e.key)
	}
	return keys, slices.Clone(c.history), c.tick
}

// residentFirst orders a batch's positions as GetStates' contract
// states: the keys RAM holds as states, then the others, each in batch
// order.
func residentFirst(c *LRU, keys [][]byte) []int {
	var held, rest []int
	for i, k := range keys {
		if c != nil {
			c.mu.Lock()
			e, ok := c.items[string(k)]
			c.mu.Unlock()
			if ok && e.tbl == nil {
				held = append(held, i)
				continue
			}
		}
		rest = append(rest, i)
	}
	return append(held, rest...)
}

// lookupByKey is the one-key state lookup GetStates is checked against,
// composed of the one-key verbs: RAM, then disk, then a promotion that
// LRU.admit rules on, each under its own lock hold.
func (t *Tiered) lookupByKey(key string) ([]byte, bool) {
	if t.mem != nil {
		if raw, ok := t.mem.GetRaw(key); ok {
			return raw, true
		}
	}
	if t.disk == nil {
		return nil, false
	}
	raw, ok := t.disk.getRaw(key)
	if ok && t.mem != nil {
		if kept, promoted := store(t.mem, key, nil, raw, promotion); promoted {
			t.promotions.Add(1)
			raw = kept
		}
	}
	return raw, ok
}

// A batched lookup is one lookup per key: twin caches, one answering
// random batches of distinct keys through GetStates and the other key
// by key through lookupByKey in the order GetStates promises, end every
// batch with equal payloads, equal Stats field by field (promotions and
// evictions included), the same recency order and the same admission
// history, over RAM hits, disk hits (promoted and declined), misses and
// a rotten frame. No payload RAM keeps aliases a buffer of the batch's,
// which are scribbled over after every batch.
func TestGetStatesMatchesPerKeyLookups(t *testing.T) {
	for _, tc := range []struct {
		name      string
		mem, disk bool
	}{{"ram", true, false}, {"disk", false, true}, {"ram+disk", true, true}} {
		t.Run(tc.name, func(t *testing.T) {
			batched, perKey := batchTwin(t, tc.mem, tc.disk), batchTwin(t, tc.mem, tc.disk)
			var pool [][]byte
			for i := range 40 {
				pool = append(pool, engineKey('S', i))
			}
			for i := range 10 {
				pool = append(pool, engineKey('M', i)) // stored nowhere
			}
			bufs := make([][]byte, len(pool))
			for i := range bufs {
				bufs[i] = make([]byte, 0, 4+i%8) // some too short for a payload
			}
			rng := rand.New(rand.NewSource(1))
			b := &StateBatch{}
			rotten := 0
			for round := range 40 {
				b.Keys = b.Keys[:0]
				for _, j := range rng.Perm(len(pool))[:10+rng.Intn(30)] {
					b.Keys = append(b.Keys, pool[j])
				}
				if b.Bufs = nil; tc.disk {
					b.Bufs = bufs[:len(b.Keys)]
				}
				order := residentFirst(perKey.mem, b.Keys)
				batched.GetStates(b)
				for _, i := range order {
					got, ok := perKey.lookupByKey(string(b.Keys[i]))
					if ok != b.Hit[i] || !bytes.Equal(got, b.Out[i]) {
						t.Fatalf("round %d, key %x: batch %v, %v; per key %v, %v", round, b.Keys[i], b.Out[i], b.Hit[i], got, ok)
					}
					if ok && bytes.Equal(b.Keys[i], engineKey('S', rottenState)) && !bytes.Equal(got, statePayload(rottenState)) {
						rotten++
					}
				}
				if sb, sk := batched.Stats(), perKey.Stats(); sb != sk {
					t.Fatalf("round %d: stats differ\nbatch   %+v\nper key %+v", round, sb, sk)
				}
				rb, hb, tb := ringKeys(batched.mem)
				rk, hk, tk := ringKeys(perKey.mem)
				if !slices.Equal(rb, rk) || !slices.Equal(hb, hk) || tb != tk {
					t.Fatalf("round %d: RAM's recency order or admission history differs", round)
				}
				if batched.mem != nil {
					for _, e := range batched.mem.items {
						for j, buf := range bufs {
							if shareBytes(e.raw, buf[:cap(buf)]) {
								t.Fatalf("round %d: RAM's entry %x aliases batch buffer %d", round, e.key, j)
							}
						}
					}
				}
				for _, buf := range bufs {
					for j := range cap(buf) {
						buf[:cap(buf)][j] = 0xff
					}
				}
			}
			st := batched.Stats()
			ramHits := st.StateHits - st.DiskStateHits
			switch {
			case st.StateMisses == 0:
				t.Fatalf("no miss: %+v", st)
			case tc.mem && ramHits == 0:
				t.Fatalf("no RAM hit: %+v", st)
			case tc.disk && (st.DiskStateHits == 0 || rotten == 0):
				t.Fatalf("no disk hit, or the rotten frame never read: %+v", st)
			case tc.mem && tc.disk && (st.Promotions == 0 || st.Promotions == st.DiskStateHits || st.Evictions == 0):
				t.Fatalf("disk hits were not a mix of promotions at capacity and declines: %+v", st)
			}
		})
	}
}
