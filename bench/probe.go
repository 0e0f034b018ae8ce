package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"privid/internal/cache"
	"privid/internal/core"
	"privid/internal/dp"
	"privid/internal/query"
	"privid/internal/rel"
	"privid/internal/sandbox"
	"privid/internal/table"
	"privid/internal/video"
	"privid/internal/vtime"
)

// Probes. query, cache, table, rel and dp have no seam — the engine calls
// them directly — so after the traced run a single goroutine times their
// exported functions on inputs taken from that run: its query texts, the
// rows its executable really returned, its cache sizes, its acknowledged
// charges. A unit cost times the run's own counter delta estimates what
// the layer cost per op; core.unattributed_share says how much of the
// engine's self time those estimates leave unexplained.
type probes struct {
	unit          map[string]float64 // metric name → unit cost
	releasesPerOp float64
}

// probeBudget is how long each probe loops.
const probeBudget = 25 * time.Millisecond

// timeIt returns the mean duration of fn(i) over probeBudget of calls.
func timeIt(fn func(i int)) time.Duration {
	fn(0)
	n := 0
	start := time.Now()
	for time.Since(start) < probeBudget {
		for k := 0; k < 16; k++ {
			fn(n)
			n++
		}
	}
	return time.Since(start) / time.Duration(n)
}

// simobjSchema is the PROCESS schema every workload query declares.
var simobjSchema = table.MustSchema(table.Column{Name: "id", Type: table.DNumber, Default: table.N(0)})

// planInputs rebuilds, for one op, what core.runProcess hands rel: the
// stamped schema and one trusted TableMeta per camera.
func (ix *fleetIndex) planInputs(op *opSpec) (*query.SelectStmt, table.Schema, []rel.TableMeta, error) {
	prog, err := query.Parse(op.text)
	if err != nil {
		return nil, table.Schema{}, nil, err
	}
	full := simobjSchema.WithImplicitCols(false, len(op.cams) > 1)
	var metas []rel.TableMeta
	for _, c := range op.cams {
		metas = append(metas, rel.TableMeta{
			Name:        "t",
			Camera:      ix.f.Cams[c].Name,
			MaxRows:     ix.maxRows,
			ChunkFrames: chunkFrames,
			FPS:         vtime.FrameRate(fleetFPS),
			NumChunks:   int64(op.end-op.begin) * chunksPerMin,
			Begin:       ix.f.Start.Add(time.Duration(op.begin) * time.Minute),
			End:         ix.f.Start.Add(time.Duration(op.end) * time.Minute),
			Policy:      camPolicy,
		})
	}
	return prog.Selects[0], full, metas, nil
}

// runProbes times the seamless layers on the finished traced run's inputs.
func runProbes(s *stack) (probes, error) {
	pr := probes{unit: map[string]float64{}}
	rng := rand.New(rand.NewSource(1))

	// The workload's query texts and release counts.
	var specs []*opSpec
	for i := 0; i < 32; i++ {
		specs = append(specs, s.ops.next(rng))
	}
	for _, op := range specs {
		pr.releasesPerOp += float64(len(op.want)) / float64(len(specs))
	}
	pr.unit["query.parse_us"] = us(timeIt(func(i int) { _, _ = query.Parse(specs[i%len(specs)].text) }))

	// The workload's chunk tables: what its executable returned.
	var rows [][]table.Row
	for _, rs := range s.tr.samples {
		if len(rs) > 0 {
			rows = append(rows, rs)
		}
	}
	if len(rows) == 0 {
		return pr, fmt.Errorf("bench: %s: no executable output captured for the probes", s.w.name)
	}
	blocks := make([]*table.Table, len(rows))
	encoded := make([][]byte, len(rows))
	for i, rs := range rows {
		blocks[i] = table.FromRows(simobjSchema, rs).Freeze()
		encoded[i] = blocks[i].EncodeBinary()
	}
	pr.unit["table.from_rows_us"] = us(timeIt(func(i int) { table.FromRows(simobjSchema, rows[i%len(rows)]) }))
	pr.unit["table.encode_us"] = us(timeIt(func(i int) { blocks[i%len(blocks)].EncodeBinary() }))
	pr.unit["table.decode_us"] = us(timeIt(func(i int) { _, _ = table.DecodeBinary(encoded[i%len(encoded)]) }))

	// sandbox: what Executor.RunChecked costs around a ProcessFunc that
	// only hands back a real chunk's rows — the goroutine, the timer and
	// the row conforming that the seam around simobj cannot see.
	chunk := video.Split{
		Source:      s.ix.f.Cams[0].Source,
		Interval:    vtime.NewInterval(0, chunkFrames),
		ChunkFrames: chunkFrames,
	}.ChunkAt(0)
	harness := sandbox.Executor{
		Fn:      func(*video.Chunk) []table.Row { return rows[0] },
		Timeout: 5 * time.Second,
		MaxRows: s.ix.maxRows,
		Schema:  simobjSchema,
	}
	pr.unit["sandbox.harness_us"] = us(timeIt(func(int) { harness.RunChecked(chunk) }))

	// rel, per statement kind the workload draws: fold one chunk, merge
	// and decode one state, finalize one op; the AVG statement (which
	// declines pushdown) materialises an op-sized table and aggregates it.
	first := specs[0]
	activePerOp := s.ix.activeChunks(first.cams, first.begin, first.end)
	var stateBytes []byte
	var planID string
	var pushKinds float64
	for _, kind := range []stmtKind{stmtCount, stmtGrouped, stmtAvg} {
		inWorkload := false
		for _, k := range s.w.kinds {
			inWorkload = inWorkload || k == kind
		}
		if !inWorkload && kind != stmtAvg {
			continue
		}
		op := s.ix.newOp(first.cams, first.begin, first.end, kind)
		sel, full, metas, err := s.ix.planInputs(op)
		if err != nil {
			return pr, err
		}
		cam := metas[0].Camera
		consts := []table.Value{table.N(float64(metas[0].Begin.Unix()))}
		if len(op.cams) > 1 {
			consts = append(consts, table.S(cam))
		}
		plan := rel.PlanPartial(sel, "t", full, metas)
		if kind == stmtAvg {
			if plan != nil {
				return pr, fmt.Errorf("bench: AVG planned for pushdown; the materialised-path probe needs a statement that declines")
			}
			env := func() rel.Env {
				data := table.New(full)
				for j := 0; j < activePerOp; j++ {
					data.AppendBlock(blocks[j%len(blocks)], consts...)
				}
				return rel.Env{"t": rel.NewInstance(data, metas...)}
			}
			if _, err := rel.ExecuteSelect(sel, env()); err != nil {
				return pr, err
			}
			pr.unit["rel.select_materialised_us"] = us(timeIt(func(int) { _, _ = rel.ExecuteSelect(sel, env()) }))
			continue
		}
		if plan == nil {
			return pr, fmt.Errorf("bench: statement kind %d declined pushdown", kind)
		}
		fold := func(i int) *rel.PartialState {
			mini := table.New(full)
			mini.AppendBlock(blocks[i%len(blocks)], consts...)
			st, _ := plan.Partial(mini, cam) // a planned statement cannot fail to fold
			return st
		}
		state, acc := fold(0), plan.NewState()
		stateBytes, planID = state.EncodeBinary(), plan.ID()
		pushKinds++
		pr.unit["rel.fold_us"] += us(timeIt(func(i int) { fold(i) }))
		pr.unit["rel.merge_us"] += us(timeIt(func(int) { plan.Merge(acc, state) }))
		pr.unit["rel.decode_state_us"] += us(timeIt(func(int) { _, _ = rel.DecodePartialState(stateBytes) }))
		pr.unit["rel.finalize_us"] += us(timeIt(func(int) { plan.Finalize(acc) }))
	}
	for _, k := range []string{"rel.fold_us", "rel.merge_us", "rel.decode_state_us", "rel.finalize_us"} {
		pr.unit[k] /= pushKinds // kinds are drawn uniformly
	}

	// cache: the RAM tier at the workload's size (so puts evict when the
	// workload's do), with keys as long as the engine's.
	ram := s.w.ram
	if ram == 0 {
		ram = core.DefaultChunkCacheBytes
	}
	const nKeys = 8192
	tableKeys, stateKeys := make([]string, nKeys), make([]string, nKeys)
	for i := range tableKeys {
		tableKeys[i] = fmt.Sprintf("probe|simobj|5s|%d|id:NUMBER|%0100d", s.ix.maxRows, i)
		stateKeys[i] = planID + "|" + tableKeys[i]
	}
	warm := cache.New(core.DefaultChunkCacheBytes)
	for i := 0; i < nKeys; i++ {
		warm.Put(tableKeys[i], blocks[i%len(blocks)])
		warm.PutRaw(stateKeys[i], stateBytes)
	}
	pr.unit["cache.get_table_us"] = us(timeIt(func(i int) { warm.Get(tableKeys[i%nKeys]) }))
	pr.unit["cache.get_state_us"] = us(timeIt(func(i int) { warm.GetRaw(stateKeys[i%nKeys]) }))
	sized := cache.New(ram)
	pr.unit["cache.put_us"] = us(timeIt(func(i int) {
		if i%2 == 0 {
			sized.Put(tableKeys[i/2%nKeys], blocks[i%len(blocks)])
		} else {
			sized.PutRaw(stateKeys[i/2%nKeys], stateBytes)
		}
	}))
	// Disk tier behind a 1 MiB RAM tier, read in a cycle longer than RAM
	// holds: every read is a disk hit, a promotion and an eviction.
	disk, err := cache.OpenDisk(filepath.Join(s.dir, "probe-chunks"), core.DefaultDiskCacheBytes)
	if err != nil {
		return pr, err
	}
	tiered := cache.NewTiered(cache.New(1<<20), disk)
	for i := 0; i < nKeys; i++ {
		tiered.PutRaw(stateKeys[i], stateBytes)
	}
	pr.unit["cache.disk_get_us"] = us(timeIt(func(i int) { tiered.GetRaw(stateKeys[i%nKeys]) }))
	if err := tiered.Close(); err != nil {
		return pr, err
	}

	// dp: a ledger preloaded with the busiest camera's acknowledged
	// charges, then one more reserve+finalize on it; and one noise draw.
	var busiest [][2]int
	for _, wins := range s.acks.windows {
		if len(wins) > len(busiest) {
			busiest = wins
		}
	}
	led := dp.NewLedger("probe", cameraEps)
	charge := func(w [2]int) []dp.Charge {
		return []dp.Charge{{Interval: vtime.NewInterval(int64(w[0])*framesPerMin, int64(w[1])*framesPerMin), Eps: queryEps}}
	}
	for _, w := range busiest {
		led.Spend(charge(w))
	}
	rho := camPolicy.RhoFrames(vtime.FrameRate(fleetFPS))
	pr.unit["dp.reserve_us"] = us(timeIt(func(i int) {
		if id, err := led.Reserve(charge(busiest[i%len(busiest)]), rho); err == nil {
			led.Finalize(id)
		}
	}))
	noise := dp.NewNoise(1)
	pr.unit["dp.laplace_ns"] = float64(timeIt(func(int) { noise.Laplace(1) }))

	// store: what each fsync the durable stacks elide would cost on the
	// checkout's device — an append of a commit's size, then a real fsync.
	if s.w.durable {
		f, err := os.Create(filepath.Join(s.dir, "probe-fsync"))
		if err != nil {
			return pr, err
		}
		defer f.Close()
		record := make([]byte, 512)
		var syncErr error
		pr.unit["store.fsync_ms"] = ms(timeIt(func(int) {
			if _, err := f.Write(record); err != nil {
				syncErr = err
			}
			if err := f.Sync(); err != nil {
				syncErr = err
			}
		}))
		if syncErr != nil {
			return pr, syncErr
		}
	}
	return pr, nil
}
