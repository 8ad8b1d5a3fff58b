package workflow

// Plan compilation and the engine's scheduler. Compile validates a
// workflow, resolves every capability, derives the dependency graph
// and prepares every step fingerprint once; RunCompiled walks the
// precomputed schedule. Engine.Run is the two in sequence, and a
// caller that replays one plan (core's plan cache) compiles it once
// and calls RunCompiled on every replay:
//
//   - capability pointers are resolved at compile time (the registry
//     is immutable per generation, and plan caches key on the
//     generation, so the pointers stay valid exactly as long as the
//     plan itself);
//   - literal inputs are pre-canonicalized into the fingerprint
//     preimage, and the dependency schedule (index map, dependents
//     adjacency, indegrees, initial ready set) is precomputed;
//   - per-step fingerprint preimages are precomputed byte templates
//     with two kinds of runtime holes: the env-key suffix (substituted
//     per environment fingerprint) and 32-byte upstream digests
//     (substituted as upstream fingerprints resolve). A warm run hashes
//     nothing: the resolved fingerprint vector is memoized per
//     environment fingerprint on the CompiledPlan itself;
//   - scheduler scratch (indegree copy, ready queue) comes from a
//     sync.Pool, and per-step provenance/value-key strings that do not
//     depend on timings are preformatted. (Result, Values, Outputs and
//     StepStats escape to the caller and are never pooled.)
//   - the Result of a fully cached run is memoized on the plan, with
//     the output map the cache gave each step: a replay whose every
//     step the cache still serves with that very map returns the same
//     Result, so a repeated fully cached replay allocates nothing for
//     its Result and re-runs no quality check.

import (
	"context"
	"crypto/sha256"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"arachnet/internal/registry"
)

// CompiledPlan is the executable artifact of one validated Workflow
// against one registry generation. It is immutable after Compile
// (the memoized fingerprint vector is swapped atomically) and safe
// for concurrent RunCompiled calls.
type CompiledPlan struct {
	w     *Workflow
	index map[string]int // step ID → workflow index
	steps []compiledStep

	// Precomputed schedule: Ref-derived dependency graph.
	dependents [][]int
	indegree   []int // template; copied into pooled scratch per run
	ready0     []int
	nValues    int // total declared outputs across steps (Values presize)

	memoizable bool // at least one step has a fingerprint template
	// fpBytes and fpSegs hold every step's fingerprint template; see
	// compiledStep.
	fpBytes []byte
	fpSegs  []fpSeg

	// fp memoizes the resolved fingerprint vector for the most recent
	// environment fingerprint; fpMu serializes recomputation so
	// concurrent runs against a fresh environment hash once, not N
	// times.
	fp   atomic.Pointer[compiledFPs]
	fpMu sync.Mutex

	// replay memoizes the Result of a fully cached run (see
	// RunCompiled). cachedRun records that one such run has happened:
	// the memo is stored from the second on, so a plan that runs once
	// allocates nothing for it.
	replay    atomic.Pointer[replayMemo]
	cachedRun atomic.Bool
}

type compiledFPs struct {
	envFP string
	fps   []string
}

// replayMemo is the Result of a successful run, at environment
// fingerprint envFP, in which the cache served every step; outs[i] is
// the output map it served step i.
type replayMemo struct {
	envFP string
	outs  []map[string]any
	res   *Result
}

// sameMap reports whether a and b are one map, not merely equal ones.
func sameMap(a, b map[string]any) bool {
	return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
}

// compiledStep is one step with everything Run re-derives per
// execution resolved ahead of time.
type compiledStep struct {
	step         *Step
	capb         *registry.Capability
	dispatchable bool          // Pure and not pinned to the coordinator
	refs         []compiledRef // Ref inputs, for input-map assembly
	lits         []compiledLit // literal inputs, pre-extracted
	valueKeys    []string      // "stepID.port" per declared output
	cachedProv   string        // provenance line for a cache hit

	// Fingerprint preimage template (fpOK steps only), as offsets into
	// the plan's fpBytes and fpSegs: fpBytes[fpLo:fpPre] holds the
	// bytes up to and including the "env" label field; at resolve time
	// the env key is appended, then the static bytes of each segment in
	// fpSegs[segLo:segHi] followed by the named upstream's 32-byte
	// digest.
	fpOK         bool
	fpLo, fpPre  int
	segLo, segHi int
}

type compiledRef struct {
	name string
	ref  string
	up   int // the producing step's index
}

type compiledLit struct {
	name string
	val  any
}

// fpSeg is one run of static preimage bytes, which end at fpBytes[end]
// and start where the step's previous segment (or its pre bytes)
// ended, optionally followed by an upstream step's digest (upstream < 0
// means trailing static bytes).
type fpSeg struct {
	end      int
	upstream int
}

// fpField appends length-prefixed parts to a fingerprint preimage.
// Each part is length-prefixed so parts containing any byte sequence
// (literals come from arbitrary user queries) can never forge a field
// boundary and collide two distinct input sets. The preimage layout is
// the key format of the local step cache, the worker caches and cache
// snapshots, so it must not change; a golden-digest test pins it.
func fpField(b []byte, parts ...string) []byte {
	for _, p := range parts {
		b = strconv.AppendInt(b, int64(len(p)), 10)
		b = append(b, ':')
		b = append(b, p...)
	}
	return b
}

// Compile validates w against reg and lowers it into a CompiledPlan.
// The artifact is tied to reg's current contents: callers that key
// their plan caches on the registry generation (as core does) get
// invalidation for free; anyone else must discard the plan when the
// registry changes.
//
// A step naming a composite compiles as the composite's chain (see
// expand), so the plan runs, caches and dispatches only primitives,
// and its Result names the chain's steps.
//
// Compile keeps the step index and the capabilities validation
// resolved, and counts its tables before filling them, so each is
// allocated once, at its exact size, and shared by all steps: the
// cache-hit provenance lines and value keys are substrings of one
// string, the ref, literal and dependents tables are sub-slices of one
// slice each, capped so that no append writes into a neighbour, and
// the fingerprint templates lie in one byte slice.
func Compile(w *Workflow, reg *registry.Registry) (*CompiledPlan, error) {
	n := len(w.Steps)
	sc := compileScratchPool.Get().(*compileScratch)
	defer sc.release()
	sc.reset(n)
	index := make(map[string]int, n)
	if err := w.validate(reg, index, sc.caps); err != nil {
		return nil, err
	}
	if x := expand(w, sc.caps); x != nil {
		w, n = x, len(x.Steps)
		sc.reset(n)
		index = make(map[string]int, n)
		if err := w.validate(reg, index, sc.caps); err != nil {
			return nil, err
		}
	}

	nRefs, nLits, nOut, nText := 0, 0, 0, 0
	for i := range w.Steps {
		s := &w.Steps[i]
		for _, b := range s.Inputs {
			if b.IsRef() {
				nRefs++
			} else {
				nLits++
			}
		}
		outs := sc.caps[i].Outputs
		nOut += len(outs)
		nText += len("step ") + len(s.ID) + len(" (") + len(s.Capability) + len("): ok (cached)")
		for _, out := range outs {
			nText += len(s.ID) + len(".") + len(out.Name)
		}
	}
	cp := &CompiledPlan{
		w:          w,
		index:      index,
		steps:      make([]compiledStep, n),
		dependents: make([][]int, n),
		indegree:   make([]int, n),
		nValues:    nOut,
	}
	refs := make([]compiledRef, nRefs)
	lits := make([]compiledLit, nLits)
	keys := make([]string, nOut)
	// A Builder never rewrites what it has written, so a substring of
	// text stays valid as more is appended.
	var text strings.Builder
	text.Grow(nText)
	ri, li, ki := 0, 0, 0
	for i := range w.Steps {
		s := &w.Steps[i]
		capb := sc.caps[i]
		cs := &cp.steps[i]
		cs.step = s
		cs.capb = capb
		cs.dispatchable = capb.Pure && s.Affinity != AffinityCoordinator
		start := text.Len()
		text.WriteString("step ")
		text.WriteString(s.ID)
		text.WriteString(" (")
		text.WriteString(s.Capability)
		text.WriteString("): ok (cached)")
		cs.cachedProv = text.String()[start:]
		k0 := ki
		for _, out := range capb.Outputs {
			start = text.Len()
			text.WriteString(s.ID)
			text.WriteByte('.')
			text.WriteString(out.Name)
			keys[ki] = text.String()[start:]
			ki++
		}
		cs.valueKeys = keys[k0:ki:ki]

		// Inputs in the sorted order fingerprints use; the same order
		// serves input-map assembly (map fill order is irrelevant).
		sc.names = sc.names[:0]
		for name := range s.Inputs {
			sc.names = append(sc.names, name)
		}
		slices.Sort(sc.names)
		r0, l0 := ri, li
		for _, name := range sc.names {
			b := s.Inputs[name]
			if b.IsRef() {
				refs[ri] = compiledRef{name: name, ref: b.Ref, up: index[RefStepID(b.Ref)]}
				ri++
			} else {
				lits[li] = compiledLit{name: name, val: b.Literal}
				li++
			}
		}
		cs.refs, cs.lits = refs[r0:ri:ri], lits[l0:li:li]
		for k, r := range cs.refs {
			if firstRefTo(cs.refs, k) {
				sc.deg[r.up]++
				cp.indegree[i]++
			}
		}

		// A step is not memoizable when its capability is impure, a
		// literal has no canonical form, or an upstream is not
		// memoizable — all decidable at compile time.
		if capb.Pure {
			sc.template(cp, i)
		}
	}

	// Dependency edges, one per distinct upstream step, each step's
	// dependents in step order.
	edges, ready := 0, 0
	for _, d := range cp.indegree {
		edges += d
		if d == 0 {
			ready++
		}
	}
	deps := make([]int, edges)
	off := 0
	for src, d := range sc.deg {
		cp.dependents[src] = deps[off : off : off+d]
		off += d
	}
	cp.ready0 = make([]int, 0, ready)
	for i := range cp.steps {
		refs := cp.steps[i].refs
		for k, r := range refs {
			if firstRefTo(refs, k) {
				cp.dependents[r.up] = append(cp.dependents[r.up], i)
			}
		}
		if cp.indegree[i] == 0 {
			cp.ready0 = append(cp.ready0, i)
		}
	}
	cp.fpBytes = make([]byte, len(sc.tmpl))
	copy(cp.fpBytes, sc.tmpl)
	cp.fpSegs = make([]fpSeg, len(sc.segs))
	copy(cp.fpSegs, sc.segs)
	return cp, nil
}

// expand returns w with every step that names a composite, per caps,
// replaced by the composite's chain, or nil when no step names one.
// The head takes the step's bindings, and each later chain step binds
// its inputs to earlier ones. The tail keeps the step's ID, so refs to
// the step, the workflow's outputs and its checks resolve to the tail;
// the steps before it are named "<id>_<k>", k counting from 1. Every
// chain step inherits the step's Phase and Affinity.
func expand(w *Workflow, caps []*registry.Capability) *Workflow {
	n := 0
	for _, c := range caps {
		n += len(c.Chain)
	}
	if n == 0 {
		return nil
	}
	steps := make([]Step, 0, len(w.Steps)+n)
	for i, s := range w.Steps {
		chain := caps[i].Chain
		if len(chain) == 0 {
			steps = append(steps, s)
			continue
		}
		id := func(k int) string {
			if k == len(chain)-1 {
				return s.ID
			}
			return s.ID + "_" + strconv.Itoa(k+1)
		}
		for k, cs := range chain {
			st := Step{ID: id(k), Capability: cs.Capability, Inputs: s.Inputs, Phase: s.Phase, Affinity: s.Affinity}
			if k > 0 {
				st.Inputs = make(map[string]Binding, len(cs.In))
				for name, r := range cs.In {
					st.Inputs[name] = Ref(id(r.Step), r.Port)
				}
			}
			steps = append(steps, st)
		}
	}
	x := *w
	x.Steps = steps
	return &x
}

// firstRefTo reports whether refs[k] is the first of refs to read its
// upstream step, so that each step depends on an upstream once.
func firstRefTo(refs []compiledRef, k int) bool {
	for _, r := range refs[:k] {
		if r.up == refs[k].up {
			return false
		}
	}
	return true
}

// compileScratch is Compile's pooled working memory. Nothing in it
// outlives a call.
type compileScratch struct {
	caps  []*registry.Capability // each step's capability, as validated
	deg   []int                  // each step's number of dependents
	names []string               // one step's input names, sorted
	tmpl  []byte                 // the fingerprint templates, before their exact-size copy
	segs  []fpSeg
	lit   []byte // one literal's canonical encoding
}

var compileScratchPool = sync.Pool{New: func() any { return new(compileScratch) }}

// reset readies sc for a workflow of n steps.
func (sc *compileScratch) reset(n int) {
	if cap(sc.caps) < n {
		sc.caps = make([]*registry.Capability, n)
	}
	if cap(sc.deg) < n {
		sc.deg = make([]int, n)
	}
	sc.caps, sc.deg = sc.caps[:n], sc.deg[:n]
	clear(sc.deg)
	sc.tmpl, sc.segs = sc.tmpl[:0], sc.segs[:0]
}

// release drops sc's references into the workflow and registry and
// returns it to the pool.
func (sc *compileScratch) release() {
	clear(sc.caps)
	clear(sc.names[:cap(sc.names)])
	compileScratchPool.Put(sc)
}

// template appends step i's fingerprint preimage template to sc.tmpl
// and sc.segs and records its offsets on the step, or leaves both as
// they were when the step is not memoizable.
func (sc *compileScratch) template(cp *CompiledPlan, i int) {
	cs := &cp.steps[i]
	s := cs.step
	lo, segLo := len(sc.tmpl), len(sc.segs)
	t := fpField(sc.tmpl, "cap", s.Capability, "env")
	pre := len(t)
	for _, name := range sc.names {
		b := s.Inputs[name]
		if b.IsRef() {
			up := cp.index[RefStepID(b.Ref)]
			if !cp.steps[up].fpOK {
				sc.tmpl, sc.segs = t[:lo], sc.segs[:segLo]
				return
			}
			// field(buf, "r", name, up, port) with up always a raw
			// 32-byte sha256 digest, so its length prefix is the
			// static "32:".
			t = fpField(t, "r", name)
			t = append(t, "32:"...)
			sc.segs = append(sc.segs, fpSeg{end: len(t), upstream: up})
			t = fpField(t, RefPort(b.Ref))
			continue
		}
		lit, err := appendCanonical(sc.lit[:0], b.Literal)
		sc.lit = lit
		if err != nil {
			sc.tmpl, sc.segs = t[:lo], sc.segs[:segLo]
			return
		}
		// fpField(t, "l", name, lit), without lit becoming a string.
		t = fpField(t, "l", name)
		t = strconv.AppendInt(t, int64(len(lit)), 10)
		t = append(t, ':')
		t = append(t, lit...)
	}
	sc.segs = append(sc.segs, fpSeg{end: len(t), upstream: -1})
	sc.tmpl = t
	cs.fpOK = true
	cs.fpLo, cs.fpPre = lo, pre
	cs.segLo, cs.segHi = segLo, len(sc.segs)
	cp.memoizable = true
}

// fingerprintsFor resolves the per-step cache keys against the
// engine's environment by substituting only the env-key suffix (and
// chained upstream digests) into the precompiled preimages, then
// memoizes the vector keyed by the engine's environment fingerprint —
// repeated warm runs hash nothing. Every digest is a substring of one
// string.
//
// Contract: the engine's envKeyer must be a pure function of the
// capability and of the environment state its envFP identifies (true
// of core's keyer, which reads the one environment epoch that envFP
// names). Two engines sharing a CompiledPlan must observe the same
// environment.
func (cp *CompiledPlan) fingerprintsFor(e *Engine) []string {
	if p := cp.fp.Load(); p != nil && p.envFP == e.envFP {
		return p.fps
	}
	cp.fpMu.Lock()
	defer cp.fpMu.Unlock()
	if p := cp.fp.Load(); p != nil && p.envFP == e.envFP {
		return p.fps
	}
	fps := make([]string, len(cp.steps))
	nfp := 0
	for i := range cp.steps {
		if cp.steps[i].fpOK {
			nfp++
		}
	}
	// As in Compile, a digest sliced out of digests stays valid as
	// later ones are appended.
	var digests strings.Builder
	digests.Grow(nfp * sha256.Size)
	buf := make([]byte, 0, 256)
	for i := range cp.steps {
		cs := &cp.steps[i]
		if !cs.fpOK {
			continue
		}
		envKey := e.envFP
		if e.envKeyer != nil {
			if k := e.envKeyer(cs.capb); k != "" {
				envKey = k
			}
		}
		buf = append(buf[:0], cp.fpBytes[cs.fpLo:cs.fpPre]...)
		buf = strconv.AppendInt(buf, int64(len(envKey)), 10)
		buf = append(buf, ':')
		buf = append(buf, envKey...)
		from := cs.fpPre
		for _, seg := range cp.fpSegs[cs.segLo:cs.segHi] {
			buf = append(buf, cp.fpBytes[from:seg.end]...)
			from = seg.end
			if seg.upstream >= 0 {
				buf = append(buf, fps[seg.upstream]...)
			}
		}
		sum := sha256.Sum256(buf)
		start := digests.Len()
		digests.Write(sum[:])
		fps[i] = digests.String()[start:]
	}
	cp.fp.Store(&compiledFPs{envFP: e.envFP, fps: fps})
	return fps
}

// stepDone is a completed step reported back to the scheduler.
type stepDone struct {
	idx  int
	stat StepStat
	out  map[string]any
}

// runScratch is the pooled per-run scheduler state: the working
// indegree copy, the ready queue and the output map the cache served
// each step. Nothing in it escapes a run.
type runScratch struct {
	indegree []int
	ready    []int
	outs     []map[string]any
}

var runScratchPool = sync.Pool{New: func() any { return new(runScratch) }}

// RunCompiled executes a compiled plan, reporting each step to obs
// (nil means no observer). Ready steps (all Ref dependencies
// satisfied) execute concurrently up to the engine's parallelism. A
// step error stops new steps from launching, waits for in-flight ones,
// and is returned as a *StepError; cancellation of ctx aborts the run
// the same way with the context's error. Quality checks never abort.
//
// A run in which the cache serves every step returns the Result
// memoized on the plan when, at the engine's environment fingerprint,
// the cache served each step the very output map the memo was built
// from and ctx is not done; obs sees the same calls either way. That
// Result is shared with every such replay, so no caller may modify a
// Result.
func (e *Engine) RunCompiled(ctx context.Context, cp *CompiledPlan, obs Observer) (*Result, error) {
	if cp == nil {
		return nil, fmt.Errorf("workflow: nil compiled plan")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	w := cp.w
	n := len(cp.steps)

	sc := runScratchPool.Get().(*runScratch)
	if cap(sc.indegree) < n {
		sc.indegree = make([]int, n)
		sc.outs = make([]map[string]any, n)
	}
	indegree := sc.indegree[:n]
	copy(indegree, cp.indegree)
	outs := sc.outs[:n]
	ready := append(sc.ready[:0], cp.ready0...)
	defer func() {
		clear(outs)
		sc.ready = ready[:0]
		runScratchPool.Put(sc)
	}()

	// Fingerprints exist only for an engine with a cache: an uncached
	// run neither reads nor writes any cache, its dispatcher's worker
	// caches included.
	var fps []string
	if e.cache != nil && cp.memoizable {
		fps = cp.fingerprintsFor(e)
	}
	// While memo is set, every step settled so far was served the map
	// memo holds for it, and res is not built: leaveMemo builds it
	// when a step is not.
	var memo *replayMemo
	var res *Result
	if m := cp.replay.Load(); fps != nil && m != nil && m.envFP == e.envFP {
		memo = m
	} else {
		res = cp.newResult()
	}
	finished := func(stat StepStat) {
		if obs != nil {
			obs.StepFinished(stat)
		}
	}

	// The done channel is allocated lazily: a fully cached replay
	// settles every step inline on the scheduler goroutine and never
	// needs it. The ready queue pops via a head cursor so the pooled
	// buffer keeps its capacity across runs.
	var done chan stepDone
	running := 0
	head := 0
	allCached := true
	var firstErr error

	// record adds a settled step to res. It returns the stat to report
	// and false when the step failed or broke its output contract.
	record := func(d stepDone) (StepStat, bool) {
		cs := &cp.steps[d.idx]
		s := cs.step
		res.Steps = append(res.Steps, d.stat)
		if d.stat.Err != nil {
			res.Provenance = append(res.Provenance,
				fmt.Sprintf("step %s (%s): FAILED: %v", s.ID, s.Capability, d.stat.Err))
			if firstErr == nil {
				firstErr = &StepError{Step: s.ID, Capability: s.Capability, Err: d.stat.Err}
			}
			return d.stat, false
		}
		for oi, out := range cs.capb.Outputs {
			v, ok := d.out[out.Name]
			if !ok {
				contractErr := fmt.Errorf("capability %q did not produce output %q", s.Capability, out.Name)
				if firstErr == nil {
					firstErr = &StepError{Step: s.ID, Capability: s.Capability, Err: contractErr}
				}
				notify := d.stat
				notify.Err = contractErr
				return notify, false
			}
			res.Values[cs.valueKeys[oi]] = v
		}
		if d.stat.Cached {
			res.Provenance = append(res.Provenance, cs.cachedProv)
		} else {
			if fps != nil && fps[d.idx] != "" {
				e.cache.Put(fps[d.idx], d.out)
			}
			res.Provenance = append(res.Provenance,
				fmt.Sprintf("step %s (%s): ok in %v", s.ID, s.Capability, d.stat.Duration.Round(time.Microsecond)))
		}
		return d.stat, true
	}

	settle := func(d stepDone) {
		if memo == nil {
			if stat, ok := record(d); !ok {
				finished(stat)
				return
			}
		}
		finished(d.stat)
		for _, j := range cp.dependents[d.idx] {
			indegree[j]--
			if indegree[j] == 0 {
				ready = append(ready, j)
			}
		}
	}

	// leaveMemo builds res from the steps settled on the memo, in the
	// order they settled, and stops following the memo.
	leaveMemo := func(settled []int) {
		res = cp.newResult()
		for _, j := range settled {
			record(stepDone{idx: j, stat: cp.steps[j].cachedStat(), out: memo.outs[j]})
		}
		memo = nil
	}

	launch := func(i int) {
		cs := &cp.steps[i]
		s := cs.step
		capb := cs.capb
		if obs != nil {
			obs.StepStarted(s.ID, s.Capability)
		}
		if fps != nil && fps[i] != "" {
			if out, ok := e.cache.Get(fps[i]); ok {
				outs[i] = out
				if memo != nil && !sameMap(out, memo.outs[i]) {
					// Steps settle in launch order, so the ones before
					// this step are the queue up to it.
					leaveMemo(ready[:head-1])
				}
				settle(stepDone{idx: i, stat: cs.cachedStat(), out: out})
				return
			}
		}
		allCached = false
		if memo != nil {
			leaveMemo(ready[:head-1])
		}
		in := make(map[string]any, len(cs.refs)+len(cs.lits))
		for _, r := range cs.refs {
			in[r.name] = res.Values[r.ref]
		}
		for _, l := range cs.lits {
			in[l.name] = l.val
		}
		running++
		if done == nil {
			done = make(chan stepDone)
		}
		dispatch := e.dispatcher != nil && cs.dispatchable
		fp := ""
		if fps != nil {
			fp = fps[i]
		}
		// done is passed, not captured, so a run that launches nothing
		// keeps the variable off the heap.
		go func(done chan<- stepDone) {
			start := time.Now()
			if dispatch {
				out, handled, err := func() (out map[string]any, handled bool, err error) {
					// Dispatch shares the panic containment of local
					// capability calls: a broken merge or transport must
					// fail the step, not the process.
					defer func() {
						if r := recover(); r != nil {
							handled, err = true, fmt.Errorf("dispatch panicked: %v", r)
						}
					}()
					return e.dispatcher.DispatchStep(ctx, capb, in, e.env, fp)
				}()
				if handled {
					done <- stepDone{
						idx:  i,
						stat: StepStat{ID: s.ID, Capability: s.Capability, Duration: time.Since(start), Err: err, Remote: true},
						out:  out,
					}
					return
				}
			}
			// Not dispatchable, or declined: run the capability here.
			call := &registry.Call{In: in, Out: map[string]any{}, Env: e.env, Ctx: ctx}
			err := e.safeCall(capb, call)
			done <- stepDone{
				idx:  i,
				stat: StepStat{ID: s.ID, Capability: s.Capability, Duration: time.Since(start), Err: err},
				out:  call.Out,
			}
		}(done)
	}

	for {
		for firstErr == nil && ctx.Err() == nil && len(ready) > head && running < e.parallelism {
			next := ready[head]
			head++
			launch(next)
		}
		if running == 0 {
			break
		}
		d := <-done
		running--
		settle(d)
	}

	if memo != nil {
		if ctx.Err() == nil {
			return memo.res, nil
		}
		leaveMemo(ready[:head])
	}

	// slices.SortFunc rather than sort.Slice: same deterministic order
	// (indexes are unique), no reflect.Swapper allocation per run.
	slices.SortFunc(res.Steps, func(a, b StepStat) int { return cp.index[a.ID] - cp.index[b.ID] })

	if firstErr != nil {
		return res, firstErr
	}
	if err := ctx.Err(); err != nil {
		return res, fmt.Errorf("workflow %q: %w", w.Name, err)
	}
	for name, ref := range w.Outputs {
		res.Outputs[name] = res.Values[ref]
	}
	for _, chk := range w.Checks {
		ok, note := chk.Assert(res.Values[chk.Ref])
		res.Checks = append(res.Checks, CheckResult{Name: chk.Name, Kind: chk.Kind, Passed: ok, Note: note})
		status := "pass"
		if !ok {
			status = "FAIL"
		}
		// Plain concatenation: one allocation, no Sprintf boxing.
		res.Provenance = append(res.Provenance,
			"check "+chk.Name+" ["+string(chk.Kind)+"]: "+status+" "+note)
	}
	if allCached && fps != nil {
		// The first fully cached run of a plan only marks it.
		if cp.cachedRun.Load() {
			cp.replay.Store(&replayMemo{envFP: e.envFP, outs: slices.Clone(outs), res: res})
		} else {
			cp.cachedRun.Store(true)
		}
	}
	return res, nil
}

// newResult returns an empty Result sized for one run of cp.
func (cp *CompiledPlan) newResult() *Result {
	return &Result{
		Values:     make(map[string]any, cp.nValues),
		Outputs:    make(map[string]any, len(cp.w.Outputs)),
		Steps:      make([]StepStat, 0, len(cp.steps)),
		Provenance: make([]string, 0, len(cp.steps)+len(cp.w.Checks)),
	}
}

// cachedStat is the stat of the step served from the cache.
func (cs *compiledStep) cachedStat() StepStat {
	return StepStat{ID: cs.step.ID, Capability: cs.step.Capability, Cached: true}
}
