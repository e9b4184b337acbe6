package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Layers, in the order they are reported. A span is attributed to the
// layer whose public function it wraps.
const (
	lFront     = "front"     // workloads, ir, opt
	lBackend   = "backend"   // codegen, mir, asm, vx
	lInjectors = "injectors" // core, llfi, pinfi, multibit, opcodefi
	lVM        = "vm"
	lRunner    = "campaign.runner" // campaign runner and collector
	lPersist   = "campaign.persist"
	lSched     = "sched"
	lShard     = "shard"
	lServe     = "serve"
	lTables    = "experiments" // experiments and stats: table rendering
)

var layers = []string{lFront, lBackend, lInjectors, lVM, lRunner, lPersist, lSched, lShard, lServe, lTables}

// span is one call into a layer. Spans of one campaign or submission share
// a Group. Calib marks calibration calls made only to split composite spans;
// they are written out but do not count as the workload's busy time.
type span struct {
	ID     int64
	Parent int64
	Group  string
	Name   string
	Layer  string
	Start  time.Duration // since the tracer started
	End    time.Duration
	Calib  bool
	// Width is the number of workers a span holds for its duration (0
	// means 1): its capacity is Width × duration, and its self time is
	// that capacity less the time spent in its child spans.
	Width int `json:",omitempty"`
	// Split estimates how much of a composite span's self time belongs to
	// other layers (milliseconds); the rest stays with Layer.
	Split map[string]float64 `json:",omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	root  atomic.Int64 // the open phase span, parent of new spans
	mu    sync.Mutex
	spans []*span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span under the open phase; close it with done. A nil
// tracer records nothing, so untraced code paths can share the call sites.
func (t *tracer) open(group, name, layer string) *span {
	if t == nil {
		return &span{}
	}
	return &span{ID: t.next.Add(1), Parent: t.root.Load(), Group: group, Name: name,
		Layer: layer, Start: time.Since(t.t0)}
}

func (t *tracer) done(s *span) {
	if t == nil {
		return
	}
	s.End = time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// phase opens a root span — a pass, a round or a submission — that parents
// every span opened until the returned function closes it. Phases carry no
// layer: they group work and do not count as busy time. Phases do not nest;
// an executor job (run.each) nests inside one.
func (t *tracer) phase(group, name string) (end func()) {
	if t == nil {
		return func() {}
	}
	s := t.open(group, name, "")
	t.root.Store(s.ID)
	return func() {
		t.root.Store(0)
		t.done(s)
	}
}

// span runs fn inside a span and returns fn's duration, which is measured
// whether or not the run is traced.
func (t *tracer) span(group, name, layer string, calib bool, fn func()) time.Duration {
	s := t.open(group, name, layer)
	s.Calib = calib
	start := time.Now()
	fn()
	d := time.Since(start)
	t.done(s)
	return d
}

// calib runs fn inside a calibration span.
func (t *tracer) calib(group, name, layer string, fn func()) time.Duration {
	return t.span(group, name, layer, true, fn)
}

// busy returns each layer's self time in milliseconds over the non-
// calibration spans that started at or after since. A span's self time is
// its capacity (Width × duration) less the durations of its child spans;
// for a leaf that is its duration.
func (t *tracer) busy(since time.Duration) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	counted := func(s *span) bool { return !s.Calib && s.Start >= since && s.Layer != "" }
	children := map[int64]float64{}
	for _, s := range t.spans {
		if counted(s) {
			children[s.Parent] += ms(s.End - s.Start)
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		if !counted(s) {
			continue
		}
		self := max(float64(max(s.Width, 1))*ms(s.End-s.Start)-children[s.ID], 0)
		for l, v := range s.Split {
			v = min(v, self)
			out[l] += v
			self -= v
		}
		out[s.Layer] += self
	}
	return out
}

// write stores every span and the host stamp as JSON.
func (t *tracer) write(path, host string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Host  string
		Spans []*span
	}{host, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// reportLayers publishes each layer's self time and its share of busy time
// over the spans recorded since the given offset.
func (r *run) reportLayers(since time.Duration) map[string]float64 {
	b := r.tracer.busy(since)
	var total float64
	for _, v := range b {
		total += v
	}
	for _, l := range layers {
		r.set("layer."+l+".self_ms", b[l], "ms")
		r.set("layer."+l+".share", b[l]/max(total, 1e-9), "frac")
	}
	return b
}

// sourceID identifies the code under test: the git commit when the checkout
// has one, else a digest of the Go sources.
func sourceID() string {
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		if !strings.HasPrefix(ref, "ref: ") {
			return ref
		}
		if b, err := os.ReadFile(filepath.Join(".git", strings.TrimPrefix(ref, "ref: "))); err == nil {
			return strings.TrimSpace(string(b))
		}
	}
	h := sha256.New()
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			f, err := os.Open(p)
			if err != nil {
				return nil
			}
			defer f.Close()
			io.WriteString(h, p)
			io.Copy(h, f)
		}
		return nil
	})
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}
