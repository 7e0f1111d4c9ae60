package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is a metric family's type, as rendered in the Prometheus # TYPE
// line.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// entry is one registered metric child: a family name plus a fixed label
// set, bound to exactly one of the value holders. Pull-based children
// (cfn/gfn) read their value at render time, so instrumented subsystems
// that already keep atomic counters expose them with zero added hot-path
// cost.
type entry struct {
	name   string
	labels []label
	id     string // name + rendered label block; the registry key
	kind   Kind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	// The callbacks are atomic because re-registration replaces them while
	// a render may be reading them.
	cfn atomic.Pointer[func() uint64]
	gfn atomic.Pointer[func() float64]
}

type label struct{ key, value string }

// Registry holds named metrics and renders them. All methods are safe for
// concurrent use; registration is idempotent (re-registering an existing
// name+label set returns the existing metric, or — for the func variants —
// replaces the callback, so subsystems that rebuild state, like the
// middlebox's per-device breakers, can re-register on every rebuild).
type Registry struct {
	mu      sync.RWMutex
	byID    map[string]*entry
	kinds   map[string]Kind   // family name -> kind, enforced across children
	help    map[string]string // family name -> # HELP text
	ordered []*entry          // sorted by (name, id); rebuilt lazily
	dirty   bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byID:  make(map[string]*entry),
		kinds: make(map[string]Kind),
		help:  make(map[string]string),
	}
}

// SetHelp attaches a # HELP line to a metric family.
func (r *Registry) SetHelp(name, text string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = text
}

// Counter returns the counter registered under name and the given
// key/value label pairs, creating it on first use.
func (r *Registry) Counter(name string, kv ...string) *Counter {
	var c *Counter
	r.register(name, KindCounter, kv, func(e *entry) {
		if e.counter == nil && e.cfn.Load() == nil {
			e.counter = newCounter()
		}
		if e.counter == nil {
			panic("obs: " + e.id + " is registered as a pull-based counter")
		}
		c = e.counter
	})
	return c
}

// CounterFunc registers a pull-based counter: fn is read at render time.
// Re-registering the same name+labels replaces the callback.
func (r *Registry) CounterFunc(name string, fn func() uint64, kv ...string) {
	r.register(name, KindCounter, kv, func(e *entry) {
		if e.counter != nil {
			panic("obs: " + e.id + " is registered as a direct counter")
		}
		e.cfn.Store(&fn)
	})
}

// Gauge returns the gauge registered under name and the given label pairs,
// creating it on first use.
func (r *Registry) Gauge(name string, kv ...string) *Gauge {
	var g *Gauge
	r.register(name, KindGauge, kv, func(e *entry) {
		if e.gauge == nil && e.gfn.Load() == nil {
			e.gauge = &Gauge{}
		}
		if e.gauge == nil {
			panic("obs: " + e.id + " is registered as a pull-based gauge")
		}
		g = e.gauge
	})
	return g
}

// GaugeFunc registers a pull-based gauge: fn is read at render time.
// Re-registering the same name+labels replaces the callback.
func (r *Registry) GaugeFunc(name string, fn func() float64, kv ...string) {
	r.register(name, KindGauge, kv, func(e *entry) {
		if e.gauge != nil {
			panic("obs: " + e.id + " is registered as a direct gauge")
		}
		e.gfn.Store(&fn)
	})
}

// Histogram returns the histogram registered under name and the given
// label pairs, creating it on first use with the given bucket upper bounds
// (nil selects DefaultLatencyBuckets). Buckets are fixed at creation;
// re-registration returns the existing histogram unchanged.
func (r *Registry) Histogram(name string, buckets []time.Duration, kv ...string) *Histogram {
	var h *Histogram
	r.register(name, KindHistogram, kv, func(e *entry) {
		if e.hist == nil {
			e.hist = newHistogram(buckets)
		}
		h = e.hist
	})
	return h
}

// Unregister removes the metric child with the given name and label set,
// reporting whether it existed. Used by dynamic children (per-subscriber
// stream gauges) whose subjects come and go.
func (r *Registry) Unregister(name string, kv ...string) bool {
	id := metricID(name, parseLabels(name, kv))
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byID[id]; !ok {
		return false
	}
	delete(r.byID, id)
	r.dirty = true
	for _, e := range r.byID {
		if e.name == name {
			return true
		}
	}
	// Last child of the family: release its kind and help so the name can
	// be registered afresh (even as a different kind) after churn.
	delete(r.kinds, name)
	delete(r.help, name)
	return true
}

// register finds or creates the entry for name+labels, enforcing one kind
// per family, then invokes bind on it while r.mu is still held — so an
// entry is never visible to a render without its holder or callback set,
// and two racing creators of the same child bind against one entry. A new
// entry is published only after bind returns, so a panicking bind (kind
// conflict) leaves no half-registered child behind.
func (r *Registry) register(name string, kind Kind, kv []string, bind func(*entry)) {
	labels := parseLabels(name, kv)
	id := metricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	e, existing := r.byID[id]
	if existing {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: %s already registered as a %s, not a %s", id, e.kind, kind))
		}
	} else {
		if k, ok := r.kinds[name]; ok && k != kind {
			panic(fmt.Sprintf("obs: family %s already registered as a %s, not a %s", name, k, kind))
		}
		e = &entry{name: name, labels: labels, id: id, kind: kind}
	}
	bind(e)
	if !existing {
		r.kinds[name] = kind
		r.byID[id] = e
		r.dirty = true
	}
}

// entries returns the registered children sorted by family name then label
// block — the deterministic render order both expositions share.
func (r *Registry) entries() []*entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dirty {
		r.ordered = make([]*entry, 0, len(r.byID))
		for _, e := range r.byID {
			r.ordered = append(r.ordered, e)
		}
		sort.Slice(r.ordered, func(i, j int) bool {
			if r.ordered[i].name != r.ordered[j].name {
				return r.ordered[i].name < r.ordered[j].name
			}
			return r.ordered[i].id < r.ordered[j].id
		})
		r.dirty = false
	}
	return r.ordered
}

// helpFor returns the family's # HELP text, if set.
func (r *Registry) helpFor(name string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.help[name]
}

// parseLabels validates and pairs up a variadic key/value list.
func parseLabels(name string, kv []string) []label {
	if len(kv)%2 != 0 {
		panic("obs: " + name + ": odd label key/value list")
	}
	if len(kv) == 0 {
		return nil
	}
	labels := make([]label, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		if kv[i] == "" {
			panic("obs: " + name + ": empty label key")
		}
		if !validLabelName(kv[i]) {
			panic("obs: " + name + ": invalid label key " + kv[i])
		}
		labels = append(labels, label{key: kv[i], value: kv[i+1]})
	}
	sort.SliceStable(labels, func(i, j int) bool { return labels[i].key < labels[j].key })
	for i := 1; i < len(labels); i++ {
		if labels[i].key == labels[i-1].key {
			panic("obs: " + name + ": duplicate label key " + labels[i].key)
		}
	}
	return labels
}

// validLabelName applies the Prometheus label-name grammar
// [a-zA-Z_][a-zA-Z0-9_]*: label keys are rendered unescaped into the
// exposition, so a key outside the grammar would corrupt every scrape.
func validLabelName(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return len(s) > 0
}

// metricID renders the canonical child identity: the family name plus the
// sorted, escaped label block (empty when there are no labels).
func metricID(name string, labels []label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteString(labelBlock(labels, ""))
	return b.String()
}

// labelBlock renders {k="v",...} with an optional extra label appended
// verbatim (the histogram le bucket label). Returns "" for an empty set.
func labelBlock(labels []label, extra string) string {
	if len(labels) == 0 && extra == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.value))
		b.WriteByte('"')
	}
	if extra != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra)
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue applies the Prometheus label-value escaping rules.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}
