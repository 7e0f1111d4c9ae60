// Package fleet multiplexes many independent lab middleboxes — each with
// its own devices, exec policies, circuit breakers, fault wrappers, and
// stream broker — behind one wire listener.
//
// The paper deploys one middlebox per robotic-arm lab (Fig. 1); the fleet
// router breaks that assumption so a single process can serve thousands of
// labs: requests carry an optional tenant ID (wire.Request.Tenant, zero-
// value compatible with every pre-fleet peer), and the Router resolves it
// through a striped-lock tenant table to a lazily-instantiated
// middlebox.Core. Per-tenant state is deliberately cheap — command
// catalogs are shared process-wide, wire buffers are pooled, dead letters
// land in per-tenant subdirectories of one DLQ root — and every
// aggregation path (Snapshot, the obs render callbacks) reads lock-free
// tenant state, so observing the fleet never stops, or even slows, a lab.
package fleet

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"rad/internal/middlebox"
	"rad/internal/obs"
	"rad/internal/obs/span"
	"rad/internal/store"
	"rad/internal/stream"
	"rad/internal/tracedb"
	"rad/internal/wire"
)

// DefaultTenant names the lab an untagged request reaches: a single-tenant
// peer that has never heard of tenancy keeps talking to "its" middlebox
// unchanged.
const DefaultTenant = "default"

// DefaultMaxTenants bounds how many labs one router will lazily
// instantiate. Tenant IDs arrive off the wire, so an unbounded table would
// let a hostile peer allocate a lab per garbage ID.
const DefaultMaxTenants = 4096

// stripeCount shards the tenant table. Power of two so the stripe pick is
// a mask, sized so that even a few hundred concurrently-active tenants
// rarely collide on a stripe lock.
const stripeCount = 64

// Resources is everything one tenant lab owns. Core is mandatory; the rest
// are optional capabilities the router exposes when present.
type Resources struct {
	// Core serves the tenant's exec/trace/ping traffic.
	Core *middlebox.Core
	// Broker, when set, is the tenant's live-stream fan-out
	// (stream.Server.SetTenantResolver routes tenant-tagged subscriptions
	// to it).
	Broker *stream.Broker
	// DB, when set, serves snapshot-then-follow tails for the tenant.
	DB *tracedb.DB
	// DLQ, when set, is the tenant's dead-letter queue; the router exports
	// its spill/drain counters under a tenant label.
	DLQ *store.DeadLetterQueue
	// Drain, when set, gracefully quiesces the lab (Router.Drain calls it
	// before the default broker/DB flush).
	Drain func(ctx context.Context) error
	// Close, when set, tears the lab down (Router.Close calls it).
	Close func() error
}

// Factory builds a tenant's resources on first use. It runs outside the
// tenant-table locks, so a slow factory (opening a tracedb, say) delays
// only requests for that tenant, never the rest of the fleet.
type Factory func(tenant string) (*Resources, error)

// Config parameterizes a Router.
type Config struct {
	// Factory instantiates tenants; required.
	Factory Factory
	// MaxTenants caps the number of instantiated tenants
	// (DefaultMaxTenants when 0); requests for new tenants past the cap
	// are rejected, existing tenants keep serving.
	MaxTenants int
	// Registry, when set, receives fleet rollups and per-tenant child
	// metrics as tenants come to life.
	Registry *obs.Registry
	// Spans, when set, is the process-wide span flight recorder. The router
	// itself records nothing — tenant Cores stamp spans with their tenant id
	// via the Factory — but a registered recorder gives each tenant a
	// buffered-span rollup gauge pair (spans, errors) next to its request
	// counter, so "which lab is tracing hot/failing" is one scrape away.
	Spans *span.Recorder
}

// Tenant is one instantiated lab: its resources plus routing accounting.
// The struct is created as a placeholder under the stripe lock and
// initialized exactly once outside it.
type Tenant struct {
	ID string

	once sync.Once
	// res is published atomically when the factory succeeds, so lock-free
	// walkers (Snapshot, the obs callbacks) can observe the tenant without
	// participating in the once. err is only read on the request path,
	// after once.Do's happens-before edge.
	res atomic.Pointer[Resources]
	err error

	requests atomic.Uint64 // requests routed to this tenant
}

// stripe is one shard of the tenant table.
type stripe struct {
	mu      sync.RWMutex
	tenants map[string]*Tenant
}

// Router implements middlebox.Handler by resolving each request's tenant
// ID to its lab. Safe for concurrent use by any number of connections.
type Router struct {
	cfg     Config
	stripes [stripeCount]stripe

	// Fleet-wide rollups. Plain atomics — never a lock — so the hot path
	// and the obs render callbacks cannot serialize tenants.
	tenants  atomic.Int64  // instantiated tenants (factory succeeded)
	routed   atomic.Uint64 // requests successfully routed to a core
	rejected atomic.Uint64 // invalid tenant ID, cap hit, or factory failure
	draining atomic.Bool   // Drain or Close has begun
}

// NewRouter builds a fleet router.
func NewRouter(cfg Config) (*Router, error) {
	if cfg.Factory == nil {
		return nil, fmt.Errorf("fleet: Config.Factory is required")
	}
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = DefaultMaxTenants
	}
	r := &Router{cfg: cfg}
	for i := range r.stripes {
		r.stripes[i].tenants = make(map[string]*Tenant)
	}
	if cfg.Registry != nil {
		r.observe(cfg.Registry)
	}
	return r, nil
}

// fnv1a hashes a tenant ID for stripe selection (and, in campaign.go, for
// order-independent per-tenant seeds).
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func (r *Router) stripe(id string) *stripe {
	return &r.stripes[fnv1a(id)&(stripeCount-1)]
}

// tenant resolves (instantiating if needed) the lab for id. The fast path
// is one stripe read-lock and a map hit; the slow path inserts a
// placeholder under the stripe write-lock and runs the factory outside it.
func (r *Router) tenant(id string) (*Tenant, error) {
	s := r.stripe(id)
	s.mu.RLock()
	t := s.tenants[id]
	s.mu.RUnlock()
	if t == nil {
		s.mu.Lock()
		if t = s.tenants[id]; t == nil {
			// The cap counts placeholders too (counted down again on
			// factory failure), so a hostile peer cannot race N goroutines
			// past it.
			if r.tenants.Add(1) > int64(r.cfg.MaxTenants) {
				r.tenants.Add(-1)
				s.mu.Unlock()
				return nil, fmt.Errorf("fleet: tenant limit reached (%d)", r.cfg.MaxTenants)
			}
			t = &Tenant{ID: id}
			s.tenants[id] = t
		}
		s.mu.Unlock()
	}
	t.once.Do(func() {
		res, err := r.cfg.Factory(id)
		if err == nil && (res == nil || res.Core == nil) {
			err = fmt.Errorf("fleet: factory returned no core for tenant %q", id)
		}
		if err != nil {
			t.err = err
			r.tenants.Add(-1)
			// Leave the failed placeholder in the table: it answers every
			// subsequent request for this tenant with the same error
			// instead of hammering a failing factory.
			return
		}
		if r.cfg.Registry != nil {
			r.observeTenant(t, res)
		}
		t.res.Store(res)
	})
	if t.err != nil {
		return nil, t.err
	}
	return t, nil
}

// Handle implements middlebox.Handler: resolve the request's tenant and
// delegate to its core. An empty tenant is the default lab, so a
// single-tenant client needs no change to talk to a fleet listener.
func (r *Router) Handle(req wire.Request) wire.Reply {
	id := req.Tenant
	if id == "" {
		id = DefaultTenant
	} else if !store.ValidTenantID(id) {
		r.rejected.Add(1)
		return wire.Reply{ID: req.ID, Error: fmt.Sprintf("fleet: invalid tenant id %q", req.Tenant)}
	}
	t, err := r.tenant(id)
	if err != nil {
		r.rejected.Add(1)
		return wire.Reply{ID: req.ID, Error: err.Error()}
	}
	t.requests.Add(1)
	r.routed.Add(1)
	return t.res.Load().Core.Handle(req)
}

// ResolveStream adapts the router to stream.TenantResolver so one tail
// listener serves every tenant's live feed.
func (r *Router) ResolveStream(tenant string) (*stream.Broker, *tracedb.DB, error) {
	if !store.ValidTenantID(tenant) {
		return nil, nil, fmt.Errorf("invalid tenant id")
	}
	t, err := r.tenant(tenant)
	if err != nil {
		return nil, nil, err
	}
	res := t.res.Load()
	if res.Broker == nil {
		return nil, nil, fmt.Errorf("no live stream")
	}
	return res.Broker, res.DB, nil
}

// Lookup returns the tenant if it is already instantiated, without
// creating it.
func (r *Router) Lookup(id string) (*Tenant, bool) {
	s := r.stripe(id)
	s.mu.RLock()
	t := s.tenants[id]
	s.mu.RUnlock()
	if t == nil || t.res.Load() == nil {
		return nil, false
	}
	return t, true
}

// walk visits every initialized tenant. Each stripe's lock is held only
// long enough to copy its slice of tenant pointers; the visit itself runs
// lock-free, so walking never blocks routing.
func (r *Router) walk(fn func(*Tenant, *Resources)) {
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.RLock()
		batch := make([]*Tenant, 0, len(s.tenants))
		for _, t := range s.tenants {
			batch = append(batch, t)
		}
		s.mu.RUnlock()
		for _, t := range batch {
			if res := t.res.Load(); res != nil {
				fn(t, res)
			}
		}
	}
}

// TenantStats is one lab's slice of a fleet snapshot.
type TenantStats struct {
	ID       string
	Requests uint64 // requests the router sent this tenant
	Stats    middlebox.Stats
}

// Stats is a point-in-time fleet snapshot.
type Stats struct {
	Tenants   int    // instantiated tenants
	Routed    uint64 // requests routed to any tenant
	Rejected  uint64 // requests refused before reaching a core
	PerTenant []TenantStats
}

// Snapshot aggregates every tenant's middlebox.Snapshot without stopping
// the world: the rollups are atomic loads, the tenant walk copies pointers
// under brief per-stripe read locks, and each Core.Snapshot is itself
// lock-free (the copy-on-write device registry), so hundreds of tenants
// keep executing at full speed while the fleet is observed.
func (r *Router) Snapshot() Stats {
	st := Stats{
		Tenants:  int(r.tenants.Load()),
		Routed:   r.routed.Load(),
		Rejected: r.rejected.Load(),
	}
	r.walk(func(t *Tenant, res *Resources) {
		st.PerTenant = append(st.PerTenant, TenantStats{
			ID:       t.ID,
			Requests: t.requests.Load(),
			Stats:    res.Core.Snapshot(),
		})
	})
	sort.Slice(st.PerTenant, func(i, j int) bool { return st.PerTenant[i].ID < st.PerTenant[j].ID })
	return st
}

// Drain gracefully quiesces every tenant: the tenant's own Drain hook when
// it has one, else the default — close the lab's broker (detaching its
// subscribers so their tails flush) and flush its trace store to disk.
// Tenants are drained in walk order until ctx expires; the remainder are
// skipped (Close still tears them down). Returns the first tenant error,
// or ctx.Err() when the deadline cut the drain short.
func (r *Router) Drain(ctx context.Context) error {
	r.draining.Store(true)
	var first error
	expired := false
	r.walk(func(t *Tenant, res *Resources) {
		if expired || ctx.Err() != nil {
			expired = true
			return
		}
		var err error
		switch {
		case res.Drain != nil:
			err = res.Drain(ctx)
		default:
			if res.Broker != nil {
				res.Broker.Close()
			}
			if res.DB != nil {
				err = res.DB.Flush()
			}
		}
		if err != nil && first == nil {
			first = fmt.Errorf("fleet: drain tenant %s: %w", t.ID, err)
		}
	})
	if first != nil {
		return first
	}
	if expired {
		return ctx.Err()
	}
	return nil
}

// Draining reports whether Drain (or Close) has begun — the fleet
// contribution to a drain-aware /healthz.
func (r *Router) Draining() bool { return r.draining.Load() }

// Rollups summarizes the flight recorder's buffered spans by tenant, when
// the router was configured with one — the per-lab trace view next to
// Snapshot's per-lab exec view.
func (r *Router) Rollups() []span.TenantRollup {
	if r.cfg.Spans == nil {
		return nil
	}
	return r.cfg.Spans.Rollup()
}

// Close tears down every tenant that defined a Close, returning the first
// error. The router itself needs no teardown.
func (r *Router) Close() error {
	r.draining.Store(true)
	var first error
	r.walk(func(t *Tenant, res *Resources) {
		if res.Close != nil {
			if err := res.Close(); err != nil && first == nil {
				first = err
			}
		}
	})
	return first
}

var _ middlebox.Handler = (*Router)(nil)
var _ stream.TenantResolver = (*Router)(nil).ResolveStream
