package rad

import (
	"rad/internal/analysis/jenks"
	"rad/internal/analysis/metrics"
	"rad/internal/analysis/ngram"
	"rad/internal/analysis/specmine"
	"rad/internal/analysis/stats"
	"rad/internal/analysis/tfidf"
	"rad/internal/attack"
	"rad/internal/device"
	"rad/internal/experiments"
	"rad/internal/fault"
	"rad/internal/fleet"
	"rad/internal/ids"
	"rad/internal/middlebox"
	"rad/internal/obs"
	"rad/internal/obs/span"
	"rad/internal/parallel"
	"rad/internal/power"
	"rad/internal/procedure"
	dataset "rad/internal/rad"
	"rad/internal/simclock"
	"rad/internal/store"
	"rad/internal/stream"
	"rad/internal/tracedb"
	"rad/internal/tracer"
	"rad/internal/wire"
)

// --- Devices and commands ---

// Device is the interface implemented by every simulated CPS device and by
// the virtualized proxies a tracing session hands out.
type Device = device.Device

// Command is a single device access crossing the data-collection boundary.
type Command = device.Command

// CommandSpec describes one of the 52 command types in the dataset catalog.
type CommandSpec = device.CommandSpec

// Device names as they appear in the dataset.
const (
	DeviceC9      = device.C9
	DeviceUR3e    = device.UR3e
	DeviceIKA     = device.IKA
	DeviceTecan   = device.Tecan
	DeviceQuantos = device.Quantos
)

// CommandCatalog returns the 52-command catalog of Fig. 5(a).
func CommandCatalog() []CommandSpec { return device.Catalog() }

// --- Clocks ---

// Clock abstracts time so the same code runs in real time (latency
// experiments) and virtual time (dataset generation).
type Clock = simclock.Clock

// RealClock is the wall clock.
type RealClock = simclock.Real

// NewVirtualClock returns a virtual clock starting at the given instant.
var NewVirtualClock = simclock.NewVirtual

// --- Middlebox and tracing (RATracer) ---

// Middlebox is the trusted middlebox core of Fig. 1: device registry,
// command execution, and trace logging.
type Middlebox = middlebox.Core

// NetworkProfile emulates the lab network (LANProfile) or a cloud WAN
// (CloudProfile) between the lab computer and the middlebox.
type NetworkProfile = middlebox.NetworkProfile

// NewMiddlebox builds a middlebox logging to sink (which may be nil).
func NewMiddlebox(clock Clock, sink TraceSink) *Middlebox {
	return middlebox.NewCore(clock, sink)
}

// NewMiddleboxServer wraps a middlebox core for TCP serving with an emulated
// network profile.
var NewMiddleboxServer = middlebox.NewServer

// MiddleboxHandler answers wire requests; both a single-tenant Middlebox and
// a FleetRouter implement it, so one TCP server serves either.
type MiddleboxHandler = middlebox.Handler

// NewMiddleboxHandlerServer is NewMiddleboxServer for any MiddleboxHandler
// (a fleet router, a test fake) instead of a concrete core.
var NewMiddleboxHandlerServer = middlebox.NewHandlerServer

// LANProfile models the lab's switched Ethernet; CloudProfile models the
// Azure WAN replay of Fig. 4's footnote.
var (
	LANProfile   = middlebox.LANProfile
	CloudProfile = middlebox.CloudProfile
)

// --- Fault injection and resilience (internal/fault) ---

// FaultProfile configures the deterministic fault injectors: per-class
// probabilities for latency spikes, dropped/garbled responses, device
// hangs, wire resets, and sink write errors.
type FaultProfile = fault.Profile

// ParseFaultProfile parses "none", "flaky", or "chaos", optionally with
// key=value overrides (e.g. "flaky,hang=0.01,hangfor=30s").
var ParseFaultProfile = fault.ParseProfile

// WrapFaultyDevice and WrapFlakySink wrap a device / trace sink with
// seeded, reproducible fault injection.
var (
	WrapFaultyDevice = fault.WrapDevice
	WrapFlakySink    = fault.WrapSink
)

// ExecPolicy hardens the middlebox REMOTE exec path: per-attempt
// deadlines, jittered-backoff retries for idempotent commands, and
// per-device circuit breakers. The zero value keeps the seed-exact
// single-attempt path.
type ExecPolicy = middlebox.ExecPolicy

// BreakerConfig tunes a per-device circuit breaker; its activity surfaces
// in Middlebox.Snapshot.
type BreakerConfig = fault.BreakerConfig

// DeadLetterQueue is the disk-backed spill area FailoverSink writes
// refused trace batches to; TraceDB.Reingest folds it back in.
type DeadLetterQueue = store.DeadLetterQueue

// OpenDLQ opens (or creates) a dead-letter directory.
var OpenDLQ = store.OpenDLQ

// FailoverSink makes a primary sink lossless under write errors by
// spilling refused records to a DeadLetterQueue.
type FailoverSink = store.FailoverSink

// NewFailoverSink wraps a primary sink with dead-letter failover.
var NewFailoverSink = store.NewFailoverSink

// OpenTenantDLQ opens a tenant's dead-letter directory namespaced under a
// shared root (root/tenants/<id>).
var OpenTenantDLQ = store.OpenTenantDLQ

// --- Fleet mode (internal/fleet) ---

// FleetRouter multiplexes many independent lab middleboxes — each with its
// own devices, policies, breakers, and broker — behind one wire listener,
// resolving each request's tenant ID through a striped-lock table to a
// lazily-instantiated Middlebox.
type FleetRouter = fleet.Router

// FleetConfig parameterizes a router; FleetResources is everything one
// tenant lab owns.
type (
	FleetConfig    = fleet.Config
	FleetResources = fleet.Resources
)

// NewFleetRouter builds a fleet router.
var NewFleetRouter = fleet.NewRouter

// FleetDefaultTenant is the lab untagged (pre-fleet) requests reach;
// FleetDefaultMaxTenants bounds lazy tenant instantiation.
const (
	FleetDefaultTenant     = fleet.DefaultTenant
	FleetDefaultMaxTenants = fleet.DefaultMaxTenants
)

// FleetCampaignConfig parameterizes a campaign of hundreds of concurrent
// tenant workloads through one router, each lab on its own virtual clock;
// FleetCampaignResult is its outcome.
type (
	FleetCampaignConfig = fleet.CampaignConfig
	FleetCampaignResult = fleet.CampaignResult
)

// NewFleetCampaign builds a campaign and its router.
var NewFleetCampaign = fleet.NewCampaign

// FleetTenantSeed derives a campaign lab's deterministic seed from the
// campaign seed and its ID alone — byte-reproducible under any interleaving.
var FleetTenantSeed = fleet.TenantSeed

// TracingConfig configures a session: default mode, per-device overrides
// (hybrid configurations), and procedure labels.
type TracingConfig = tracer.Config

// Interception modes (§III).
const (
	ModeDirect = tracer.ModeDirect
	ModeRemote = tracer.ModeRemote
)

// Transport carries requests from the lab computer to the middlebox; custom
// implementations (or wrappers such as the attack Interceptor) plug into a
// session or VirtualLabConfig.WrapTransport.
type Transport = tracer.Transport

// WireRequest and WireReply are the RPC protocol messages a Transport
// carries.
type (
	WireRequest = wire.Request
	WireReply   = wire.Reply
)

// NewTracingSession creates a session over a transport.
var NewTracingSession = tracer.NewSession

// DialMiddlebox connects to a middlebox server over TCP.
var DialMiddlebox = tracer.DialTCP

// --- Trace storage ---

// TraceRecord is one trace object in the command dataset.
type TraceRecord = store.Record

// TraceSink consumes trace records.
type TraceSink = store.Sink

// TraceNotifier is implemented by sinks that assign sequence numbers and
// expose a commit hook (TraceStore, TraceDB); a Broker attaches to one to
// publish records with their authoritative sequence numbers.
type TraceNotifier = store.Notifier

// TraceStore is the in-memory document store (the MongoDB analog).
type TraceStore = store.MemStore

// NewTraceStore returns an empty in-memory trace store.
var NewTraceStore = store.NewMemStore

// NewCSVWriter and NewJSONLWriter stream trace records to files.
var (
	NewCSVWriter   = store.NewCSVWriter
	NewJSONLWriter = store.NewJSONLWriter
)

// ReadTraceCSV and ReadTraceJSONL parse exported traces back.
var (
	ReadTraceCSV   = store.ReadCSV
	ReadTraceJSONL = store.ReadJSONL
)

// NewTraceBatcher wraps a sink with a flush-bounded staging buffer; each
// flush reaches the sink as one batch (and lands in a TraceDB as one block).
var NewTraceBatcher = store.NewBatcher

// UnknownProcedure labels all unsupervised commands (§IV).
const UnknownProcedure = store.UnknownProcedure

// --- Persistent trace storage (internal/tracedb) ---

// TraceDB is the persistent, indexed, crash-safe embedded trace store — the
// durable stand-in for RATracer's MongoDB instance. It implements TraceSink,
// so the middlebox logs straight to it; reopen the directory to query a
// campaign without regenerating it.
type TraceDB = tracedb.DB

// TraceDBOptions tunes segment rotation and the per-record staging size.
type TraceDBOptions = tracedb.Options

// TraceQuery selects records by time range, device, command type,
// procedure, and run — the analyses' query shapes.
type TraceQuery = tracedb.Query

// OpenTraceDB opens (or creates) a trace store directory, recovering and
// truncating any torn tail left by a crash — including half-finished
// compaction temps and segments superseded by a completed compaction.
var OpenTraceDB = tracedb.Open

// TraceLifecycleOptions configures the store's lifecycle engine: background
// compaction of fragmented segments and whole-segment retention (max age,
// max bytes). Set on TraceDBOptions.Lifecycle.
type TraceLifecycleOptions = tracedb.LifecycleOptions

// TraceCompactStats summarizes a TraceDB.Compact call.
type TraceCompactStats = tracedb.CompactStats

// --- Live streaming and online detection (internal/stream) ---

// Broker is the live fan-out layer: a bounded pub/sub hub publishing every
// committed trace record (and power sample) to per-subscriber ring buffers
// with explicit overflow policies — the serving substrate for researchers
// watching the lab live instead of mining completed campaigns.
type Broker = stream.Broker

// NewBroker returns an empty broker; attach it to a middlebox with
// Middlebox.AttachBroker or to a store with Broker.AttachStore.
var NewBroker = stream.NewBroker

// SubOptions configures a broker subscription (name, buffer, policy,
// filter).
type SubOptions = stream.SubOptions

// Overflow policies: StreamDropOldest sheds a slow subscriber's oldest
// events (the default — publishers never block); StreamBlock backpressures
// the producer for lossless consumption.
const (
	StreamDropOldest = stream.DropOldest
	StreamBlock      = stream.Block
)

// StreamServer serves a broker's feed over TCP (the radwatch protocol).
type StreamServer = stream.Server

// NewStreamServer wraps a broker (and an optional TraceDB for snapshot
// replays); DialStream connects a client to a stream listener.
var (
	NewStreamServer = stream.NewServer
	DialStream      = stream.Dial
)

// StreamResilientTail is the self-healing consumer: an auto-reconnecting
// tail that tracks the last delivered sequence number, redials with
// jittered exponential backoff (reproducible per seed), redoes the wire
// handshake, and resumes from where it left off — exactly-once
// delivery across server restarts.
type (
	StreamResilientTail   = stream.ResilientTail
	StreamResilientConfig = stream.ResilientConfig
)

// NewStreamResilientTail builds an auto-reconnecting tail; the first
// connection is dialed lazily by the first Recv.
var NewStreamResilientTail = stream.NewResilientTail

// StreamSubscribe is the wire-protocol subscription request a stream client
// sends (filters, snapshot, policy, buffer); StreamWireEvent is the framed
// event the server answers with.
type (
	StreamSubscribe = wire.Subscribe
	StreamWireEvent = wire.Event
)

// Wire-protocol stream event kinds and overflow-policy names.
const (
	StreamEventTrace       = wire.EventTrace
	StreamEventPower       = wire.EventPower
	StreamEventSnapshotEnd = wire.EventSnapshotEnd
	StreamEventError       = wire.EventError
	// StreamEventResumeGap is the degradation notice a resuming subscriber
	// receives when its resume point predates the store's retention floor:
	// Gap records are gone, and a full snapshot of what remains follows.
	StreamEventResumeGap   = wire.EventResumeGap
	StreamPolicyDropOldest = wire.PolicyDropOldest
	StreamPolicyBlock      = wire.PolicyBlock
)

// StreamIDSConfig configures the online intrusion detector: a
// sliding-window streaming perplexity scorer plus the rule engine over a
// live feed, accumulating structured StreamAlert records.
type (
	StreamIDSConfig = stream.IDSConfig
	StreamAlert     = stream.Alert
)

// NewStreamIDS builds an online detector from a trained PerplexityDetector.
var NewStreamIDS = stream.NewIDS

// --- Observability (internal/obs) ---

// MetricsRegistry is the process-wide metrics surface: counters, gauges, and
// latency histograms with a Prometheus text exposition and a JSON snapshot.
// Every layer (middlebox, tracedb, stream, parallel, fault, store) exposes an
// Observe method that registers its instruments into one of these.
type MetricsRegistry = obs.Registry

// MetricsSnapshot is a registry's JSON snapshot, for callers that
// post-process it (radwatch's -obs mode).
type MetricsSnapshot = obs.Snapshot

// DefaultLatencyBuckets is the shared histogram bucket ladder (1µs–60s),
// tuned so serial exchanges, retries, and whole-procedure timings all land
// in distinct buckets.
var DefaultLatencyBuckets = obs.DefaultLatencyBuckets

// NewMetricsRegistry returns an empty registry; NewMetricsMux wraps one in an
// http.ServeMux serving /metrics (Prometheus text), /snapshot (JSON), and
// net/http/pprof under /debug/pprof/.
var (
	NewMetricsRegistry = obs.NewRegistry
	NewMetricsMux      = obs.ServeMux
)

// ObserveParallel registers the shared worker-pool instruments (kernel calls,
// tasks, active workers) into reg. Package-level: the parallel kernels have
// no object to hang an Observe method on.
var ObserveParallel = parallel.Observe

// RegisterRuntimeMetrics adds Go runtime telemetry (goroutines, heap
// in-use/alloc, GC cycle count and pause p99) to reg as pull-based gauges.
var RegisterRuntimeMetrics = obs.RegisterRuntimeMetrics

// MetricsMuxOptions extends the telemetry mux: a Health callback makes
// /healthz drain-aware (503 once shutdown begins), and a Spans handler
// mounts the flight recorder at /debug/spans.
type MetricsMuxOptions = obs.MuxOptions

// NewMetricsMuxWith is NewMetricsMux plus MetricsMuxOptions.
var NewMetricsMuxWith = obs.ServeMuxWith

// --- Request tracing (internal/obs/span) ---

// SpanRecorder is the process-wide span flight recorder: bounded per-CPU
// ring buffers holding recent request trace trees (client → server.request
// → wire/exec/store/stream children). Always-on and dependency-free; a nil
// recorder is a valid no-op, so untraced deployments pay one pointer check.
type SpanRecorder = span.Recorder

// Span tracing surface: spans and their trace-context pair, recorder
// configuration, and assembled trees with filters.
type (
	Span         = span.Span
	SpanContext  = span.Context
	SpanConfig   = span.Config
	SpanTreeJSON = span.TreeJSON
	SpanPageJSON = span.PageJSON
	SpanFilter   = span.Filter
)

// NewSpanRecorder builds a recorder; SpanHandler serves its recent trace
// trees as /debug/spans (JSON and human-readable text, filterable);
// WriteSpanTrees pretty-prints them (radwatch -spans) and SpanFormatID
// spells a trace id as it appears there.
var (
	NewSpanRecorder = span.NewRecorder
	SpanHandler     = span.Handler
	WriteSpanTrees  = span.WriteTrees
	SpanFormatID    = span.FormatID
)

// --- The virtual lab and procedures ---

// Lab bundles the virtualized devices, raw simulators, clock, and session a
// procedure script needs.
type Lab = procedure.Lab

// VirtualLab is a complete in-process deployment: five simulated devices on
// a middlebox under a virtual clock with a REMOTE-mode tracing session.
type VirtualLab = procedure.VirtualLab

// VirtualLabConfig configures NewVirtualLab.
type VirtualLabConfig = procedure.VirtualLabConfig

// NewVirtualLab assembles a virtual lab.
var NewVirtualLab = procedure.NewVirtualLab

// ProcedureOptions tune a procedure run (vials, solid, velocity, payload,
// crash injection, operator quirks).
type ProcedureOptions = procedure.Options

// ProcedureResult summarizes a run.
type ProcedureResult = procedure.Result

// CrashPlan schedules a physical crash partway through a run.
type CrashPlan = procedure.CrashPlan

// Procedure type labels (§IV).
const (
	ProcedureP1       = procedure.P1
	ProcedureP2       = procedure.P2
	ProcedureP3       = procedure.P3
	ProcedureJoystick = procedure.Joystick
	ProcedureP5       = procedure.P5
	ProcedureP6       = procedure.P6
)

// The paper's workloads.
var (
	RunJoystick          = procedure.RunJoystick
	RunSolubilityN9      = procedure.RunSolubilityN9
	RunSolubilityN9UR    = procedure.RunSolubilityN9UR
	RunCrystalSolubility = procedure.RunCrystalSolubility
)

// --- The dataset ---

// Dataset is the generated Robotic Arm Dataset.
type Dataset = dataset.Dataset

// GenerateConfig configures dataset generation (seed, scale, and worker
// count; the output is byte-identical for every worker count).
type GenerateConfig = dataset.Config

// RunInfo describes one supervised run in Fig. 6 ID order.
type RunInfo = dataset.RunInfo

// GenerateDataset synthesizes the three-month campaign.
var GenerateDataset = dataset.Generate

// DatasetFromRecords rebuilds a Dataset view over exported trace records
// (e.g. read back from radgen's JSONL), re-deriving the run index and
// anomaly ground truth — the generate-once/analyze-many path.
var DatasetFromRecords = dataset.FromRecords

// TotalTraceObjects is the command-dataset size the paper reports.
const TotalTraceObjects = dataset.TotalTraceObjects

// DeviceTargets returns the per-device totals of Fig. 5(a)'s legend.
var DeviceTargets = dataset.DeviceTargets

// --- Power telemetry ---

// PowerPropertyNames returns the 122 property names of the sample schema.
var PowerPropertyNames = power.PropertyNames

// CurrentSeries extracts one joint's current series from samples.
var CurrentSeries = power.CurrentSeries

// --- Analyses (§V) ---

// TrainNGram fits an order-n model with the given smoothing constant.
var TrainNGram = ngram.Train

// TopNGrams returns the k most frequent n-grams (Fig. 5b). Counting fans
// out across GOMAXPROCS workers on large corpora; TopNGramsParallel bounds
// the worker count explicitly. Both produce identical output at any worker
// count.
var (
	TopNGrams         = ngram.TopK
	TopNGramsParallel = ngram.TopKParallel
)

// FitTFIDF fits the §V-A fingerprint vectorizer; CosineSimilarity compares
// two fingerprints; SimilarityMatrix computes all pairwise similarities
// (Fig. 6) on GOMAXPROCS workers.
var (
	FitTFIDF         = tfidf.Fit
	CosineSimilarity = tfidf.Cosine
	SimilarityMatrix = tfidf.SimilarityMatrix
)

// JenksSplit2 splits scores into two natural classes (§V-B).
var JenksSplit2 = jenks.Split2

// Confusion is a binary confusion matrix with the Table I metrics.
type Confusion = metrics.Confusion

// BoxStats computes Fig. 4-style box-plot statistics; Pearson computes the
// correlation coefficient used in §VI.
var (
	BoxStats = stats.BoxStats
	Pearson  = stats.Pearson
)

// --- IDS prototypes ---

// PerplexityDetector classifies command sequences by n-gram perplexity.
type PerplexityDetector = ids.PerplexityDetector

// TrainPerplexityDetector fits a detector on valid command sequences.
var TrainPerplexityDetector = ids.TrainPerplexity

// TrainProcedureClassifier fits the TF-IDF procedure classifier (RQ1) on
// labelled runs.
var TrainProcedureClassifier = ids.TrainClassifier

// NewRuleEngine builds the middlebox's first-line rule-based safeguard with
// an optional per-device rate limit.
var NewRuleEngine = ids.NewRuleEngine

// PowerDetector matches joint-current signatures (§VI / RQ3).
type PowerDetector = ids.PowerDetector

// NewPowerDetector creates an empty power-signature detector.
var NewPowerDetector = ids.NewPowerDetector

// --- Experiment harnesses (one per paper table/figure) ---

// Experiment configuration and result types.
type (
	Fig4Config   = experiments.Fig4Config
	TableIConfig = experiments.TableIConfig
	Fig7aResult  = experiments.Fig7aResult
	Fig7bResult  = experiments.Fig7bResult
	Fig7cResult  = experiments.Fig7cResult
	Fig7dResult  = experiments.Fig7dResult
)

// Experiment harnesses.
var (
	Fig4ResponseTime         = experiments.Fig4ResponseTime
	Fig5aCommandDistribution = experiments.Fig5aCommandDistribution
	Fig5bTopNGrams           = experiments.Fig5bTopNGrams
	Fig6SimilarityMatrix     = experiments.Fig6SimilarityMatrix
	TableIPerplexityIDS      = experiments.TableIPerplexityIDS
	Fig7aSegments            = experiments.Fig7aSegments
	Fig7bSolids              = experiments.Fig7bSolids
	Fig7cVelocities          = experiments.Fig7cVelocities
	Fig7dWeights             = experiments.Fig7dWeights
)

// --- Extensions beyond the paper's tables (its §VII future work) ---

// FitArgQuantizer calibrates the quantizer that maps numeric command
// arguments onto training-calibrated buckets, for the argument-aware
// perplexity IDS ("bring command arguments into the fold").
var FitArgQuantizer = ids.FitArgQuantizer

// NewAutoLabeler builds a labeler from supervised runs that recovers
// procedure labels for unlabelled trace segments ("find ways to
// automatically generate labels").
var NewAutoLabeler = ids.NewAutoLabeler

// AttackConfig parameterizes the man-in-the-middle interceptor;
// AttackScenario describes one benchmark run ("generate many more
// anomalous traces … for benchmarking other IDS").
type (
	AttackConfig   = attack.Config
	AttackScenario = attack.Scenario
	Interceptor    = attack.Interceptor
)

// Attack families.
const (
	AttackInjection       = attack.Injection
	AttackReplay          = attack.Replay
	AttackSpeedTamper     = attack.SpeedTamper
	AttackParameterTamper = attack.ParameterTamper
	AttackReorder         = attack.Reorder
	AttackDrop            = attack.Drop
)

// NewInterceptor wraps a transport with an attack; RunAttackScenario
// executes one scenario; StandardAttackSuite returns the benchmark set.
var (
	NewInterceptor      = attack.New
	RunAttackScenario   = attack.Run
	StandardAttackSuite = attack.StandardSuite
)

// NewTransportRouter creates a router that sends each device's traffic to
// its own middlebox — the distributed deployment §VII anticipates — with an
// optional fallback transport.
var NewTransportRouter = tracer.NewRouter

// AttackBenchmark evaluates the name-only and argument-aware detectors
// against the standard attack suite.
var (
	AttackBenchmark   = experiments.AttackBenchmark
	RenderAttackBench = experiments.RenderAttackBench
)

// Ablation studies (smoothing constant, Jenks space, streaming window).
var (
	AblationSmoothing    = experiments.AblationSmoothing
	AblationJenksSpace   = experiments.AblationJenksSpace
	AblationStreamWindow = experiments.AblationStreamWindow
	RenderAblations      = experiments.RenderAblations
)

// Spec is a mined procedure specification: repeated blocks with iteration
// bounds (§V's specification-mining use case). Mining, merging across
// runs, and the corpus-level block summary:
type (
	Spec        = specmine.Spec
	SpecOptions = specmine.Options
)

var (
	MineSpec      = specmine.Mine
	MergeSpecs    = specmine.Merge
	SpecCoverage  = specmine.Coverage
	TopSpecBlocks = specmine.TopBlocks
)

// RQ1Classification runs leave-one-out TF-IDF procedure identification
// (§V-A's RQ1) over the 25 supervised runs.
var (
	RQ1Classification = experiments.RQ1Classification
	RenderRQ1         = experiments.RenderRQ1
)

// PowerIDSBenchmark enrols known motions' current signatures and probes the
// power detector with repeats, velocity changes, hidden payloads, and
// unknown trajectories.
var (
	PowerIDSBenchmark = experiments.PowerIDSBenchmark
	RenderPowerIDS    = experiments.RenderPowerIDS
)

// Renderers format experiment results in the paper's table/figure shapes.
var (
	RenderFig4              = experiments.RenderFig4
	RenderFig5a             = experiments.RenderFig5a
	RenderFig5b             = experiments.RenderFig5b
	RenderFig6              = experiments.RenderFig6
	RenderTableI            = experiments.RenderTableI
	RenderSeries            = experiments.RenderSeries
	RenderCorrelationMatrix = experiments.RenderCorrelationMatrix
)
