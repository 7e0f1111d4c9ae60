package stream

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"rad/internal/analysis/jenks"
	"rad/internal/ids"
	"rad/internal/store"
)

// Alert is one structured online-IDS finding: which record (by sequence
// number) tripped which detector, the scored window, the thresholds in
// force, and the commands that produced the score.
type Alert struct {
	// Seq and Time identify the triggering record.
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	// Source is "perplexity" or "rule:<name>".
	Source string `json:"source"`
	Device string `json:"device"`
	Key    string `json:"key"` // command type "Device.Name"
	// Score and Threshold are the window perplexity and the calibrated
	// alert threshold (perplexity alerts; zero for rule alerts).
	Score     float64 `json:"score,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	// JenksBreak is the Jenks natural-breaks split over the recent
	// window-score history at alert time — the §V-B batch threshold
	// recomputed online for context. Zero when the history is not yet
	// separable into two classes.
	JenksBreak float64 `json:"jenksBreak,omitempty"`
	// Window holds the scored command window (perplexity alerts).
	Window []string `json:"window,omitempty"`
	Detail string   `json:"detail,omitempty"`
}

// scoreHistory bounds the rolling window-score population the online Jenks
// break is computed over.
const scoreHistory = 256

// IDSConfig configures an online detector.
type IDSConfig struct {
	// Detector is the trained perplexity model (required).
	Detector *ids.PerplexityDetector
	// Window is the sliding-window size in commands (see
	// PerplexityDetector.NewStream for the default/minimum behaviour).
	Window int
	// Rules optionally runs the middlebox rule engine over the same feed.
	// The engine is stateful (initialization ordering, rate windows), so it
	// must be fresh and must see the stream from its start.
	Rules *ids.RuleEngine
	// OnAlert, when set, is called synchronously for every alert (after it
	// is recorded).
	OnAlert func(Alert)
}

// IDS is the online intrusion detector: a sliding-window streaming
// perplexity scorer plus (optionally) the rule engine, consuming a live
// record feed and accumulating structured alerts in its own store.
//
// Observe is the synchronous core — one record in, zero or more alerts out —
// so the same detector runs over a broker subscription (Run), a network tail
// (radwatch -ids), or a replayed slice of records. Observe is not safe for
// concurrent callers; Alerts and Processed are.
type IDS struct {
	win     *ids.Stream
	rules   *ids.RuleEngine
	onAlert func(Alert)

	history []float64 // rolling window scores, ring-ordered
	histAt  int

	mu        sync.Mutex
	alerts    []Alert
	processed uint64
}

// ErrNoDetector is returned when IDSConfig.Detector is nil.
var ErrNoDetector = errors.New("stream: IDSConfig.Detector is required")

// NewIDS builds an online detector. The stream threshold is calibrated on
// same-sized windows over the detector's training data (the shared
// WindowScores path), exactly as the offline ablations score them.
func NewIDS(cfg IDSConfig) (*IDS, error) {
	if cfg.Detector == nil {
		return nil, ErrNoDetector
	}
	return &IDS{
		win:     cfg.Detector.NewStream(cfg.Window),
		rules:   cfg.Rules,
		onAlert: cfg.OnAlert,
		history: make([]float64, 0, scoreHistory),
	}, nil
}

// Threshold returns the calibrated streaming alert threshold.
func (d *IDS) Threshold() float64 { return d.win.Threshold() }

// Observe feeds one record through the rule engine and the sliding-window
// scorer, returning any alerts it raised (already recorded in the store).
func (d *IDS) Observe(rec store.Record) []Alert {
	var out []Alert
	if d.rules != nil {
		for _, v := range d.rules.Check(rec) {
			out = append(out, Alert{
				Seq: rec.Seq, Time: rec.EndTime,
				Source: "rule:" + v.Rule,
				Device: rec.Device, Key: rec.Key(),
				Detail: v.Detail,
			})
		}
	}

	score, alert := d.win.Observe(rec.Name)
	if score == score { // record finite window scores in the rolling history
		d.pushScore(score)
	}
	if alert {
		out = append(out, Alert{
			Seq: rec.Seq, Time: rec.EndTime,
			Source: "perplexity",
			Device: rec.Device, Key: rec.Key(),
			Score: score, Threshold: d.win.Threshold(),
			JenksBreak: d.jenksBreak(),
			Window:     d.win.Window(),
			Detail: fmt.Sprintf("window perplexity %.3f exceeds threshold %.3f",
				score, d.win.Threshold()),
		})
	}

	d.mu.Lock()
	d.processed++
	d.alerts = append(d.alerts, out...)
	d.mu.Unlock()
	if d.onAlert != nil {
		for _, a := range out {
			d.onAlert(a)
		}
	}
	return out
}

// Run consumes a broker subscription until it closes, observing every trace
// event. Power events are ignored. It returns the number of records
// processed.
func (d *IDS) Run(sub *Subscriber) uint64 {
	var n uint64
	for {
		ev, ok := sub.Recv()
		if !ok {
			return n
		}
		if ev.Kind != KindTrace {
			continue
		}
		d.Observe(ev.Record)
		n++
	}
}

// Reset clears the sliding window (e.g. at a procedure boundary); alerts
// and counters are kept.
func (d *IDS) Reset() { d.win.Reset() }

// Alerts returns a copy of every alert raised so far, in stream order.
func (d *IDS) Alerts() []Alert {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Alert, len(d.alerts))
	copy(out, d.alerts)
	return out
}

// Processed returns the number of records observed.
func (d *IDS) Processed() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.processed
}

// pushScore appends a window score to the bounded rolling history.
func (d *IDS) pushScore(s float64) {
	if len(d.history) < scoreHistory {
		d.history = append(d.history, s)
		return
	}
	d.history[d.histAt] = s
	d.histAt = (d.histAt + 1) % scoreHistory
}

// jenksBreak computes the two-class natural-breaks split over the rolling
// score history; zero when the history holds no separable structure.
func (d *IDS) jenksBreak() float64 {
	if len(d.history) < 2 {
		return 0
	}
	scores := make([]float64, len(d.history))
	copy(scores, d.history)
	if _, breakVal, ok := jenks.Split2(scores); ok {
		return breakVal
	}
	return 0
}
