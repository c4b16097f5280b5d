// Package faultinject provides named, seed-deterministic fault sites for the
// chaos harness: a package declares a site once (at init), calls it from the
// code path under test, and an operator or test arms a schedule of faults
// against those names. The fine-grained (block, query) tasks of the paper's
// decoupled pipeline and the serving tier's shard RPCs are exactly the units
// the robustness layer retries or abandons, so the sites sit on those seams:
// hit detection, extension, the batch scheduler, and the router's transport.
//
// The hot-path contract matches internal/obs: a disarmed site costs one
// atomic pointer load per Fire/Err call — no locks, no allocations, no map
// lookups — so the sites stay compiled into production code paths.
//
// Fault schedules are strings, e.g.
//
//	sched.task=panic#3,core.extend=delay:200us@0.05,router.rpc=error@0.1
//
// one clause per site: name=kind[:param][@prob][#nth]. Kinds:
//
//	panic          panic with a faultinject.PanicValue at the site
//	delay[:dur]    sleep dur (default 1ms) at the site
//	error[:msg]    return an error wrapping ErrInjected from the site
//	shortread[:n]  truncate the site's Reader after n bytes (default 0)
//
// @prob fires the fault on each hit with the given probability, decided by a
// pure function of (seed, site name, hit index) — the same seed replays the
// same decisions. #nth fires exactly on the nth hit of the site (1-based),
// the fully deterministic form used by targeted tests.
package faultinject

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is the fault behaviour of an armed site.
type Kind int

const (
	// KindPanic panics with a PanicValue when the site fires.
	KindPanic Kind = iota
	// KindDelay sleeps for the armed duration when the site fires.
	KindDelay
	// KindError returns an error wrapping ErrInjected when the site fires.
	KindError
	// KindShortRead truncates the site's Reader after the armed byte count.
	KindShortRead
)

func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	case KindError:
		return "error"
	case KindShortRead:
		return "shortread"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ErrInjected is the sentinel every injected error wraps, so callers can
// distinguish chaos-harness faults from real failures with errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

// PanicValue is the panic payload of a fired panic-kind site. The scheduler's
// recover-and-attribute path preserves it inside TaskPanicError, so tests can
// tell injected panics from genuine ones.
type PanicValue struct {
	Site string
}

func (p PanicValue) String() string { return "faultinject: injected panic at site " + p.Site }

// arming is one site's active fault configuration. Sites hold it behind an
// atomic pointer: nil means disarmed.
type arming struct {
	kind  Kind
	delay time.Duration
	err   error
	limit int64 // shortread byte budget
	prob  float64
	nth   uint64 // fire exactly on this hit (1-based); 0 = probabilistic/every
	seed  uint64
}

// Site is one named fault point. Construct with NewSite at package init;
// the zero value is usable (permanently disarmed) but unregistered.
type Site struct {
	name  string
	arm   atomic.Pointer[arming]
	hits  atomic.Uint64 // lifetime hits while armed (trigger input)
	fired atomic.Uint64 // lifetime faults actually injected
}

var (
	regMu sync.Mutex
	reg   = map[string]*Site{}
)

// NewSite registers (or returns the existing) site with the given name.
// Intended for package-level var initialization, so every site exists before
// any Enable call parses a schedule.
func NewSite(name string) *Site {
	regMu.Lock()
	defer regMu.Unlock()
	if s, ok := reg[name]; ok {
		return s
	}
	s := &Site{name: name}
	reg[name] = s
	return s
}

// Sites returns the registered site names, sorted.
func Sites() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, 0, len(reg))
	for name := range reg {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Name returns the site's registered name.
func (s *Site) Name() string { return s.name }

// Fired returns how many faults this site has injected since it was armed
// last (the counter resets on arm).
func (s *Site) Fired() uint64 { return s.fired.Load() }

// splitmix64 is the deterministic per-hit decision hash (Vigna's SplitMix64
// finalizer): cheap, stateless, and well distributed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv64 hashes the site name into the decision seed.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// trigger decides whether this hit fires, advancing the hit counter.
func (s *Site) trigger(a *arming) bool {
	hit := s.hits.Add(1)
	switch {
	case a.nth > 0:
		if hit != a.nth {
			return false
		}
	case a.prob < 1:
		// Deterministic in (seed, site, hit index): replaying the same seed
		// against the same hit sequence fires the same subset.
		if float64(splitmix64(a.seed^fnv64(s.name)^hit))/float64(1<<63)/2 >= a.prob {
			return false
		}
	}
	s.fired.Add(1)
	return true
}

// Err evaluates the site: disarmed it is a single atomic load returning nil.
// Armed, it may panic (KindPanic), sleep (KindDelay), or return an injected
// error (KindError). KindShortRead never fires here — it only shapes Reader.
func (s *Site) Err() error {
	a := s.arm.Load()
	if a == nil {
		return nil
	}
	if a.kind == KindShortRead || !s.trigger(a) {
		return nil
	}
	switch a.kind {
	case KindPanic:
		panic(PanicValue{Site: s.name})
	case KindDelay:
		time.Sleep(a.delay)
	case KindError:
		return a.err
	}
	return nil
}

// Fire is Err for call sites that cannot propagate an error (panic and delay
// faults still take effect; error faults are dropped).
func (s *Site) Fire() { _ = s.Err() }

// Reader wraps r with the site's short-read fault: when armed as shortread
// and the trigger fires, the returned reader yields at most the armed byte
// budget and then io.EOF — a truncated stream, exactly what a failing disk
// or cut connection produces. Disarmed (or any other kind), r is returned
// unchanged.
func (s *Site) Reader(r io.Reader) io.Reader {
	a := s.arm.Load()
	if a == nil || a.kind != KindShortRead || !s.trigger(a) {
		return r
	}
	return io.LimitReader(r, a.limit)
}

// Enable parses a fault schedule and arms the named sites. Every named site
// must already be registered; unknown names are an error listing the known
// sites. The seed drives every @prob decision. Enable replaces any previous
// schedule in full (sites not named are disarmed).
func Enable(spec string, seed uint64) error {
	plans, err := parseSpec(spec, seed)
	if err != nil {
		return err
	}
	Disable()
	for site, a := range plans {
		site.hits.Store(0)
		site.fired.Store(0)
		site.arm.Store(a)
	}
	return nil
}

// Disable disarms every site.
func Disable() {
	regMu.Lock()
	defer regMu.Unlock()
	for _, s := range reg {
		s.arm.Store(nil)
	}
}

// parseSpec parses "name=kind[:param][@prob][#nth]" clauses separated by
// commas.
func parseSpec(spec string, seed uint64) (map[*Site]*arming, error) {
	out := map[*Site]*arming{}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, rest, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("faultinject: clause %q: want name=kind[:param][@prob][#nth]", clause)
		}
		regMu.Lock()
		site := reg[name]
		regMu.Unlock()
		if site == nil {
			return nil, fmt.Errorf("faultinject: unknown site %q (known: %s)", name, strings.Join(Sites(), ", "))
		}
		a := &arming{prob: 1, seed: seed}
		if i := strings.IndexByte(rest, '#'); i >= 0 {
			nth, err := strconv.ParseUint(rest[i+1:], 10, 64)
			if err != nil || nth == 0 {
				return nil, fmt.Errorf("faultinject: clause %q: bad #nth %q", clause, rest[i+1:])
			}
			a.nth = nth
			rest = rest[:i]
		}
		if i := strings.IndexByte(rest, '@'); i >= 0 {
			p, err := strconv.ParseFloat(rest[i+1:], 64)
			// The range check must reject NaN explicitly: NaN compares false
			// against both bounds, and a NaN prob would fire on every hit.
			if err != nil || math.IsNaN(p) || p < 0 || p > 1 {
				return nil, fmt.Errorf("faultinject: clause %q: bad @prob %q", clause, rest[i+1:])
			}
			a.prob = p
			rest = rest[:i]
		}
		kind, param, _ := strings.Cut(rest, ":")
		switch kind {
		case "panic":
			a.kind = KindPanic
		case "delay":
			a.kind = KindDelay
			a.delay = time.Millisecond
			if param != "" {
				d, err := time.ParseDuration(param)
				if err != nil || d < 0 {
					return nil, fmt.Errorf("faultinject: clause %q: bad delay %q", clause, param)
				}
				a.delay = d
			}
		case "error":
			a.kind = KindError
			msg := param
			if msg == "" {
				msg = "injected at " + name
			}
			a.err = fmt.Errorf("faultinject: site %s: %s: %w", name, msg, ErrInjected)
		case "shortread":
			a.kind = KindShortRead
			if param != "" {
				n, err := strconv.ParseInt(param, 10, 64)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("faultinject: clause %q: bad shortread limit %q", clause, param)
				}
				a.limit = n
			}
		default:
			return nil, fmt.Errorf("faultinject: clause %q: unknown kind %q (want panic, delay, error, or shortread)", clause, kind)
		}
		if param != "" && (kind == "panic") {
			return nil, fmt.Errorf("faultinject: clause %q: kind panic takes no parameter", clause)
		}
		out[site] = a
	}
	return out, nil
}
