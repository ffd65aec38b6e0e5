package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dfm"
	"repro/internal/harness"
	"repro/internal/lru"
	"repro/internal/tech"
	"repro/internal/tiling"
)

// Config sizes the service. DefaultConfig is dfmd's deployed policy;
// a zero Queue, MaxWait or Retries means exactly that.
type Config struct {
	// Workers is the evaluation pool width; 0 means GOMAXPROCS.
	Workers int
	// Queue is the admission-queue capacity beyond in-flight work. A
	// full queue sheds with 429.
	Queue int
	// MaxWait is the admission-control wait budget: when the live
	// estimate of queue wait (depth x recent latency / workers)
	// exceeds it, the server sheds even though the queue has room.
	// 0 sheds only on a full queue.
	MaxWait time.Duration
	// CacheSize is the result-cache entry cap; 0 means 1024.
	CacheSize int
	// DefaultTimeout is the evaluation budget of every job; 0 means
	// 2m.
	DefaultTimeout time.Duration
	// Retries is how often the harness retries a transient workload
	// failure.
	Retries int

	// TaskFactory overrides job-task construction (tests and contract
	// suites inject gated tasks to exercise admission and shutdown
	// deterministically).
	TaskFactory func(req JobRequest) (harness.Task, error)
}

// DefaultConfig is the policy dfmd deploys with: a 64-job queue, 30 s
// of estimated wait before shedding, and one retry.
func DefaultConfig() Config {
	return Config{Queue: 64, MaxWait: 30 * time.Second, Retries: 1}
}

// What the service does not leave to its caller.
const (
	retryBackoff = 50 * time.Millisecond // first harness retry delay
	retainJobs   = 4096                  // settled jobs kept pollable; past it the oldest are evicted
)

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 2 * time.Minute
	}
	if c.TaskFactory == nil {
		c.TaskFactory = func(req JobRequest) (harness.Task, error) {
			if req.Kind == KindTile {
				tr := req.Tile
				return harness.Task{
					Name: req.Kind + "/" + tr.Stage,
					Run: func(ctx context.Context, attempt int) (any, error) {
						return tiling.ExecuteTile(ctx, tr)
					},
				}, nil
			}
			return dfm.TechniqueTask(tech.N45(), req.Technique, req.Seed, dfm.DefaultBlock())
		}
	}
	return c
}

// Shed errors returned by submit; the HTTP layer maps them to 429/503.
var (
	errOverloaded = errors.New("server: overloaded")
	errDraining   = errors.New("server: shutting down")
)

// flight is one in-flight evaluation shared by every job with the
// same content key.
type flight struct {
	key     string
	started atomic.Bool // a worker picked the task up
	jobs    []*job      // guarded by Server.mu
}

// job is one client-visible submission.
type job struct {
	id      string
	key     string
	kind    string // "" for technique evaluations, KindTile for tiles
	created time.Time

	cached  bool
	deduped bool

	// mu-guarded terminal state; done closes when the job settles.
	state   string
	outcome dfm.Outcome
	hasOut  bool
	tile    *tiling.TileResult
	errMsg  string
	flight  *flight
	done    chan struct{}
}

// Stats is the server's accounting, always on and the only record of
// these counts (the obs registry holds just the e2e latency).
type Stats struct {
	Submitted   int64   `json:"submitted"`
	Admitted    int64   `json:"admitted"`
	Shed        int64   `json:"shed"`
	Deduped     int64   `json:"deduped"`
	CacheHits   int64   `json:"cacheHits"`
	CacheMisses int64   `json:"cacheMisses"`
	Completed   int64   `json:"completed"`
	Failed      int64   `json:"failed"`
	Rejected    int64   `json:"rejected"`
	QueueDepth  int     `json:"queueDepth"`
	InFlight    int     `json:"inFlight"`
	CacheLen    int     `json:"cacheLen"`
	EWMAMS      float64 `json:"ewmaLatencyMs"`
	Draining    bool    `json:"draining"`
}

// Server schedules evaluation jobs on a persistent harness pool with
// admission control, singleflight dedup, and a content-addressed
// result cache. Zero value is not usable; call New.
type Server struct {
	cfg  Config
	pool *harness.Pool

	baseCtx    context.Context
	cancelBase context.CancelFunc

	mu      sync.Mutex
	jobs    map[string]*job
	order   []string // job ids in creation order, for retention eviction
	flights map[string]*flight
	// cache holds clean results by content address — dfm.Outcome for
	// technique evaluations, *tiling.TileResult for tile jobs (the kind
	// is recoverable from the stored type). A timeout or fault is not a
	// property of the layout and is never stored, so a hit is always
	// served as done.
	cache *lru.Cache[string, any]

	seq      atomic.Int64
	draining atomic.Bool
	ewmaNs   atomic.Int64 // EWMA of evaluation latency
	watchers sync.WaitGroup

	// A cache miss is an admission: both follow the same successful
	// pool.Submit, so Stats reports admitted as CacheMisses.
	submitted, admitted, shed, deduped, cacheHits atomic.Int64
	completed, failed, rejected                   atomic.Int64
}

// New builds the service and starts its worker pool. The caller owns
// Shutdown.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg: cfg,
		pool: harness.NewPool(harness.Options{
			Workers: cfg.Workers,
			Retries: cfg.Retries,
			Backoff: retryBackoff,
		}, cfg.Queue),
		baseCtx:    ctx,
		cancelBase: cancel,
		jobs:       make(map[string]*job),
		flights:    make(map[string]*flight),
		cache:      lru.New[string, any](cfg.CacheSize),
	}
}

// submit admits one request. It returns the job's status snapshot,
// errOverloaded (with a retry-after hint) when shedding, errDraining
// during shutdown, or a validation error.
func (s *Server) submit(req JobRequest) (JobStatus, time.Duration, error) {
	s.submitted.Add(1)
	if s.draining.Load() {
		return JobStatus{}, 0, errDraining
	}
	rq, err := resolve(req)
	if err != nil {
		return JobStatus{}, 0, err
	}
	key := rq.key
	task, err := s.cfg.TaskFactory(req)
	if err != nil {
		return JobStatus{}, 0, err
	}
	task.Timeout = s.cfg.DefaultTimeout

	s.mu.Lock()
	defer s.mu.Unlock()
	// Again under mu, which Shutdown flips draining under: a job admitted
	// here joins watchers before Shutdown waits on them.
	if s.draining.Load() {
		return JobStatus{}, 0, errDraining
	}

	j := &job{
		id:      fmt.Sprintf("j-%06d", s.seq.Add(1)),
		key:     key,
		kind:    rq.kind, // "" for evals: statuses keep the pre-tile wire shape
		created: time.Now(),
		state:   StateQueued,
		done:    make(chan struct{}),
	}

	// Content-addressed cache: a prior identical request already paid
	// for this evaluation.
	if v, ok := s.cache.Get(key); ok {
		s.cacheHits.Add(1)
		j.cached = true
		switch cv := v.(type) {
		case *tiling.TileResult:
			j.settleLocked(dfm.Outcome{}, cv)
		case dfm.Outcome:
			j.settleLocked(cv, nil) // cached outcomes are always clean: done
		}
		s.trackLocked(j)
		s.completed.Add(1)
		mE2E.ObserveSince(j.created)
		return j.statusLocked(), 0, nil
	}

	// Singleflight: an identical evaluation is already in flight;
	// attach instead of re-evaluating.
	if f, ok := s.flights[key]; ok {
		s.deduped.Add(1)
		j.deduped = true
		j.flight = f
		f.jobs = append(f.jobs, j)
		s.trackLocked(j)
		return j.statusLocked(), 0, nil
	}

	// Admission control on live pool signals: estimated wait is the
	// work ahead of us (queued + running) times recent per-eval
	// latency, spread over the workers.
	if wait := s.estimatedWait(); s.cfg.MaxWait > 0 && wait > s.cfg.MaxWait {
		s.shed.Add(1)
		return JobStatus{}, wait, errOverloaded
	}

	f := &flight{key: key}
	inner := task.Run
	task.Run = func(ctx context.Context, attempt int) (any, error) {
		f.started.Store(true)
		return inner(ctx, attempt)
	}
	ch, err := s.pool.Submit(s.baseCtx, task)
	if err != nil {
		// ErrQueueFull (hard shed) or ErrPoolClosed (drain raced us).
		if errors.Is(err, harness.ErrPoolClosed) {
			return JobStatus{}, 0, errDraining
		}
		s.shed.Add(1)
		return JobStatus{}, s.estimatedWait(), errOverloaded
	}
	s.admitted.Add(1)
	j.flight = f
	f.jobs = append(f.jobs, j)
	s.flights[key] = f
	s.trackLocked(j)
	s.watchers.Add(1)
	go func() {
		defer s.watchers.Done()
		s.complete(key, <-ch)
	}()
	return j.statusLocked(), 0, nil
}

// estimatedWait projects how long a newly queued job would sit before
// a worker picks it up, from the live queue depth, in-flight count,
// and the latency EWMA.
func (s *Server) estimatedWait() time.Duration {
	ewma := s.ewmaNs.Load()
	if ewma == 0 {
		return 0
	}
	ahead := s.pool.QueueDepth() + s.pool.InFlight()
	return time.Duration(math.Ceil(float64(ahead) * float64(ewma) / float64(s.pool.Workers())))
}

// complete settles every job attached to the flight with the pool
// result: the outcome dfm.OutcomeOf folds, and the tile result unless
// the task failed.
func (s *Server) complete(key string, res harness.Result) {
	o := dfm.OutcomeOf(res)
	tile, _ := res.Value.(*tiling.TileResult)
	if res.Err != nil {
		tile = nil
	}

	s.mu.Lock()
	f := s.flights[key]
	delete(s.flights, key)
	if o.Err == nil {
		if tile != nil {
			s.cache.Put(key, tile)
		} else {
			s.cache.Put(key, o)
		}
		s.updateEWMA(res.Runtime)
	}
	if f != nil {
		for _, j := range f.jobs {
			// Counted before settling: settleLocked wakes the job's
			// waiters, and a client whose ?wait=1 just returned must find
			// its own job in /metrics.
			mE2E.ObserveSince(j.created)
			switch {
			case errors.Is(o.Err, harness.ErrPoolClosed):
				s.rejected.Add(1)
			case o.Err != nil:
				s.failed.Add(1)
			default:
				s.completed.Add(1)
			}
			j.settleLocked(o, tile)
		}
	}
	s.mu.Unlock()
}

// updateEWMA folds one clean evaluation latency into the admission
// estimate (alpha = 0.2).
func (s *Server) updateEWMA(d time.Duration) {
	for {
		old := s.ewmaNs.Load()
		next := int64(d)
		if old != 0 {
			next = int64(0.8*float64(old) + 0.2*float64(d))
		}
		if s.ewmaNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// settleLocked moves a job to its terminal state. Callers hold s.mu.
// Tile jobs settle into tile (hasOut stays false so the
// status never grows a technique Result); failed ones carry only the
// error.
func (j *job) settleLocked(o dfm.Outcome, tile *tiling.TileResult) {
	j.outcome = o
	j.tile = tile
	j.hasOut = tile == nil && j.kind == ""
	j.flight = nil
	if o.Err != nil {
		j.state = StateFailed
		if errors.Is(o.Err, harness.ErrPoolClosed) {
			j.errMsg = "rejected: server shutting down before evaluation started"
		} else {
			j.errMsg = o.Err.Error()
		}
	} else {
		j.state = StateDone
	}
	close(j.done)
}

// statusLocked snapshots the job. Callers hold s.mu.
func (j *job) statusLocked() JobStatus {
	st := JobStatus{
		ID:      j.id,
		State:   j.state,
		Kind:    j.kind,
		Key:     j.key,
		Cached:  j.cached,
		Deduped: j.deduped,
		Error:   j.errMsg,
	}
	if st.State == StateQueued && j.flight != nil && j.flight.started.Load() {
		st.State = StateRunning
	}
	if j.hasOut {
		v := dfm.NewOutcomeView(j.outcome)
		st.Result = &v
	}
	st.Tile = j.tile
	return st
}

// trackLocked registers the job and evicts the oldest settled jobs
// past the retention cap. Callers hold s.mu.
func (s *Server) trackLocked(j *job) {
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	for len(s.jobs) > retainJobs && len(s.order) > 0 {
		oldest, ok := s.jobs[s.order[0]]
		if ok && oldest.state != StateDone && oldest.state != StateFailed {
			break // never evict a live job
		}
		if ok {
			delete(s.jobs, s.order[0])
		}
		s.order = s.order[1:]
	}
}

// Job returns the status snapshot of a job by id.
func (s *Server) Job(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return j.statusLocked(), true
}

// wait blocks until the job settles or ctx is done, then returns the
// latest snapshot.
func (s *Server) wait(ctx context.Context, id string) (JobStatus, bool, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, false, nil
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return JobStatus{}, true, ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.statusLocked(), true, nil
}

// Stats snapshots the server counters and live pool signals.
func (s *Server) Stats() Stats {
	return Stats{
		Submitted:   s.submitted.Load(),
		Admitted:    s.admitted.Load(),
		Shed:        s.shed.Load(),
		Deduped:     s.deduped.Load(),
		CacheHits:   s.cacheHits.Load(),
		CacheMisses: s.admitted.Load(),
		Completed:   s.completed.Load(),
		Failed:      s.failed.Load(),
		Rejected:    s.rejected.Load(),
		QueueDepth:  s.pool.QueueDepth(),
		InFlight:    s.pool.InFlight(),
		CacheLen:    s.cache.Len(),
		EWMAMS:      float64(s.ewmaNs.Load()) / 1e6,
		Draining:    s.draining.Load(),
	}
}

// Shutdown drains the service: new submissions are rejected with 503,
// queued jobs settle with a clean rejection, in-flight evaluations
// run to completion — unless ctx expires first, which force-cancels
// them through the harness context paths. Every job is settled when
// Shutdown returns.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining.Store(true)
	s.mu.Unlock()
	closed := make(chan struct{})
	go func() {
		s.pool.Close()
		close(closed)
	}()
	var err error
	select {
	case <-closed:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancelBase() // force: in-flight evaluators see cancellation
		<-closed
	}
	s.watchers.Wait()
	s.cancelBase()
	return err
}
